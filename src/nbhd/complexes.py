"""Abstract simplicial complexes and finite posets built at their first
read, plus the graph-derived builders: walk-neighborhood complexes,
linked-pair posets and order complexes.

Complexes are stored by facets; full face enumeration is on demand, cached,
and guarded by a face-count limit (default 5,000,000).  It grows each face
once, in lexicographic order, from per-vertex facet bit masks, and counts it
as it is made; an order complex lists its maximal chains, its facets, when
they are first read.  A linked-pair poset builds its elements and covers
at the first read of either, and an order complex takes its vertices from
its poset at their first read, so ``homology``, which reads only a pair
space's ``(G, r, dim)``, builds neither.  The lattice of a complex's facet
intersections and the chains of its order complex are built here too, for
``homology``.
Values are immutable apart from those caches, which a repeated fill leaves
the same, and are safe to share between readers.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from functools import reduce

from .errors import ResourceLimitError
from .graphs import _bits, _decode_label, _encode_label, _json_list, walk_ball

DEFAULT_FACE_LIMIT = 5_000_000
DEFAULT_POSET_GUARD = 200_000

__all__ = [
    "DEFAULT_FACE_LIMIT",
    "SimplicialComplex",
    "Poset",
    "sorted_labels",
    "neighborhood_complex",
    "pair_poset",
    "order_complex",
    "complex_to_json_obj",
    "complex_from_json_obj",
]


def _integers(values):
    # plain ints, a bool as 0 or 1; a float or a string is refused, not
    # truncated or parsed
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{values!r} holds a non-integer") from None


def sorted_labels(labels):
    """Deterministic label order: natural when comparable, else type/repr."""
    labels = list(labels)
    try:
        return sorted(labels)
    except TypeError:
        return sorted(labels, key=lambda x: (type(x).__name__, repr(x)))


class SimplicialComplex:
    """Finite abstract simplicial complex stored by facets.

    ``vertices`` holds the labels; ``facets`` are strictly increasing index
    tuples, pairwise non-nested, in lexicographic order.
    """

    __slots__ = ("vertices", "_labels", "_facets", "_index", "_faces", "_pairs")

    def __init__(self, vertices, facets):
        vertices = tuple(vertices)
        n = len(vertices)
        if len(set(vertices)) != n:
            raise ValueError("vertex labels must be pairwise distinct")
        fs = []
        for f in facets:
            f = _integers(f)
            if any(not (0 <= i < n) for i in f):
                raise ValueError("facet vertex index out of range")
            if any(f[i] >= f[i + 1] for i in range(len(f) - 1)):
                raise ValueError("facet indices must be strictly increasing")
            fs.append(f)
        if _keep_maximal(fs, n) != fs:
            raise ValueError("facets must be pairwise non-nested and distinct")
        self._setup(vertices, fs)

    def _setup(self, vertices, facets):
        self._labels = vertices
        self._facets = facets if callable(facets) else tuple(sorted(map(tuple, facets)))
        self._faces = self._pairs = None

    def __getattr__(self, name):
        # Python calls this only when a normal lookup fails: the first read
        # of vertices or _index fills both slots, from _labels (called if it
        # is a function), and every later read is a plain slot read
        if name not in ("vertices", "_index"):
            return object.__getattribute__(self, name)  # the usual error
        labels = self._labels
        self.vertices = tuple(labels() if callable(labels) else labels)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        return getattr(self, name)

    @classmethod
    def from_faces(cls, faces):
        """Build from arbitrary faces (iterables of labels), keeping only the
        maximal ones.  Vertices are the labels that occur, in sorted order."""
        faces = {frozenset(f) for f in faces} - {frozenset()}
        return _maximal_on(sorted_labels(set().union(*faces)), lambda v: v, faces)

    @classmethod
    def _from_indexed(cls, vertices, facets):
        # trusted path for builders whose facets are known maximal and valid;
        # a function given as the vertices or the facets is called when they
        # are first read
        obj = cls.__new__(cls)
        obj._setup(vertices, facets)
        return obj

    @property
    def facets(self):
        if callable(self._facets):
            self._facets = tuple(sorted(map(tuple, self._facets())))
        return self._facets

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def dim(self):
        return max((len(f) for f in self.facets), default=0) - 1

    def index_of(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"{label!r} is not a vertex of the complex") from None

    def face_labels(self, face):
        return tuple(self.vertices[i] for i in face)

    def faces(self, limit=None):
        """All nonempty faces by dimension, ``{d: sorted index tuples}``.
        Raises :class:`ResourceLimitError` past the face-count guard."""
        cap = DEFAULT_FACE_LIMIT if limit is None else limit
        if self._faces is None:
            self._faces = dict(enumerate(_face_levels(
                self.facets, range(self.n_vertices), cap, "face enumeration")))
        count = sum(map(len, self._faces.values()))
        if count > cap:
            raise ResourceLimitError("face enumeration", count, "faces", cap)
        return self._faces

    def has_face_indices(self, face):
        s = set(face)
        return any(s.issubset(f) for f in self.facets)

    def facet_label_sets(self):
        return frozenset(frozenset(self.face_labels(f)) for f in self.facets)

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and set(self.vertices) == set(other.vertices)
            and self.facet_label_sets() == other.facet_label_sets()
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"SimplicialComplex({self.n_vertices} vertices, "
            f"{len(self.facets)} facets, dim {self.dim})"
        )


def _held(facets, n):
    # held[v]: the facets holding vertex v, as a bit mask over facet numbers
    held = [0] * n
    for j, f in enumerate(facets):
        for v in f:
            held[v] |= 1 << j
    return held


def _keep_maximal(faces, n):
    # the faces, index sets below n, that no other one holds or repeats
    held, every = _held(faces, n), (1 << len(faces)) - 1
    return [f for f in faces
            if reduce(operator.and_, map(held.__getitem__, f), every).bit_count() == 1]


def _maximal_on(vertices, key, faces):
    # the complex on vertices, in order, of the maximal faces (sets of key(v))
    slot = {key(v): i for i, v in enumerate(vertices)}
    return SimplicialComplex._from_indexed(vertices, _keep_maximal(
        [sorted(map(slot.__getitem__, f)) for f in faces], len(vertices)))


def _face_levels(facets, seeds, limit, stage):
    """The faces of the complex with these ``facets`` (increasing index
    sequences, which may nest or repeat) that start on a vertex in ``seeds``,
    one lexicographic list per dimension, each yielded before a face of the
    next is counted, so a reader that stops early counts only what it read;
    past ``limit``, a :class:`ResourceLimitError` names ``stage``."""
    cap = DEFAULT_FACE_LIMIT if limit is None else limit
    # spans[v]: the vertex masks of the facets containing v; holds[v][w]:
    # those holding a later w too, as a bit mask over spans[v]; link[v]: those
    # w.  A face's mask is over its first vertex's facets: a mask over all
    # facets would make each stored face as wide as the facet count
    spans, holds = defaultdict(list), defaultdict(dict)
    for f in facets:
        span = sum(1 << v for v in f)
        for p, v in enumerate(f):
            bit = 1 << len(spans[v])
            spans[v].append(span)
            h = holds[v]
            for w in f[p + 1:]:
                h[w] = h.get(w, 0) | bit
    link = {v: sum(1 << w for w in h) for v, h in holds.items()}
    # a level is its faces, the facets holding each and the later vertices
    # that may extend each, the last two as bit masks
    faces, held_by, cands, room = [], [], [], cap
    for v in filter(spans.__contains__, seeds):
        faces.append((v,))
        held_by.append((1 << len(spans[v])) - 1)
        cands.append(link[v])
        if len(faces) > room:
            raise ResourceLimitError(stage, cap + 1, "faces", cap)
    while faces:
        yield faces
        room -= len(faces)
        level, faces, held_by, cands = zip(faces, held_by, cands), [], [], []
        for face, m, cand in level:
            holds0, spans0 = holds[face[0]], spans[face[0]]
            while cand:
                low = cand & -cand
                cand ^= low
                v = low.bit_length() - 1
                held = m & holds0[v]
                if held:
                    faces.append(face + (v,))
                    held_by.append(held)
                    # a face in one facet extends only within that facet
                    cands.append(cand & (link[v] if held & (held - 1)
                                         else spans0[held.bit_length() - 1]))
                    if len(faces) > room:
                        raise ResourceLimitError(stage, cap + 1, "faces", cap)


# ---------------------------------------------------------------------------
# facet-intersection lattices: L, the nonempty intersections of a complex's
# facets as vertex masks ordered by inclusion, whose order complex
# ``homology`` reduces when it has fewer faces than the complex

def _closure(facets, found):
    # adds the spans, the facets' vertex masks, to found, closes it under
    # intersection and yields a lower bound on its chains, first and after
    # each step (a round-k element starts >= 2^k chains); round 1 meets the pairs
    # in each vertex's star, a later one each new element with its stars' spans
    stars = defaultdict(list)  # the spans holding each vertex
    for f in facets:
        span = sum(1 << v for v in f)
        found.add(span)
        for v in f:
            stars[v].append(span)
    bound, rounds = len(found), [({a & b for a, b in itertools.combinations(fs, 2)}
                                  for fs in stars.values())]
    yield bound
    for k, meets in enumerate(rounds, 1):  # a round with new elements appends the next
        made = []
        for fresh in meets:
            fresh -= found
            if fresh:
                found |= fresh
                bound += len(fresh) << k
                # a vertex meets each facet in itself or nothing
                made += (x for x in fresh if x & (x - 1))
                yield bound
        if made:
            rounds.append({a & s for v in _bits(a) for s in stars[v]} for a in made)


def _above(lattice):
    # for each element of the lattice, sorted by size, the elements after it
    # that strictly hold it, read from those holding its highest vertex
    holding = defaultdict(list)
    for i, x in enumerate(lattice):
        for v in _bits(x):
            holding[v].append(i)
    return [[j for j in holding[x.bit_length() - 1] if j > i and lattice[j] & x == x]
            for i, x in enumerate(lattice)]


def _sizes(lattice, above):
    # (chains of the lattice, faces of the complex) in one pass up the
    # lattice: the chains whose top is each element, and the faces whose
    # closure is each element, f(x), by Moebius inversion of
    # 2^|x| - 1 = the sum of f(y) over the elements y inside x
    tops, inside = [1] * len(lattice), [0] * len(lattice)
    for y, x in enumerate(lattice):
        inside[y] = (1 << x.bit_count()) - 1 - inside[y]
        for z in above[y]:
            tops[z] += tops[y]
            inside[z] += inside[y]
    return sum(tops), sum(inside)


def _chains(above):
    # the chains of the lattice by dimension, each grown by the elements
    # strictly above its top
    level, levels = [(i,) for i in range(len(above))], []
    while level:
        levels.append(level)
        level = [c + (j,) for c in level for j in above[c[-1]]]
    return levels


class Poset:
    """Finite poset stored by its covering relation: sorted index pairs
    ``(a, b)`` with ``a`` below ``b``, whose reflexive-transitive closure is
    the order.  Its builder sets ``_build``, a function returning the
    elements and the covers, and ``_pairs``, a pair space's ``(G, r, dim)``
    or None; nothing is checked, as the builder knows its elements distinct
    and its covers in range and acyclic."""

    __slots__ = ("elements", "covers", "_pairs", "_build")

    def __getattr__(self, name):
        # Python calls this only when a normal lookup fails: the first read
        # of elements or covers fills both slots from _build, and every
        # later read is a plain slot read
        if name not in ("elements", "covers"):
            return object.__getattribute__(self, name)  # the usual error
        self.elements, self.covers = self._build()
        return getattr(self, name)

    @property
    def n_elements(self):
        return len(self.elements)

    def minimal_elements(self):
        covered = {b for _, b in self.covers}
        return [i for i in range(self.n_elements) if i not in covered]

    def maximal_chains(self, limit=None):
        """All maximal chains as index tuples, depth-first in element order."""
        cap = DEFAULT_FACE_LIMIT if limit is None else limit
        out, path, succ = [], [], [[] for _ in self.elements]
        for a, b in self.covers:  # sorted, so each element's covers are too
            succ[a].append(b)
        iters = [iter(self.minimal_elements())]  # the first iterates the roots
        while iters:
            nxt = next(iters[-1], None)
            if nxt is None:
                iters.pop()
                if iters:
                    path.pop()
            elif succ[nxt]:
                path.append(nxt)
                iters.append(iter(succ[nxt]))
            else:
                out.append(tuple(path) + (nxt,))
                if len(out) > cap:
                    raise ResourceLimitError(
                        "maximal-chain enumeration", len(out), "chains", cap)
        return out

    def to_json_obj(self):
        return {
            "elements": [str(e) for e in self.elements],
            "covers": [[a, b] for a, b in self.covers],
        }

    def __repr__(self):
        return f"Poset({self.n_elements} elements, {len(self.covers)} covers)"


# ---------------------------------------------------------------------------
# builders

def neighborhood_complex(G, r):
    """Complex generated by the exact-r walk balls: the faces are the vertex
    sets lying inside some ball, so the facets are the maximal balls.
    Vertices with an empty ball do not appear."""
    if r < 1:
        raise ValueError("radius must be at least 1")
    balls = {walk_ball(G, i, r) for i in range(G.n_vertices)} - {frozenset()}
    return _maximal_on(sorted_labels(G.vertices[j] for j in set().union(*balls)),
                       G._index.__getitem__, balls)


def pair_poset(G, r, size_guard=DEFAULT_POSET_GUARD):
    """Poset of pairs ``(A, B)`` of nonempty vertex sets with every member of
    ``B`` an exact-r walk from every member of ``A``, ordered by componentwise
    inclusion.  Elements carry label tuples; Hasse edges are the one-vertex
    extensions.  The first components are N_r(G)'s faces, read from
    ``_face_levels``; past ``size_guard`` faces, or then elements, a
    :class:`ResourceLimitError` names the count.  ``(G, r, dim)`` is kept for
    ``homology``, with dim = max(|A| + |B|) - 2 the order complex's
    dimension.  The elements, their index and the covers are built at the
    first read of ``elements`` or ``covers``: by ``n_elements``,
    ``maximal_chains``, ``to_json_obj``, ``repr`` or an order complex's
    vertices or facets, never by ``homology``."""
    if r < 1:
        raise ValueError("radius must be at least 1")
    n = G.n_vertices
    balls = [walk_ball(G, i, r) for i in range(n)]
    # the first components are the faces of N_r(G), by size and then
    # lexicographically: walks reverse, so y is in A's common ball iff A lies
    # in y's ball.  Each first component carries at least one element
    a_sets = [(a, frozenset.intersection(*map(balls.__getitem__, a)))
              for level in _face_levels([sorted(b) for b in balls if b], range(n),
                                        size_guard, "linked-pair poset")
              for a in level]
    total = sum(2 ** len(c) - 1 for _, c in a_sets)
    if total > size_guard:
        raise ResourceLimitError("linked-pair poset", total, "elements", size_guard)
    P = Poset.__new__(Poset)
    P._build = lambda: _linked_pairs(G, a_sets)
    P._pairs = (G, r, max((len(a) + len(c) for a, c in a_sets), default=1) - 2)
    return P


def _linked_pairs(G, a_sets):
    # the elements of the linked-pair poset with these first components and
    # common balls, as label payloads, and its covers, sorted
    elements, payloads = [], []
    for a, c in a_sets:
        cs = tuple(sorted(c))
        la, lcs = tuple(map(G.vertices.__getitem__, a)), tuple(map(G.vertices.__getitem__, cs))
        for size in range(1, len(cs) + 1):
            elements += zip(itertools.repeat(a), itertools.combinations(cs, size))
            payloads += zip(itertools.repeat(la), itertools.combinations(lcs, size))
    index = {e: i for i, e in enumerate(elements)}

    covers = []  # each cover drops one vertex; pairs are down-closed
    for (a, b), i in index.items():
        for k in range(len(a) if len(a) > 1 else 0):
            covers.append((index[(a[:k] + a[k + 1:], b)], i))
        for k in range(len(b) if len(b) > 1 else 0):
            covers.append((index[(a, b[:k] + b[k + 1:])], i))
    return tuple(payloads), tuple(sorted(covers))


def order_complex(P, limit=None):
    """Simplicial complex of the chains of ``P``: vertices are the elements,
    taken from ``P`` at their first read, and facets the maximal chains,
    listed when the facets are first read; a read past ``limit`` chains
    raises :class:`ResourceLimitError`.  A ``pair_poset``'s ``(G, r, dim)``
    is passed on, for ``homology``, which reduces N_r(G) and reads neither
    the vertices nor a chain, so the poset is never built; a complex rebuilt
    from its facets carries none."""
    K = SimplicialComplex._from_indexed(
        lambda: P.elements, lambda: map(sorted, P.maximal_chains(limit)))
    K._pairs = P._pairs
    return K


# ---------------------------------------------------------------------------
# file format

def complex_to_json_obj(K):
    return {
        "vertices": [_encode_label(v) for v in K.vertices],
        "facets": [[_encode_label(v) for v in K.face_labels(f)] for f in K.facets],
    }


def complex_from_json_obj(obj):
    vertices = [_decode_label(v) for v in _json_list(obj, "vertices")]
    listed = set(vertices)
    if len(listed) != len(vertices):
        raise ValueError("vertex labels must be pairwise distinct")
    faces = []
    for f in _json_list(obj, "facets"):
        if not isinstance(f, list):
            raise ValueError(f"a facet must be a list of vertices, got {f!r}")
        face = tuple(_decode_label(v) for v in f)
        if not listed.issuperset(face):
            raise ValueError(f"facet {f!r} names a vertex that is not listed")
        if len(set(face)) != len(face):
            raise ValueError(f"facet {f!r} repeats a vertex")
        faces.append(face)
    # listed vertices survive as 0-faces even when isolated
    faces.extend((v,) for v in vertices)
    return SimplicialComplex.from_faces(faces)

