"""Abstract simplicial complexes and finite posets, plus the graph-derived
builders: walk-neighborhood complexes, linked-pair posets, box complexes and
order complexes.

Complexes are stored by facets; full face enumeration is on demand, cached,
and guarded by a face-count limit (default 5,000,000).  Constructed values
are immutable apart from that cache and are safe to share between readers.
"""

from __future__ import annotations

import itertools
import json
from collections import deque

from .errors import ResourceLimitError
from .graphs import _decode_label, _encode_label, _json_list, walk_ball

DEFAULT_FACE_LIMIT = 5_000_000

__all__ = [
    "DEFAULT_FACE_LIMIT",
    "SimplicialComplex",
    "Poset",
    "sorted_labels",
    "neighborhood_complex",
    "pair_poset",
    "box_complex",
    "order_complex",
    "complex_to_json_obj",
    "complex_from_json_obj",
    "save_complex",
    "load_complex",
]


def _face_limit_error(count, cap):
    return ResourceLimitError(
        f"face enumeration reached {count} faces, above the limit of {cap}",
        count=count, limit=cap)


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

    __slots__ = ("vertices", "facets", "_index", "_faces", "_facet_sets")

    def __init__(self, vertices, facets):
        vertices = tuple(vertices)
        n = len(vertices)
        if len(set(vertices)) != n:
            raise ValueError("vertex labels must be pairwise distinct")
        fs = []
        for f in facets:
            f = tuple(f)
            if any(not (0 <= i < n) for i in f):
                raise ValueError("facet vertex index out of range")
            if any(f[i] >= f[i + 1] for i in range(len(f) - 1)):
                raise ValueError("facet indices must be strictly increasing")
            fs.append(f)
        self._setup(vertices, fs)

    def _setup(self, vertices, facets):
        self.vertices = tuple(vertices)
        self.facets = tuple(sorted(facets))
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._faces = None
        self._facet_sets = tuple(frozenset(f) for f in self.facets)

    @classmethod
    def from_faces(cls, faces):
        """Build from arbitrary faces (iterables of labels), keeping only the
        maximal ones.  Vertices are the labels that occur, in sorted order."""
        face_sets = {frozenset(f) for f in faces if f}
        kept = []
        for f in sorted(face_sets, key=len, reverse=True):
            if not any(f <= g for g in kept):
                kept.append(f)
        vertex_set = set().union(*kept) if kept else set()
        vertices = sorted_labels(vertex_set)
        index = {v: i for i, v in enumerate(vertices)}
        facets = [tuple(sorted(index[v] for v in f)) for f in kept]
        return cls(vertices, facets)

    @classmethod
    def _from_indexed(cls, vertices, facets):
        # trusted path for builders whose facets are known maximal and valid
        obj = cls.__new__(cls)
        obj._setup(vertices, (tuple(f) for f in facets))
        return obj

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
            seen = set()
            for facet in self.facets:
                for k in range(1, len(facet) + 1):
                    for sub in itertools.combinations(facet, k):
                        if sub not in seen:
                            seen.add(sub)
                            if len(seen) > cap:
                                raise _face_limit_error(len(seen), cap)
            by_dim = {}
            for f in seen:
                by_dim.setdefault(len(f) - 1, []).append(f)
            self._faces = {d: sorted(v) for d, v in sorted(by_dim.items())}
        else:
            count = sum(map(len, self._faces.values()))
            if count > cap:
                raise _face_limit_error(count, cap)
        return self._faces

    def face_counts(self, limit=None):
        faces = self.faces(limit)
        return tuple(len(faces[d]) for d in range(len(faces)))

    def all_faces_label_set(self, limit=None):
        return {self.face_labels(f) for lst in self.faces(limit).values() for f in lst}

    def has_face_indices(self, face):
        s = frozenset(face)
        return any(s <= fs for fs in self._facet_sets)

    def has_face(self, labels):
        try:
            idx = [self._index[v] for v in labels]
        except KeyError:
            return False
        return self.has_face_indices(idx)

    def facet_label_sets(self):
        return frozenset(frozenset(self.face_labels(f)) for f in self.facets)

    def euler_characteristic(self, limit=None):
        return sum((-1) ** d * len(lst) for d, lst in self.faces(limit).items())

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


class Poset:
    """Finite poset stored by its covering relation; the order is the
    reflexive-transitive closure (acyclicity is validated, which gives
    antisymmetry)."""

    __slots__ = ("elements", "covers", "_index", "_succ", "_pred_count", "_topo", "_reach")

    def __init__(self, elements, covers):
        self.elements = tuple(elements)
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise ValueError("poset elements must be pairwise distinct")
        cov = set()
        for a, b in covers:
            a, b = int(a), int(b)
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError(f"bad cover pair ({a}, {b})")
            cov.add((a, b))
        self.covers = tuple(sorted(cov))
        succ = [[] for _ in range(n)]
        indeg = [0] * n
        for a, b in self.covers:
            succ[a].append(b)
            indeg[b] += 1
        self._succ = tuple(tuple(sorted(s)) for s in succ)
        self._pred_count = tuple(indeg)
        # Kahn's algorithm: a topological order exists iff there is no cycle
        topo = []
        queue = deque(i for i in range(n) if indeg[i] == 0)
        while queue:
            i = queue.popleft()
            topo.append(i)
            for j in self._succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if len(topo) != n:
            raise ValueError("covering relation has a cycle")
        self._topo = tuple(topo)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._reach = None

    @classmethod
    def from_leq(cls, elements, leq):
        """Build from a comparison callable; covers via transitive reduction.
        Quadratic in the element count, for small posets."""
        els = list(elements)
        n = len(els)
        above = [
            frozenset(j for j in range(n) if i != j and leq(els[i], els[j]))
            for i in range(n)
        ]
        covers = []
        for i in range(n):
            for j in above[i]:
                if not any(j in above[k] for k in above[i]):
                    covers.append((i, j))
        return cls(els, covers)

    @property
    def n_elements(self):
        return len(self.elements)

    def index_of(self, element):
        try:
            return self._index[element]
        except KeyError:
            raise ValueError(f"{element!r} is not a poset element") from None

    def minimal_elements(self):
        return [i for i in range(self.n_elements) if self._pred_count[i] == 0]

    def _ensure_reach(self):
        if self._reach is None:
            reach = [1 << i for i in range(self.n_elements)]
            for i in reversed(self._topo):
                acc = reach[i]
                for j in self._succ[i]:
                    acc |= reach[j]
                reach[i] = acc
            self._reach = reach

    def leq(self, i, j):
        """``i <= j`` in the generated order (element indices)."""
        self._ensure_reach()
        return bool((self._reach[i] >> j) & 1)

    def maximal_chains(self, limit=None):
        """All maximal chains as index tuples, depth-first in element order."""
        cap = DEFAULT_FACE_LIMIT if limit is None else limit
        out, path = [], []
        iters = [iter(self.minimal_elements())]  # the first iterates the roots
        while iters:
            nxt = next(iters[-1], None)
            if nxt is None:
                iters.pop()
                if iters:
                    path.pop()
            elif self._succ[nxt]:
                path.append(nxt)
                iters.append(iter(self._succ[nxt]))
            else:
                out.append(tuple(path) + (nxt,))
                if len(out) > cap:
                    raise ResourceLimitError(
                        f"maximal-chain enumeration reached {len(out)} chains, "
                        f"above the limit of {cap}", count=len(out), limit=cap)
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
    faces = []
    for i in range(G.n_vertices):
        ball = walk_ball(G, i, r)
        if ball:
            faces.append(tuple(G.vertices[j] for j in sorted(ball)))
    return SimplicialComplex.from_faces(faces)


def pair_poset(G, r, size_guard=200_000):
    """Poset of pairs ``(A, B)`` of nonempty vertex sets with every member of
    ``B`` an exact-r walk from every member of ``A``, ordered by componentwise
    inclusion.  Elements carry label tuples; Hasse edges are the one-vertex
    extensions.  Raises :class:`ResourceLimitError` (naming the count) when
    the element count exceeds ``size_guard``."""
    if r < 1:
        raise ValueError("radius must be at least 1")
    n = G.n_vertices
    balls = [walk_ball(G, i, r) for i in range(n)]

    a_sets = []  # (A index tuple, common ball frozenset), depth-first lex

    def grow(prefix, common, start):
        for x in range(start, n):
            c = balls[x] if common is None else common & balls[x]
            if not c:
                continue
            a = prefix + (x,)
            a_sets.append((a, c))
            if len(a_sets) > size_guard:
                raise ResourceLimitError(
                    f"linked-pair poset exceeds {size_guard} elements "
                    f"(more than {len(a_sets)} first components alone)",
                    count=len(a_sets), limit=size_guard)
            grow(a, c, x + 1)

    grow((), None, 0)
    total = sum(2 ** len(c) - 1 for _, c in a_sets)
    if total > size_guard:
        raise ResourceLimitError(
            f"linked-pair poset has {total} elements, above the guard of {size_guard}",
            count=total, limit=size_guard)

    a_sets.sort(key=lambda ac: (len(ac[0]), ac[0]))
    elements = []
    common_of = {}
    for a, c in a_sets:
        common_of[a] = c
        cs = tuple(sorted(c))
        for size in range(1, len(cs) + 1):
            for b in itertools.combinations(cs, size):
                elements.append((a, b))
    index = {e: i for i, e in enumerate(elements)}

    covers = []
    for (a, b), i in index.items():
        bset = set(b)
        for y in sorted(common_of[a] - bset):
            covers.append((i, index[(a, tuple(sorted(bset | {y})))]))
        aset = set(a)
        for x in range(n):
            if x not in aset and bset <= balls[x]:
                covers.append((i, index[(tuple(sorted(aset | {x})), b)]))

    payloads = [
        (tuple(G.vertices[i] for i in a), tuple(G.vertices[j] for j in b))
        for a, b in elements
    ]
    return Poset(payloads, covers)


def box_complex(G, r, size_guard=200_000):
    """Box complex of the exact-r walk graph: a facet ``A x {0} + CN(A) x {1}``
    per nonempty intersection ``A`` of walk balls, ``CN(A)`` being that of the
    balls of A's members.  Vertices are ``(label, sheet)``, sheet 0 first.
    Raises :class:`ResourceLimitError` past ``size_guard`` intersections."""
    if r < 1:
        raise ValueError("radius must be at least 1")
    balls = [walk_ball(G, i, r) for i in range(G.n_vertices)]
    lattice = {b for b in balls if b}
    queue = list(lattice)
    # every intersection of balls is reached one ball at a time
    for a in queue:
        if len(lattice) > size_guard:
            raise ResourceLimitError(
                f"ball-intersection enumeration reached {len(lattice)} sets, "
                f"above the guard of {size_guard}", count=len(lattice), limit=size_guard)
        for b in balls:
            c = a & b
            if c and c not in lattice:
                lattice.add(c)
                queue.append(c)
    active = [i for i, b in enumerate(balls) if b]
    slot = {x: 2 * k for k, x in enumerate(active)}
    vertices = [(G.vertices[x], s) for x in active for s in (0, 1)]
    # A <= A' forces CN(A) >= CN(A'), and A = CN(CN(A)) for an intersection
    # A, so no facet lies in another
    facets = []
    for a in lattice:
        cn = frozenset.intersection(*(balls[x] for x in a))
        facets.append(sorted([slot[x] for x in a] + [slot[y] + 1 for y in cn]))
    return SimplicialComplex._from_indexed(vertices, facets)


def order_complex(P, limit=None):
    """Simplicial complex of the chains of ``P``: vertices are the elements,
    facets the maximal chains."""
    facets = [tuple(sorted(c)) for c in P.maximal_chains(limit)]
    return SimplicialComplex._from_indexed(P.elements, facets)


# ---------------------------------------------------------------------------
# file format

def complex_to_json_obj(K):
    return {
        "vertices": [_encode_label(v) for v in K.vertices],
        "facets": [[_encode_label(v) for v in K.face_labels(f)] for f in K.facets],
    }


def complex_from_json_obj(obj):
    vertices = [_decode_label(v) for v in _json_list(obj, "vertices")]
    faces = []
    for f in _json_list(obj, "facets"):
        if not isinstance(f, list):
            raise ValueError(f"a facet must be a list of vertices, got {f!r}")
        faces.append(tuple(_decode_label(v) for v in f))
    # listed vertices survive as 0-faces even when isolated
    faces.extend((v,) for v in vertices)
    return SimplicialComplex.from_faces(faces)


def save_complex(K, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(complex_to_json_obj(K), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_complex(path):
    with open(path, "r", encoding="utf-8") as fh:
        return complex_from_json_obj(json.load(fh))
