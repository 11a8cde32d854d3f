"""Free simplicial involutions, involution height, and the homomorphism
obstruction verdicts built from cheap height bounds.

Height uses the sup convention: the largest n with the n-th cup power of the
cover's class nonzero (0 when the class itself is trivial).  It is computed on
the orbit Delta-complex K/t, with no subdivision for any free simplicial
involution (Hatcher, *Algebraic Topology*, sections 2.1 and 3.2), and for
pair spaces on the Z2-homotopy equivalent box complex (Csorba 2007), whose
orbit faces grow from walk-ball bit masks.  An orbit face is a mask, vertex
2o + s of orbit o on sheet s its bit 2o + s; faces are read one dimension at
a time, only as far as the cup powers are tested, and each coboundary is
reduced from the two dimensions it joins alone, in generation order.
A box complex's height stops at m - 2 for a proper m-colouring of G_r:
height is monotone under Z2-maps, and B(K_m) is Z2-homotopy equivalent to
the antipodal S^(m-2) (Matousek & Ziegler 2004, "Topological lower bounds
for the chromatic number"; Lovasz 1978).
"""

from __future__ import annotations

import math
from collections import defaultdict, namedtuple
from itertools import combinations
from math import comb

from . import gf2
from .complexes import DEFAULT_FACE_LIMIT, _face_levels, _integers
from .errors import FreenessError, ResourceLimitError
from .graphs import (DEFAULT_BUDGET, Graph, hom_search, make_cycle, odd_girth, validate_hom,
                     walk_ball)

__all__ = [
    "Involution",
    "FreenessReport",
    "check_free_involution",
    "z2_height",
    "pair_swap_involution",
    "pair_space_height",
    "HeightBound",
    "HeightBounds",
    "height_bounds",
    "ObstructionReport",
    "obstruction_check",
    "KneserReport",
    "kneser_certificate",
]

class Involution(namedtuple("Involution", "perm")):
    """Vertex permutation of a complex with order dividing two."""

    __slots__ = ()

    def __new__(cls, perm):
        perm = _integers(perm)
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError("not a permutation of the vertex indices")
        if any(perm[perm[i]] != i for i in range(n)):
            raise ValueError("permutation must square to the identity")
        return super().__new__(cls, perm)

    @classmethod
    def _make(cls, iterable):  # ``_replace`` builds through it: validate there too
        return cls(*iterable)

    @classmethod
    def from_label_map(cls, K, mapping):
        return cls(tuple(K.index_of(mapping[v]) for v in K.vertices))

    def __call__(self, i):
        return self.perm[i]

    def image_face(self, face):
        return tuple(sorted(self.perm[i] for i in face))


class FreenessReport(namedtuple("FreenessReport", "free reason witness",
                                 defaults=(None, None))):
    __slots__ = ()

    def __bool__(self):
        return self.free


def check_free_involution(K, t):
    """Free means: simplicial on K, no fixed vertex, and no face contains a
    vertex together with its image.  Failures carry a witness."""
    if len(t.perm) != K.n_vertices:
        raise ValueError("involution size does not match the complex")
    # a simplicial involution maps facets onto facets: the linear face scan
    # runs only on a miss, so the witness is the first image that is no face
    facets = set(K.facets)
    for facet in K.facets:
        img = t.image_face(facet)
        if img not in facets and not K.has_face_indices(img):
            return FreenessReport(
                False,
                "not simplicial",
                (K.face_labels(facet), K.face_labels(img)),
            )
    fixed = [i for i in range(K.n_vertices) if t.perm[i] == i]
    if fixed:
        return FreenessReport(False, "fixed vertex", (K.vertices[fixed[0]],))
    for facet in K.facets:
        fs = set(facet)
        if any(t.perm[i] in fs for i in facet):
            return FreenessReport(
                False, "face contains a vertex and its image", (K.face_labels(facet),)
            )
    return FreenessReport(True)


def _box_faces(balls, limit=None):
    """Orbit faces of the box complex B(G_r) under its sheet swap, one
    lexicographic list per dimension (Matousek & Ziegler 2004): A x {0} +
    B x {1} with B in ``balls[a]``, the exact-r walk ball, for each a in A and
    both common balls CN(A), CN(B) nonempty (CN of no vertex is every vertex).
    Vertex 2i + s, the i-th vertex with a nonempty ball on sheet s, is bit
    2i + s of a face's mask; each orbit is its face on an even first vertex,
    made and counted once."""
    cap = DEFAULT_FACE_LIMIT if limit is None else limit
    slot = {x: i for i, x in enumerate(x for x in range(len(balls)) if balls[x])}
    masks = [sum(1 << slot[y] for y in balls[x]) for x in slot]
    # a level holds (face, its top vertex, CN of sheet 0, CN of sheet 1)
    level = [(1 << 2 * i, 2 * i, m, (1 << len(masks)) - 1) for i, m in enumerate(masks)]
    if len(level) > cap:
        raise ResourceLimitError("orbit-face enumeration", cap + 1, "faces", cap)
    room = cap
    while level:
        yield [face for face, _, _, _ in level]
        room -= len(level)
        nxt = []
        for face, v, c0, c1 in level:
            # a new vertex lies in the other sheet's common ball and keeps
            # its own sheet's nonempty; candidates go lowest slot first
            cand = (c0 | c1) >> (v >> 1) << (v >> 1)
            while cand:
                low = cand & -cand
                cand ^= low
                i = low.bit_length() - 1
                m = masks[i]
                if 2 * i > v and c1 & low and c0 & m:
                    nxt.append((face | 1 << 2 * i, 2 * i, c0 & m, c1))
                if 2 * i + 1 > v and c0 & low and c1 & m:
                    nxt.append((face | 2 << 2 * i, 2 * i + 1, c0, c1 & m))
                if len(nxt) > room:
                    raise ResourceLimitError("orbit-face enumeration", cap + 1, "faces", cap)
        level = nxt


def z2_height(K, t, limit=None):
    """Largest n with the n-th cup power of the cover's Stiefel-Whitney class
    nonzero in cohomology (closed-form cup powers plus coboundary
    membership), computed on the orbit Delta-complex: the faces of ``K`` on
    an even first vertex once t is v ^ 1, as masks.  ``limit`` guards the
    faces read, half as many as those of ``K`` up to the height's dimension."""
    return _height([sum(1 << v for v in f) for f in level] for level in _face_levels(
        _orbit_labelled(K, t), range(0, K.n_vertices, 2), limit, "orbit-face enumeration"))


def _orbit_labelled(K, t):
    """The facets of ``K`` with orbit o renamed {2o, 2o + 1}, so that
    t(v) = v ^ 1.  Raises :class:`FreenessError` unless ``t`` is free."""
    report = check_free_involution(K, t)
    if not report:
        raise FreenessError(f"involution is not free: {report.reason} {report.witness!r}")
    perm = t.perm
    new = [0] * K.n_vertices
    for o, v in enumerate([v for v in range(K.n_vertices) if v < perm[v]]):
        new[v], new[perm[v]] = 2 * o, 2 * o + 1
    return [sorted(new[v] for v in f) for f in K.facets]


def _height(levels, cap=math.inf):
    """min(height, cap) from ``levels``, the orbit faces one dimension at a
    time, each orbit {f, t(f)} given as the mask of its face f on an even
    first vertex, t(v) = v ^ 1.  w^k is tested on the k-skeleton, read only
    when the loop reaches it, as H^k of the whole injects into H^k of the
    skeleton, and only the (k-1)- and k-faces are held.  The pivot rows of
    each reduction are cleared columns one dimension up: such a row tops a
    reduced cocycle, so its coboundary lies in the span of the lower rows'
    (de Silva, Morozov & Vejdemo-Johansson 2011).

    The facets of f are f ^ low for each set bit low; only the front one can
    start on an odd vertex, and then its orbit is given by its image: a face
    holds at most one of 2o, 2o + 1, so t moves its bits on ``even``, the
    first level's, up one and the rest down one.  w^k is read in the same
    loop.  An orbit edge (a, b) lifts from sheet a & 1 of a's orbit to sheet
    b & 1 of b's, so w(a, b) = (a ^ b) & 1, which t keeps: either member of
    an orbit gives the same value.  The front/back cup power of w on a k-face
    f is the product of w over its consecutive vertices, so w^k(f) = 1
    exactly when f alternates sheets at every step."""
    height, cleared, lower = 0, set(), next(levels, None)
    even = sum(lower or ())
    while height < cap and (upper := next(levels, None)):
        # the coboundary of the (k-1)-faces less the cleared ones, a row set
        # per (k-1)-face, and w^k's rows
        cols, power = defaultdict(set), set()
        for r, f in enumerate(upper):
            g = rest = f ^ (f & -f)
            if not g & -g & even:
                g = (g & even) << 1 | (g >> 1) & even
            if g not in cleared:
                cols[g].add(r)
            side = ~even  # the sheet the next vertex must be on
            while rest:
                low = rest & -rest
                rest ^= low
                g = f ^ low
                if g not in cleared:
                    cols[g].add(r)
                side = ~side if low & side else 0
            if side:
                power.add(r)
        pivots = set()
        # rows numbered in the k-faces' order, columns in the (k-1)-faces':
        # any order gives the same answer, but the order the facets are first
        # met in reduced K(9,3) r=1 half as fast
        if gf2.in_column_space((cols[g] for g in lower if g in cols), power, pivots):
            break
        height, cleared, lower = height + 1, {upper[p] for p in pivots}, upper
    return height


def pair_swap_involution(K):
    """The swap ``(A, B) -> (B, A)`` on the order complex of a linked-pair
    poset (vertices are the pair payloads)."""
    return Involution.from_label_map(K, {v: (v[1], v[0]) for v in K.vertices})


def pair_space_height(G, r, *, limit=None):
    """Exact involution height of the order complex of the linked-pair poset
    at odd radius ``r`` under the swap, taken on the box complex under its
    sheet swap: it is Z2-homotopy equivalent to Hom(K2, G_r) (Csorba 2007),
    whose face poset is the linked-pair poset (Babson & Kozlov 2006).  Its
    orbit faces are read from the walk balls only up to the dimension the
    height needs, and no further than a colouring of G_r caps it (see
    :func:`_colour_cap`); ``limit`` bounds the faces read."""
    _require_free(G, r)
    return _box_height(G, r, limit)


def _box_height(G, r, limit, cap=math.inf):
    # min(cap, the height above), each walk ball computed once; vertex 2i + 1
    # is 2i on the other sheet, so the sheet swap is v ^ 1, free and simplicial
    balls = [walk_ball(G, x, r) for x in range(G.n_vertices)]
    return _height(_box_faces(balls, limit), min(cap, _colour_cap(balls)))


def _colour_cap(balls):
    """m - 2 for a proper colouring c: G_r -> K_m, which bounds the swap
    height of B(G_r); x ~ y in G_r when y is in x's exact-r walk ball
    ``balls[x]``, with no loops once :func:`_require_free` holds.  c sends
    A x {0} + B x {1} to the face c(A) x {0} + c(B) x {1} of B(K_m), as
    c(a) != c(b) across the sides and a common neighbour of a side has a
    colour outside its image: a simplicial Z2-map, so the swap class pulls
    back to the swap class.  Height is monotone under Z2-maps, and B(K_m) is Z2-homotopy equivalent
    to the antipodal S^(m-2) (Matousek & Ziegler 2004, "Topological lower
    bounds for the chromatic number"; Lovasz 1978).  m is DSATUR's count,
    proper by construction, then one fewer while ``hom_search`` finds, within
    4 expansions per vertex, a colouring with one colour fewer that
    ``validate_hom`` passes.  The search stops at the size of a greedy
    clique, grown from the largest balls down, and does not run when that
    clique already has m vertices."""
    n = len(balls)
    colour, seen = [-1] * n, [0] * n  # seen[x]: the colours on x's ball, a mask
    for _ in range(n):
        x = max((x for x in range(n) if colour[x] < 0),
                key=lambda x: (seen[x].bit_count(), len(balls[x])))
        colour[x] = c = (~seen[x] & (seen[x] + 1)).bit_length() - 1  # lowest free
        for y in balls[x]:
            seen[y] |= 1 << c
    m = max(colour, default=-1) + 1
    clique = []
    for x in sorted(range(n), key=lambda x: -len(balls[x])):
        if all(y in balls[x] for y in clique):
            clique.append(x)
    floor = max(2, len(clique))  # no colouring has fewer colours than a clique
    if m > floor:
        Gr = Graph(range(n), [(x, y) for x in range(n) for y in balls[x] if x < y])
        while m > floor:
            K = Graph(range(m - 1), combinations(range(m - 1), 2))
            out = hom_search(Gr, K, 4 * n)
            if not (out.found and validate_hom(out.mapping, Gr, K)):
                break
            m -= 1
    return max(m - 2, 0)


# ---------------------------------------------------------------------------
# cheap height bounds and verdicts

def _require_free(G, r):
    if r < 1 or r % 2 == 0:
        raise FreenessError("radius must be a positive odd integer for a free pair swap")
    g0 = odd_girth(G)
    if not g0 > r:
        raise FreenessError(f"odd girth {g0} must exceed the radius {r}")
    return g0


class HeightBound(namedtuple("HeightBound", "kind value rule")):
    """``kind`` is "lower", "upper" or "exact"."""

    __slots__ = ()


class HeightBounds(namedtuple("HeightBounds", "lower upper rules")):
    __slots__ = ()

    def to_json_obj(self):
        return {
            "lower": self.lower,
            "upper": self.upper,
            "rules": [
                {"kind": b.kind, "value": b.value, "rule": b.rule} for b in self.rules
            ],
        }


def height_bounds(G, r, *, budget=DEFAULT_BUDGET):
    """Cheap bounds on the swap height of the linked-pair space at odd radius
    ``r``, without building its order complex.

    Rules: the exact value C(n, k) - 2 for the tagged Kneser graph K(n, k)
    when its pair space at ``r`` is a sphere (see
    :func:`_kneser_sphere_radius`); the exact value ``r`` for the tagged
    (r+2)-cycle; the lower bound ``r`` whenever the odd girth is exactly
    ``r + 2``; and, when no rule is exact, the upper bound 1 when one
    ``hom_search`` within ``budget`` expansions maps the graph to
    C_(2r+1).  That one target is enough: C_m maps onto C_(2r+1) for every
    odd m >= 2r + 1, so a map to a longer odd cycle is also a map to
    C_(2r+1).  The bounds are kept in the graph's memo, per ``(r, budget)``.
    """
    key = ("height_bounds", r, budget)
    if key not in G._memo:
        G._memo[key] = _height_bounds(G, r, budget)
    return G._memo[key]


def _height_bounds(G, r, budget):
    g0 = _require_free(G, r)
    rules = []
    tag = G.tag or ()
    # r is odd, so r // 2 is the r' of radius 2r' + 1
    if tag[:1] == ("kneser",) and _kneser_sphere_radius(tag[1], tag[2]) == r // 2:
        rules.append(HeightBound("exact", comb(tag[1], tag[2]) - 2, "kneser-sphere"))
    if tag[:1] == ("cycle",) and tag[1] == r + 2:
        rules.append(HeightBound("exact", r, "cycle-sphere"))
    if g0 == r + 2:
        rules.append(HeightBound("lower", r, "girth-sphere"))
    if not any(b.kind == "exact" for b in rules) and hom_search(
            G, make_cycle(2 * r + 1), budget).found:
        rules.append(HeightBound("upper", 1, f"maps-to-odd-cycle-C{2 * r + 1}"))
    lower, _ = _best_bound(rules, "lower")
    upper, _ = _best_bound(rules, "upper")
    return HeightBounds(lower, upper, tuple(rules))


def _kneser_sphere_radius(n, k):
    """The r >= 0 with k - 1 = r(n - 2k), or None: the pair space of K(n, k)
    at radius 2r + 1 is then the sphere S^(C(n, k) - 2).  At r = 0 this is
    K(n, 1) = K_n at radius 1, the sphere S^(n - 2)."""
    if 0 < 2 * k < n and (k - 1) % (n - 2 * k) == 0:
        return (k - 1) // (n - 2 * k)
    return None


def _best_bound(rules, kind):
    vals = [(b.value, b.rule) for b in rules if b.kind in (kind, "exact")]
    if not vals:
        return None, None
    if kind == "lower":
        return max(vals)
    return min(vals)


class ObstructionReport(namedtuple("ObstructionReport", "verdict r lhs rhs convention",
                                    defaults=("sup-height",))):
    """``verdict`` is "NO-MAP" or "INCONCLUSIVE"; ``lhs`` and ``rhs`` are
    ``{"bound": int | None, "rule": str | None}``."""

    __slots__ = ()

    def to_json_obj(self):
        # fresh copies of the nested dicts, so the report stays as it was
        return {**self._asdict(), "lhs": dict(self.lhs), "rhs": dict(self.rhs)}


def obstruction_check(G, H, r, exact=False, *, budget=DEFAULT_BUDGET, limit=None):
    """Compare a height lower bound for the source against an upper bound for
    the target: NO-MAP when the source height provably exceeds the target's.

    With ``exact=True``, a side whose cheap rules produced no exact value gets
    the cup-power height of its pair space instead (subject to the face
    ``limit``).  The target's comes first; only "source height > upper" decides
    the verdict, so the source's is computed up to ``upper + 1`` and reported
    as min(height, upper + 1), or not at all when its cheap lower bound
    already exceeds ``upper`` (that bound is reported).  Both are read only
    up to a colouring's cap, as in :func:`pair_space_height`.  Requires ``r`` odd
    and both odd girths above ``r``.
    """
    lb = height_bounds(G, r, budget=budget)
    ub = height_bounds(H, r, budget=budget)
    lower, lrule = _best_bound(lb.rules, "lower")
    upper, urule = _best_bound(ub.rules, "upper")
    # a cheap rule may only bound the height; exact mode replaces anything
    # short of an exact rule by the cup-power height, as far as it matters
    if exact and not any(b.kind == "exact" for b in ub.rules):
        upper = pair_space_height(H, r, limit=limit)
        urule = "cup-power-height"
    if exact and not any(b.kind == "exact" for b in lb.rules):
        # the source's height matters only up to upper + 1, and not at all
        # when a cheap lower bound already exceeds upper; height_bounds has
        # checked that its swap is free
        if lower is None or lower <= upper:
            lower = _box_height(G, r, limit, upper + 1)
            lrule = "cup-power-height"
    if lower is not None and upper is not None and lower > upper:
        verdict = "NO-MAP"
    else:
        verdict = "INCONCLUSIVE"
    return ObstructionReport(
        verdict,
        r,
        {"bound": lower, "rule": lrule},
        {"bound": upper, "rule": urule},
    )


class KneserReport(namedtuple("KneserReport", "verdict rule detail")):
    """``verdict`` is "NO-MAP" or "INCONCLUSIVE"."""

    __slots__ = ()

    def to_json_obj(self):
        return {**self._asdict(), "detail": dict(self.detail)}


def kneser_certificate(n, k, G, *, budget=DEFAULT_BUDGET):
    """Nonexistence certificate for maps out of the (n, k) Kneser graph when
    its pair space at radius 2r + 1 is a sphere, with ``r`` from
    :func:`_kneser_sphere_radius`, which must be at least 1: NO-MAP when the
    target has odd girth above ``2r + 1`` and either fewer vertices than the
    Kneser graph or a :func:`height_bounds` upper bound below the sphere
    dimension."""
    if n <= 2 * k:
        raise ValueError("requires n > 2k")
    r = _kneser_sphere_radius(n, k)
    if r is None or r < 1:
        raise ValueError("k - 1 must be a positive integer multiple of n - 2k")
    g0 = odd_girth(G)
    sphere_dim = comb(n, k) - 2
    detail = {
        "n": n,
        "k": k,
        "r": r,
        "odd_girth": "infinite" if g0 == math.inf else g0,
        "target_vertices": G.n_vertices,
        "kneser_vertices": comb(n, k),
        "sphere_dim": sphere_dim,
    }
    if g0 > 2 * r + 1:
        if G.n_vertices < comb(n, k):
            return KneserReport("NO-MAP", "vertex-count", detail)
        hb = height_bounds(G, 2 * r + 1, budget=budget)
        if hb.upper is not None and hb.upper < sphere_dim:
            detail["height_upper"] = hb.upper
            return KneserReport("NO-MAP", "height-upper", detail)
    return KneserReport("INCONCLUSIVE", None, detail)
