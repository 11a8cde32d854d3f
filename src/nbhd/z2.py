"""Free simplicial involutions, mod-2 cochains and cup products, involution
height, and the homomorphism obstruction verdicts built from cheap height
bounds.

Height uses the sup convention: the largest n with the n-th cup power of the
cover's class nonzero (0 when the class itself is trivial).  It is computed on
the orbit Delta-complex K/t, with no subdivision for any free simplicial
involution (Hatcher, *Algebraic Topology*, sections 2.1 and 3.2), and for
pair spaces on the Z2-homotopy equivalent box complex (Csorba 2007).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import comb

from . import gf2
from .complexes import DEFAULT_FACE_LIMIT, box_complex
from .errors import FreenessError, ResourceLimitError
from .graphs import hom_search, make_cycle, odd_girth

__all__ = [
    "Involution",
    "FreenessReport",
    "CochainZ2",
    "check_free_involution",
    "zero_cochain",
    "unit_cochain",
    "coboundary",
    "cup_product",
    "is_coboundary",
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


@dataclass(frozen=True)
class Involution:
    """Vertex permutation of a complex with order dividing two."""

    perm: tuple

    def __post_init__(self):
        perm = tuple(int(p) for p in self.perm)
        object.__setattr__(self, "perm", perm)
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError("not a permutation of the vertex indices")
        if any(perm[perm[i]] != i for i in range(n)):
            raise ValueError("permutation must square to the identity")

    @classmethod
    def from_label_map(cls, K, mapping):
        return cls(tuple(K.index_of(mapping[v]) for v in K.vertices))

    def __call__(self, i):
        return self.perm[i]

    def image_face(self, face):
        return tuple(sorted(self.perm[i] for i in face))


@dataclass(frozen=True)
class FreenessReport:
    free: bool
    reason: str | None = None
    witness: tuple | None = None

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


class _OrbitComplex:
    """Orbit Delta-complex of t(v) = v ^ 1: each orbit {f, t(f)} of faces is
    stored as the one starting on an even vertex.  t keeps the order in a
    face, so the i-th, front and back faces of the orbit are those of f, found
    from either member by :func:`_positions`.  The build applied ``limit``."""

    __slots__ = ("_faces",)

    def __init__(self, faces):
        self._faces = faces

    def faces(self, limit=None):
        return self._faces


def _orbit_complex(facets, limit, upto=None):
    """The orbit complex of t(v) = v ^ 1 on the complex with these facets
    (sorted tuples, t free and simplicial on them), without its simplices
    above dimension ``upto``.  ``limit`` bounds its faces."""
    cap = DEFAULT_FACE_LIMIT if limit is None else limit
    top = math.inf if upto is None else upto
    seen = set()
    for f in facets:
        # a face starting on an odd vertex is the image of one in t(f), also
        # a facet, that starts on an even vertex
        for i, v in enumerate(f):
            if v & 1:
                continue
            for k in range(min(top, len(f) - 1 - i) + 1):
                for rest in itertools.combinations(f[i + 1:], k):
                    seen.add((v,) + rest)
                    if len(seen) > cap:
                        raise ResourceLimitError(
                            f"orbit-face enumeration reached {len(seen)} faces, "
                            f"above the limit of {cap}", count=len(seen), limit=cap)
    by_dim = {}
    for f in seen:
        by_dim.setdefault(len(f) - 1, []).append(f)
    return _OrbitComplex({d: sorted(by_dim[d]) for d in sorted(by_dim)})


# ---------------------------------------------------------------------------
# mod-2 cochains

@dataclass(frozen=True)
class CochainZ2:
    """Bit per p-face of a fixed complex, aligned with its sorted face list."""

    dim: int
    bits: tuple

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) & 1 for b in self.bits))

    @property
    def is_zero(self):
        return not any(self.bits)

    def __xor__(self, other):
        if self.dim != other.dim or len(self.bits) != len(other.bits):
            raise ValueError("cochain mismatch")
        return CochainZ2(self.dim, tuple(a ^ b for a, b in zip(self.bits, other.bits)))


def zero_cochain(Q, d, limit=None):
    return CochainZ2(d, (0,) * len(Q.faces(limit).get(d, [])))


def unit_cochain(Q, limit=None):
    return CochainZ2(0, (1,) * len(Q.faces(limit).get(0, [])))


def _positions(Q, faces):
    """Face -> its index in ``faces``; on an orbit complex, both faces of an
    orbit map to the orbit's index."""
    pos = {f: i for i, f in enumerate(faces)}
    if isinstance(Q, _OrbitComplex):
        pos.update({tuple(v ^ 1 for v in f): i for i, f in enumerate(faces)})
    return pos


def coboundary(Q, c, limit=None):
    faces = Q.faces(limit)
    pos = _positions(Q, faces.get(c.dim, []))
    bits = []
    for f in faces.get(c.dim + 1, []):
        total = 0
        for i in range(len(f)):
            total ^= c.bits[pos[f[:i] + f[i + 1:]]]
        bits.append(total)
    return CochainZ2(c.dim + 1, tuple(bits))


def cup_product(Q, a, b, limit=None):
    """Front-face/back-face product in the complex's fixed vertex order.
    Bilinear, and satisfies the mod-2 Leibniz rule with the coboundary."""
    faces = Q.faces(limit)
    d = a.dim + b.dim
    target = faces.get(d, [])
    if not target:
        return CochainZ2(d, ())
    pos_a = _positions(Q, faces.get(a.dim, []))
    pos_b = _positions(Q, faces.get(b.dim, []))
    p = a.dim
    bits = [a.bits[pos_a[f[: p + 1]]] & b.bits[pos_b[f[p:]]] for f in target]
    return CochainZ2(d, tuple(bits))


def is_coboundary(Q, c, limit=None):
    """Membership of a cochain in the image of the mod-2 coboundary."""
    if c.dim == 0:
        return c.is_zero
    faces = Q.faces(limit)
    lower = faces.get(c.dim - 1, [])
    upper = faces.get(c.dim, [])
    if len(upper) != len(c.bits):
        raise ValueError("cochain does not match the complex")
    pos = _positions(Q, lower)
    ones = []
    for r, f in enumerate(upper):
        for i in range(len(f)):
            ones.append((r, pos[f[:i] + f[i + 1:]]))
    return gf2.in_column_space(len(upper), len(lower), ones, c.bits)


def z2_height(K, t, limit=None):
    """Largest n with the n-th cup power of the cover's Stiefel-Whitney class
    nonzero in cohomology (iterated cup powers plus coboundary membership),
    computed on the orbit Delta-complex.  ``limit`` guards its faces, half
    as many as those of ``K``."""
    return _height(_orbit_complex(_orbit_labelled(K, t), limit))


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


def _height(Q):
    """Height on an orbit complex, capped at its top dimension: min(height, k)
    on the k-skeleton, as H^k of the whole injects into H^k of the skeleton."""
    faces = Q.faces()
    # orbit (a, b) lifts from sheet 0 of a's orbit to sheet b & 1 of b's
    w = CochainZ2(1, tuple(e[1] & 1 for e in faces.get(1, [])))
    top = max(faces, default=0)
    height = 0
    power = w
    for k in range(1, top + 1):
        if is_coboundary(Q, power):
            break
        height = k
        if k < top:
            power = cup_product(Q, power, w)
    return height


def pair_swap_involution(K):
    """The swap ``(A, B) -> (B, A)`` on the order complex of a linked-pair
    poset (vertices are the pair payloads)."""
    return Involution.from_label_map(K, {v: (v[1], v[0]) for v in K.vertices})


def pair_space_height(G, r, *, size_guard=200_000, limit=None):
    """Exact involution height of the order complex of the linked-pair poset
    at odd radius ``r`` under the swap, taken on the box complex under its
    sheet swap: it is Z2-homotopy equivalent to Hom(K2, G_r) (Csorba 2007),
    whose face poset is the linked-pair poset (Babson & Kozlov 2006).
    ``size_guard`` bounds its ball intersections, ``limit`` its orbit faces."""
    return _pair_height(G, r, size_guard, limit)


def _pair_height(G, r, size_guard, limit, upto=None):
    # (x, 1) follows (x, 0), so the sheet swap is v ^ 1; it is free and
    # simplicial once _require_free holds
    _require_free(G, r)
    return _height(_orbit_complex(box_complex(G, r, size_guard).facets, limit, upto))


# ---------------------------------------------------------------------------
# cheap height bounds and verdicts

def _require_free(G, r):
    if r < 1 or r % 2 == 0:
        raise FreenessError("radius must be a positive odd integer for a free pair swap")
    g0 = odd_girth(G)
    if not g0 > r:
        raise FreenessError(f"odd girth {g0} must exceed the radius {r}")
    return g0


@dataclass(frozen=True)
class HeightBound:
    kind: str  # "lower" | "upper" | "exact"
    value: int
    rule: str


@dataclass(frozen=True)
class HeightBounds:
    lower: int | None
    upper: int | None
    rules: tuple

    def to_json_obj(self):
        return {
            "lower": self.lower,
            "upper": self.upper,
            "rules": [
                {"kind": b.kind, "value": b.value, "rule": b.rule} for b in self.rules
            ],
        }


def height_bounds(G, r, *, odd_cycle_scan=15, budget=10_000_000):
    """Cheap bounds on the swap height of the linked-pair space at odd radius
    ``r``, without building its order complex.

    Rules: a sphere-sized exact value for tagged Kneser graphs whose
    parameters put the pair space on a sphere; the exact value ``r`` for the
    tagged (r+2)-cycle; the lower bound ``r`` whenever the odd girth is
    exactly ``r + 2``; and the upper bound 1 when the graph maps to some odd
    cycle longer than ``2r`` (scanned up to ``odd_cycle_scan``).
    """
    g0 = _require_free(G, r)
    rules = []
    tag = G.tag or ()
    if tag[:1] == ("kneser",):
        n, k = tag[1], tag[2]
        if n > 2 * k and (k - 1) % (n - 2 * k) == 0:
            rp = (k - 1) // (n - 2 * k)
            if r == 2 * rp + 1:
                rules.append(HeightBound("exact", comb(n, k) - 2, "kneser-sphere"))
    if tag[:1] == ("cycle",) and tag[1] == r + 2:
        rules.append(HeightBound("exact", r, "cycle-sphere"))
    if g0 == r + 2:
        rules.append(HeightBound("lower", r, "girth-sphere"))
    if not any(b.kind == "exact" for b in rules):
        for m in range(2 * r + 1, odd_cycle_scan + 1, 2):
            status = hom_search(G, make_cycle(m), budget).status
            if status == "found":
                rules.append(HeightBound("upper", 1, f"maps-to-odd-cycle-C{m}"))
            # every longer odd cycle maps onto C_m, so a map to one of them
            # would give a map to C_m; only a budget cut-off keeps scanning
            if status != "budget-exceeded":
                break
    lower, _ = _best_bound(rules, "lower")
    upper, _ = _best_bound(rules, "upper")
    return HeightBounds(lower, upper, tuple(rules))


def _best_bound(rules, kind):
    vals = [(b.value, b.rule) for b in rules if b.kind in (kind, "exact")]
    if not vals:
        return None, None
    if kind == "lower":
        return max(vals)
    return min(vals)


@dataclass(frozen=True)
class ObstructionReport:
    verdict: str  # "NO-MAP" | "INCONCLUSIVE"
    r: int
    lhs: dict  # {"bound": int | None, "rule": str | None}
    rhs: dict
    convention: str = "sup-height"

    def to_json_obj(self):
        return {
            "verdict": self.verdict,
            "r": self.r,
            "lhs": dict(self.lhs),
            "rhs": dict(self.rhs),
            "convention": self.convention,
        }


def obstruction_check(
    G,
    H,
    r,
    exact=False,
    *,
    budget=10_000_000,
    size_guard=200_000,
    limit=None,
    odd_cycle_scan=15,
):
    """Compare a height lower bound for the source against an upper bound for
    the target: NO-MAP when the source height provably exceeds the target's.

    With ``exact=True``, a side whose cheap rules produced no exact value gets
    the cup-power height of its pair space instead (subject to the size
    guards).  The target's comes first; only "source height > upper" decides
    the verdict, so the source's is computed up to ``upper + 1`` and reported
    as min(height, upper + 1), or not at all when its cheap lower bound
    already exceeds ``upper`` (that bound is reported).  Requires ``r`` odd
    and both odd girths above ``r``.
    """
    lb = height_bounds(G, r, odd_cycle_scan=odd_cycle_scan, budget=budget)
    ub = height_bounds(H, r, odd_cycle_scan=odd_cycle_scan, budget=budget)
    lower, lrule = _best_bound(lb.rules, "lower")
    upper, urule = _best_bound(ub.rules, "upper")
    # a cheap rule may only bound the height; exact mode replaces anything
    # short of an exact rule by the cup-power height, as far as it matters
    if exact and not any(b.kind == "exact" for b in ub.rules):
        upper = pair_space_height(H, r, size_guard=size_guard, limit=limit)
        urule = "cup-power-height"
    if exact and not any(b.kind == "exact" for b in lb.rules):
        # the source's height matters only up to upper + 1, and not at all
        # when a cheap lower bound already exceeds upper
        if lower is None or lower <= upper:
            lower = _pair_height(G, r, size_guard, limit, upper + 1)
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


@dataclass(frozen=True)
class KneserReport:
    verdict: str  # "NO-MAP" | "INCONCLUSIVE"
    rule: str | None
    detail: dict

    def to_json_obj(self):
        return {"verdict": self.verdict, "rule": self.rule, "detail": dict(self.detail)}


def kneser_certificate(n, k, G, *, odd_cycle_scan=15, budget=10_000_000):
    """Nonexistence certificate for maps out of the (n, k) Kneser graph when
    its pair space is a sphere (requires ``k - 1 = r(n - 2k)`` with integer
    ``r >= 1``): NO-MAP when the target has odd girth above ``2r + 1`` and
    either fewer vertices than the Kneser graph or a height upper bound below
    the sphere dimension."""
    if n <= 2 * k:
        raise ValueError("requires n > 2k")
    if (k - 1) % (n - 2 * k) != 0 or (k - 1) // (n - 2 * k) < 1:
        raise ValueError("k - 1 must be a positive integer multiple of n - 2k")
    r = (k - 1) // (n - 2 * k)
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
        hb = height_bounds(G, 2 * r + 1, odd_cycle_scan=odd_cycle_scan, budget=budget)
        if hb.upper is not None and hb.upper < sphere_dim:
            detail["height_upper"] = hb.upper
            return KneserReport("NO-MAP", "height-upper", detail)
    return KneserReport("INCONCLUSIVE", None, detail)
