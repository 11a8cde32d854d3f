"""Free simplicial involutions, validated double covers, the first
Stiefel-Whitney cocycle, mod-2 cup products, involution height, and the
homomorphism obstruction verdicts built from cheap height bounds.

Height uses the sup convention: the largest n with the n-th cup power of the
cover's class nonzero (0 when the class itself is trivial).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from math import comb

from . import gf2
from .complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    order_complex,
    pair_poset,
    sorted_labels,
)
from .errors import FreenessError, QuotientStructureError
from .graphs import hom_search, make_cycle, odd_girth

__all__ = [
    "Involution",
    "FreenessReport",
    "DoubleCover",
    "CochainZ2",
    "check_free_involution",
    "quotient_complex",
    "w1_cocycle",
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


@dataclass(eq=False)
class DoubleCover:
    """A validated free double cover: total complex, quotient, orbit map,
    forest-based sheet assignment, and the per-edge monodromy bits."""

    total: SimplicialComplex
    quotient: SimplicialComplex
    involution: Involution
    orbit_to_quotient: tuple  # total vertex index -> quotient vertex index
    sheet: tuple  # total vertex index -> 0/1
    edge_bits: tuple  # monodromy bit per quotient 1-face (sorted order)
    subdivisions: int = 0


def quotient_complex(K, t, limit=None, max_subdivisions=2):
    """Quotient of a free simplicial involution.

    Validates that every quotient face has exactly two disjoint preimages
    swapped by the involution; on failure the total complex is barycentrically
    subdivided (with the induced involution) and the construction retried, at
    most ``max_subdivisions`` times.  The total complex's faces are never
    enumerated: ``limit`` bounds the faces of the quotient and, on a retry,
    the faces of the complex being subdivided and the facets of its
    subdivision.
    """
    report = check_free_involution(K, t)
    if not report:
        raise FreenessError(f"involution is not free: {report.reason} {report.witness!r}")
    for subdiv in range(max_subdivisions + 1):
        if subdiv:
            K, t = _subdivide_pair(K, t, limit)
        built = _build_quotient(K, t, limit, subdiv)
        if built is not None:
            return built
    raise QuotientStructureError(
        f"quotient validation still failing after {max_subdivisions} subdivisions"
    )


def _subdivide_pair(K, t, limit):
    sd = barycentric_subdivision(K, limit)
    idx_of = K.index_of
    mapping = {}
    for v in sd.vertices:  # v is a face of K as a label tuple
        face_idx = tuple(sorted(t.perm[idx_of(x)] for x in v))
        mapping[v] = K.face_labels(face_idx)
    return sd, Involution.from_label_map(sd, mapping)


def _build_quotient(K, t, limit, subdivisions):
    perm = t.perm
    # t is free, so faces s and u with one image and u not in {s, t(s)} share
    # a vertex a, and some b in s has t(b) in u: {a, b} and {a, t(b)} are both
    # edges.  Without such a pair each quotient face lifts to exactly f and
    # t(f), so the distinct facet images are the quotient's facets.  One
    # orientation suffices because t is simplicial.
    k_edges = {e for f in K.facets for e in itertools.combinations(f, 2)}
    if any(tuple(sorted((a, perm[b]))) in k_edges for a, b in k_edges):
        return None
    n = K.n_vertices
    orbit_label = [tuple(sorted_labels([K.vertices[i], K.vertices[perm[i]]]))
                   for i in range(n)]
    q_labels = sorted_labels(set(orbit_label))
    q_index = {lab: qi for qi, lab in enumerate(q_labels)}
    to_q = tuple(q_index[orbit_label[i]] for i in range(n))
    quotient = SimplicialComplex._from_indexed(
        q_labels, {tuple(sorted(to_q[i] for i in f)) for f in K.facets})

    members = {to_q[i]: sorted((i, perm[i])) for i in range(n)}
    q_edges = quotient.faces(limit).get(1, [])
    lifted = _monodromy_bits(k_edges, perm, members, q_edges, quotient.n_vertices)
    if lifted is None:
        return None
    lift, bits = lifted
    sheet = [0] * n
    for lv in lift.values():
        sheet[perm[lv]] = 1
    return DoubleCover(
        total=K,
        quotient=quotient,
        involution=t,
        orbit_to_quotient=to_q,
        sheet=tuple(sheet),
        edge_bits=tuple(bits),
        subdivisions=subdivisions,
    )


def _monodromy_bits(k_edges, perm, members, q_edges, n_q, forest=None):
    """Lift a spanning forest of the quotient 1-skeleton sheet-consistently
    and read off the monodromy bit of every quotient edge.  ``forest``
    restricts which edges the traversal may use (default: all)."""
    adj = {}
    for a, b in q_edges:
        if forest is None or (a, b) in forest:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    for v in adj:
        adj[v].sort()
    lift = {}
    for root in range(n_q):
        if root in lift:
            continue
        lift[root] = min(members[root])
        queue = deque([root])
        while queue:
            qa = queue.popleft()
            la = lift[qa]
            for qb in adj.get(qa, []):
                if qb in lift:
                    continue
                b1, b2 = members[qb]
                if tuple(sorted((la, b1))) in k_edges:
                    lift[qb] = b1
                elif tuple(sorted((la, b2))) in k_edges:
                    lift[qb] = b2
                else:
                    return None
                queue.append(qb)
    bits = []
    for a, b in q_edges:
        e0 = tuple(sorted((lift[a], lift[b])))
        if e0 in k_edges:
            bits.append(0)
        elif tuple(sorted((lift[a], perm[lift[b]]))) in k_edges:
            bits.append(1)
        else:
            return None
    return lift, bits


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


def w1_cocycle(cov, forest=None, limit=None):
    """Monodromy cocycle of the double cover.  With ``forest`` (an iterable of
    quotient edge index pairs) the lift uses that spanning forest instead of
    the breadth-first default; the class is the same either way."""
    if forest is None:
        return CochainZ2(1, cov.edge_bits)
    Q = cov.quotient
    q_edges = Q.faces(limit).get(1, [])
    forest = {tuple(sorted(e)) for e in forest}
    if not forest <= set(q_edges):
        raise ValueError("forest contains non-edges of the quotient")
    members = {}
    for i, q in enumerate(cov.orbit_to_quotient):
        members.setdefault(q, []).append(i)
    k_edges = set(cov.total.faces(limit).get(1, []))
    lifted = _monodromy_bits(
        k_edges, cov.involution.perm, members, q_edges, Q.n_vertices, forest=forest
    )
    if lifted is None:
        raise ValueError("forest is inconsistent with the cover")
    _, bits = lifted
    return CochainZ2(1, tuple(bits))


def coboundary(Q, c, limit=None):
    faces = Q.faces(limit)
    pos = {f: i for i, f in enumerate(faces.get(c.dim, []))}
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
    pos_a = {f: i for i, f in enumerate(faces.get(a.dim, []))}
    pos_b = {f: i for i, f in enumerate(faces.get(b.dim, []))}
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
    pos = {f: i for i, f in enumerate(lower)}
    ones = []
    for r, f in enumerate(upper):
        for i in range(len(f)):
            ones.append((r, pos[f[:i] + f[i + 1:]]))
    return gf2.in_column_space(len(upper), len(lower), ones, c.bits)


def z2_height(K, t, limit=None):
    """Largest n with the n-th cup power of the cover's Stiefel-Whitney class
    nonzero in cohomology (iterated cup powers plus coboundary membership).
    ``limit`` guards the quotient's faces, not those of ``K``, as in
    :func:`quotient_complex`."""
    cov = quotient_complex(K, t, limit)
    Q = cov.quotient
    w = CochainZ2(1, cov.edge_bits)
    top = Q.dim
    height = 0
    power = w
    for k in range(1, top + 1):
        if is_coboundary(Q, power, limit):
            break
        height = k
        if k < top:
            power = cup_product(Q, power, w, limit)
    return height


def pair_swap_involution(K):
    """The swap ``(A, B) -> (B, A)`` on the order complex of a linked-pair
    poset (vertices are the pair payloads)."""
    return Involution.from_label_map(K, {v: (v[1], v[0]) for v in K.vertices})


def pair_space_height(G, r, *, size_guard=200_000, limit=None):
    """Exact involution height of the order complex of the linked-pair poset
    at odd radius ``r`` under the swap."""
    _require_free(G, r)
    K = order_complex(pair_poset(G, r, size_guard), limit)
    return z2_height(K, pair_swap_involution(K), limit)


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
            if hom_search(G, make_cycle(m), budget).found:
                rules.append(HeightBound("upper", 1, f"maps-to-odd-cycle-C{m}"))
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
    the true cup-power height of its pair space instead (subject to the size
    guards).  Requires ``r`` odd and both odd girths above ``r``.
    """
    lb = height_bounds(G, r, odd_cycle_scan=odd_cycle_scan, budget=budget)
    ub = height_bounds(H, r, odd_cycle_scan=odd_cycle_scan, budget=budget)
    lower, lrule = _best_bound(lb.rules, "lower")
    upper, urule = _best_bound(ub.rules, "upper")
    # a cheap rule may only bound the height; exact mode replaces anything
    # short of an exact rule by the true cup-power height
    if exact and not any(b.kind == "exact" for b in lb.rules):
        lower = pair_space_height(G, r, size_guard=size_guard, limit=limit)
        lrule = "cup-power-height"
    if exact and not any(b.kind == "exact" for b in ub.rules):
        upper = pair_space_height(H, r, size_guard=size_guard, limit=limit)
        urule = "cup-power-height"
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
