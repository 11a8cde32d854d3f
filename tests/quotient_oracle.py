"""Reference oracle: swap heights through a simplicial quotient.

The quotient of a free involution is validated to have exactly two disjoint
preimages per face; when it does not, the total complex is barycentrically
subdivided (with the induced involution) and the construction retried.  The
monodromy bits of a spanning-forest lift give the Stiefel-Whitney cocycle,
whose cup powers are tested on the quotient with this module's own mod-2
cochain functions.  The library computes the same heights on the orbit
Delta-complex instead; the tests compare the two.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from nbhd import (
    FreenessError,
    Involution,
    SimplicialComplex,
    check_free_involution,
    order_complex,
)
from nbhd import gf2
from nbhd.complexes import sorted_labels
from conftest import checked_poset


# ---------------------------------------------------------------------------
# mod-2 cochains on a simplicial complex

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


def _positions(faces):
    return {f: i for i, f in enumerate(faces)}


def coboundary(Q, c, limit=None):
    faces = Q.faces(limit)
    pos = _positions(faces.get(c.dim, []))
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
    pos_a = _positions(faces.get(a.dim, []))
    pos_b = _positions(faces.get(b.dim, []))
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
    pos = _positions(lower)
    cols = [set() for _ in lower]
    for r, f in enumerate(upper):
        for i in range(len(f)):
            cols[pos[f[:i] + f[i + 1:]]].add(r)
    return gf2.in_column_space(cols, {r for r, b in enumerate(c.bits) if b}, set())


class QuotientStructureError(RuntimeError):
    """Quotient validation failed even after barycentric subdivision."""


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


def face_poset(K, limit=None):
    """All nonempty faces of ``K`` ordered by inclusion (payloads are label
    tuples)."""
    faces = K.faces(limit)
    elems = []
    pos = {}
    for d in sorted(faces):
        for f in faces[d]:
            pos[f] = len(elems)
            elems.append(K.face_labels(f))
    covers = []
    for d in sorted(faces):
        if d == 0:
            continue
        for f in faces[d]:
            fi = pos[f]
            for i in range(len(f)):
                covers.append((pos[f[:i] + f[i + 1:]], fi))
    return checked_poset(elems, covers)


def barycentric_subdivision(K, limit=None):
    """Order complex of the face poset; vertices are the faces of ``K``."""
    return order_complex(face_poset(K, limit), limit)


def quotient_complex(K, t, limit=None, max_subdivisions=2):
    """Quotient of a free simplicial involution, subdividing and retrying at
    most ``max_subdivisions`` times.  ``limit`` bounds the faces of the
    quotient and, on a retry, the faces of the complex being subdivided and
    the facets of its subdivision."""
    report = check_free_involution(K, t)
    if not report:
        raise FreenessError(f"involution is not free: {report.reason} {report.witness!r}")
    for subdiv in range(max_subdivisions + 1):
        if subdiv:
            K, t = subdivide_pair(K, t, limit)
        built = build_quotient(K, t, limit, subdiv)
        if built is not None:
            return built
    raise QuotientStructureError(
        f"quotient validation still failing after {max_subdivisions} subdivisions"
    )


def subdivide_pair(K, t, limit):
    sd = barycentric_subdivision(K, limit)
    idx_of = K.index_of
    mapping = {}
    for v in sd.vertices:  # v is a face of K as a label tuple
        face_idx = tuple(sorted(t.perm[idx_of(x)] for x in v))
        mapping[v] = K.face_labels(face_idx)
    return sd, Involution.from_label_map(sd, mapping)


def build_quotient(K, t, limit, subdivisions):
    """The quotient and its monodromy bits, or None when some quotient face
    has other preimages than f and t(f)."""
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
    lifted = monodromy_bits(k_edges, perm, members, q_edges, quotient.n_vertices)
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


def monodromy_bits(k_edges, perm, members, q_edges, n_q, forest=None):
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
    lifted = monodromy_bits(
        k_edges, cov.involution.perm, members, q_edges, Q.n_vertices, forest=forest
    )
    if lifted is None:
        raise ValueError("forest is inconsistent with the cover")
    _, bits = lifted
    return CochainZ2(1, tuple(bits))


def reference_height(K, t, limit=None):
    """Largest n with the n-th cup power of w1 nonzero on the quotient."""
    cov = quotient_complex(K, t, limit)
    Q = cov.quotient
    w = w1_cocycle(cov)
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
