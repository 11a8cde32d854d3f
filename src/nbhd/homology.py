"""Integral simplicial homology through exact Smith normal form, homological
connectivity, and edge-path group presentations with abelianization.

The Smith reduction runs on arbitrary-precision integers: a sparse pass
eliminates unit pivots in minimum-fill order from a lazy queue, which holds
every unit entry at its Markowitz cost and re-checks an entry only when it
is popped, and the textbook dense algorithm finishes the rest.  No modular
shortcuts, so torsion coefficients are exact.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, deque
from dataclasses import dataclass

from .complexes import neighborhood_complex
from .graphs import odd_girth

__all__ = [
    "BoundaryMatrix",
    "HomologyResult",
    "Presentation",
    "boundary_matrices",
    "smith_normal_form",
    "homology",
    "homology_connectivity",
    "edge_path_presentation",
    "abelianize",
    "h1_summand_certificate",
]


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """Matrix of one boundary operator: rows indexed by (d-1)-faces, columns
    by d-faces, entries +-1 under the sorted-vertex orientation."""

    dim: int
    n_rows: int
    n_cols: int
    entries: dict  # (row, col) -> +-1


def boundary_matrices(K, limit=None):
    """Boundary operators for d = 1..dim(K); the column for a d-face gets sign
    (-1)^i at the row dropping its i-th vertex (vertices sorted)."""
    faces = K.faces(limit)
    mats = []
    for d in range(1, len(faces)):
        rows = {f: i for i, f in enumerate(faces[d - 1])}
        entries = {}
        for c, f in enumerate(faces[d]):
            for i in range(len(f)):
                entries[(rows[f[:i] + f[i + 1:]], c)] = -1 if i % 2 else 1
        mats.append(BoundaryMatrix(d, len(faces[d - 1]), len(faces[d]), entries))
    return mats


# ---------------------------------------------------------------------------
# Smith normal form

def smith_normal_form(matrix, shape=None):
    """Invariant factors and rank of an integer matrix.

    Accepts a dense matrix as any sequence of rows, or a sparse
    ``{(i, j): value}`` dict with an explicit ``(rows, cols)`` shape.
    Returns ``(factors, rank)``: the factors are the nonzero diagonal
    entries, positive and divisibility-chained, so ``rank == len(factors)``.
    """
    if isinstance(matrix, dict):
        if shape is None:
            raise ValueError("sparse input needs an explicit shape")
        entries = matrix.items()
    else:
        dense = [list(r) for r in matrix]
        n = len(dense[0]) if dense else 0
        if any(len(r) != n for r in dense):
            raise ValueError("ragged matrix")
        entries = (((i, j), v) for i, r in enumerate(dense) for j, v in enumerate(r))
    factors = _snf_factors(entries)
    return tuple(factors), len(factors)


def _snf_factors(entries):
    rows = {}
    cols = {}
    for (i, j), v in entries:
        if v := int(v):
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
    # lazy minimum-fill queue of unit entries as (Markowitz cost, column, row),
    # checked only on pop: an entry that is gone or no longer a unit is
    # dropped, one whose cost has grown is queued again, any other is pivoted
    heap = [
        (_markowitz(rows, cols, i, j), j, i)
        for i, r in rows.items()
        for j, v in r.items()
        if v in (1, -1)
    ]
    heapq.heapify(heap)
    unit_count = 0
    while heap:
        cost, j, i = heapq.heappop(heap)
        if rows.get(i, {}).get(j) not in (1, -1):
            continue
        now = _markowitz(rows, cols, i, j)
        if now > cost:
            heapq.heappush(heap, (now, j, i))
            continue
        for ii, jj in _eliminate_unit(rows, cols, i, j):
            heapq.heappush(heap, (_markowitz(rows, cols, ii, jj), jj, ii))
        unit_count += 1
    dense_factors = []
    if rows:
        row_ids = sorted(rows)
        col_ids = sorted({j for r in rows.values() for j in r})
        cpos = {j: a for a, j in enumerate(col_ids)}
        dense = [[0] * len(col_ids) for _ in row_ids]
        for a, i in enumerate(row_ids):
            for j, v in rows[i].items():
                dense[a][cpos[j]] = v
        dense_factors = _snf_dense(dense)
    return [1] * unit_count + [f for f in dense_factors if f]


def _markowitz(rows, cols, i, j):
    return (len(rows[i]) - 1) * (len(cols[j]) - 1)


def _eliminate_unit(rows, cols, pi, pj):
    # returns the entries that have just become +-1
    piv_row = rows.pop(pi)
    v = piv_row.pop(pj)  # +-1
    col_rows = cols.pop(pj)
    col_rows.discard(pi)
    for jj in piv_row:
        s = cols[jj]
        s.discard(pi)
        if not s:
            del cols[jj]
    units = []
    for ii in col_rows:
        r = rows[ii]
        f = r.pop(pj) * v  # row_ii -= f * piv_row
        for jj, pv in piv_row.items():
            cur = r.get(jj)
            nv = (cur or 0) - f * pv
            if nv:
                if cur is None:
                    cols.setdefault(jj, set()).add(ii)
                r[jj] = nv
                if nv in (1, -1) and cur not in (1, -1):
                    units.append((ii, jj))
            elif cur is not None:
                del r[jj]
                s = cols[jj]
                s.discard(ii)
                if not s:
                    del cols[jj]
        if not r:
            del rows[ii]
    return units


def _snf_dense(a):
    """Textbook Smith reduction of a small dense block; returns the nonzero
    diagonal entries (absolute, divisibility-chained)."""
    m = len(a)
    n = len(a[0]) if m else 0
    factors = []
    t = 0
    while t < m and t < n:
        pi = pj = -1
        pv = 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                v = row[j]
                if v and (not pv or abs(v) < abs(pv)):
                    pi, pj, pv = i, j, v
        if not pv:
            break
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        while True:
            p = a[t][t]
            restart = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        at = a[t]
                        a[i] = [x - q * y for x, y in zip(a[i], at)]
                    if a[i][t]:
                        # remainder strictly smaller than |p|: promote it
                        a[t], a[i] = a[i], a[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // p
                    if q:
                        a[t][j] -= q * p  # column is clear below the pivot
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        restart = True
                        break
            if restart:
                continue
            p = a[t][t]
            bad = -1
            for i in range(t + 1, m):
                row = a[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        bad = i
                        break
                if bad >= 0:
                    break
            if bad < 0:
                break
            at = a[t]
            a[t] = [x + y for x, y in zip(at, a[bad])]
        factors.append(abs(a[t][t]))
        t += 1
    return factors


# ---------------------------------------------------------------------------
# homology

@dataclass(frozen=True)
class HomologyResult:
    """Per-dimension Betti numbers and torsion coefficients (invariant
    factors > 1, successively dividing)."""

    groups: tuple  # ((betti, torsion tuple), ...) for dims 0..dim

    def betti(self, d):
        return self.groups[d][0] if 0 <= d < len(self.groups) else 0

    def torsion(self, d):
        return self.groups[d][1] if 0 <= d < len(self.groups) else ()

    @property
    def betti_vector(self):
        return tuple(b for b, _ in self.groups)

    def to_json_obj(self):
        return [
            {"dim": d, "betti": b, "torsion": list(t)}
            for d, (b, t) in enumerate(self.groups)
        ]


def homology(K, limit=None):
    """Unreduced integral homology of ``K`` in every dimension 0..dim."""
    faces = K.faces(limit)
    if not faces:
        return HomologyResult(())
    top = max(faces)
    counts = [len(faces[d]) for d in range(top + 1)]
    rank = [0] * (top + 2)
    torsion = [()] * (top + 2)
    for mat in boundary_matrices(K, limit):
        factors, r = smith_normal_form(mat.entries, (mat.n_rows, mat.n_cols))
        rank[mat.dim] = r
        torsion[mat.dim] = tuple(f for f in factors if f > 1)
    groups = []
    for d in range(top + 1):
        groups.append((counts[d] - rank[d] - rank[d + 1], torsion[d + 1]))
    return HomologyResult(tuple(groups))


def homology_connectivity(K, limit=None):
    """Largest k such that reduced homology vanishes in all dimensions <= k.

    Returns -1 for a disconnected complex and ``math.inf`` when every reduced
    group up to dim(K) vanishes.  This is homological connectivity only; no
    fundamental-group check is attempted.
    """
    if not K.facets:
        raise ValueError("connectivity needs a nonempty complex")
    h = homology(K, limit)
    for d, (betti, tors) in enumerate(h.groups):
        reduced = betti - 1 if d == 0 else betti
        if reduced or tors:
            return d - 1
    return math.inf


# ---------------------------------------------------------------------------
# edge-path presentations

@dataclass(frozen=True)
class Presentation:
    """Group presentation read off a complex: one generator per non-tree edge
    of the 1-skeleton, one relator per triangle (tree edges drop out)."""

    generators: tuple  # names
    relators: tuple  # words: tuples of (generator index, exponent)

    def relator_strings(self):
        out = []
        for word in self.relators:
            out.append(
                "*".join(
                    self.generators[g] + ("" if e == 1 else f"^{e}")
                    for g, e in word
                )
                or "1"
            )
        return tuple(out)


def edge_path_presentation(K, v, limit=None):
    """Presentation of the edge-path group of the component of ``v``.

    A breadth-first spanning tree from ``v`` (vertex-index order) sends its
    edges to the identity; each remaining edge of the component is a
    generator and each triangle ``{a < b < c}`` gives the relator
    ``g(a,b) g(b,c) g(a,c)^-1``.
    """
    faces = K.faces(limit)
    root = K.index_of(v)
    edges = faces.get(1, [])
    adj = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for a in adj:
        adj[a].sort()
    seen = {root}
    tree = set()
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in adj.get(u, []):
            if w not in seen:
                seen.add(w)
                tree.add((min(u, w), max(u, w)))
                queue.append(w)
    gens = [e for e in edges if e[0] in seen and e not in tree]
    gen_index = {e: i for i, e in enumerate(gens)}
    names = tuple(f"g({K.vertices[a]},{K.vertices[b]})" for a, b in gens)
    relators = []
    for f in faces.get(2, []):
        if f[0] not in seen:
            continue
        a, b, c = f
        word = []
        for pair, exp in (((a, b), 1), ((b, c), 1), ((a, c), -1)):
            g = gen_index.get(pair)
            if g is not None:
                word.append((g, exp))
        if word:
            relators.append(tuple(word))
    return Presentation(names, tuple(relators))


def abelianize(pres):
    """Free rank and torsion of the abelianization: Smith form of the relator
    exponent matrix.  Matches H_1 of the complex the presentation came from."""
    g = len(pres.generators)
    if g == 0:
        return 0, ()
    entries = {}
    for ri, word in enumerate(pres.relators):
        for gi, e in word:
            entries[(ri, gi)] = entries.get((ri, gi), 0) + e
    entries = {k: v for k, v in entries.items() if v}
    factors, rank = smith_normal_form(entries, (len(pres.relators), g))
    return g - rank, tuple(f for f in factors if f > 1)


def h1_summand_certificate(G, max_radius, limit=None):
    """Radius-by-radius check that H_1 of the walk-neighborhood complex has a
    free summand (necessary for a map onto an odd cycle).  Bipartite inputs
    (odd girth infinite) are reported as not applicable and skipped."""
    g0 = odd_girth(G)
    if g0 == math.inf:
        return {"applicable": False, "odd_girth": "infinite", "radii": []}
    rows = []
    for i in range(1, max_radius + 1):
        h = homology(neighborhood_complex(G, i), limit)
        rank = h.betti(1)
        rows.append(
            {
                "radius": i,
                "h1_rank": rank,
                "h1_torsion": list(h.torsion(1)),
                "z_summand": rank >= 1,
            }
        )
    return {"applicable": True, "odd_girth": g0, "radii": rows}
