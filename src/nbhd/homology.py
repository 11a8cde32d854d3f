"""Integral simplicial homology through exact Smith normal form, homological
connectivity, and edge-path group presentations with abelianization.

The Smith reduction runs on arbitrary-precision integers.  Free rows go
first, from a queue: a row holding a single +-1 is a pivot that only deletes
its column, and a row left single is queued in turn.  A sparse unit pass
then takes the shortest column from a queue keyed by column length and, in
it, the shortest row holding a +-1; only the columns an elimination touched
are queued again, and a column with no unit waits until one does.  A
non-unit pass reduces what is left in the same rows and columns, with the
same row operation.  No modular shortcuts: torsion coefficients are exact.

``homology`` reduces the boundary matrices from the top dimension down and
clears as it goes (Kaczynski, Mrozek & Slusarek 1998; Chen & Kerber 2011).  A
unit pivot at (row s, column t) of the boundary of dimension d + 1 is an
elementary reduction over Z: s plus a combination of the d-faces not yet
paired is a boundary, so the boundary of s lies in the span of those faces'
boundaries.  Column s of the boundary of dimension d is therefore never
built: that matrix is assembled once, into the reduction's rows and columns,
after the one above is reduced, and its image, and with it its rank and
invariant factors, stay the same.  Pivots of the non-unit pass are not units
and clear nothing.  The boundary of dimension 1 is a graph's incidence
matrix, ranked by a union-find with no arithmetic.

The boundary of a simplex, the paper's Kneser and cycle spheres among them,
is answered from its facets, and none of its faces is read (``homology``).
In any other complex, every edge ab that meets the link condition
lk(a) & lk(b) = lk(ab) is contracted first, which keeps the homotopy type
(``_contracted``); it reads no face, so a cycle-like complex shrinks to a
few facets: N_7(C17) from 17 to 7.  The complex left is reduced on its
faces, or on the order complex of L, the nonempty intersections of its
facets ordered by inclusion, when that has fewer faces: the two are
homotopy equivalent by the nerve and crosscut theorems (Bjorner 1995), so
the groups are the same, and the Betti vector is padded to the complex's
dimension.  On Kneser complexes L is tiny: N_1(K(9,4)) has 3,402 faces and
its L 252 elements and 882 chains.  L meets each element only with the
facets sharing a vertex with it, and the counts that choose come from one
pass over L, with no face read (``_levels``).  The order complex of a
linked-pair poset of G at radius r has the homotopy type of N_r(G) (see
``homology``), so that complex is reduced in its place and no chain is listed.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, islice

from .complexes import (DEFAULT_FACE_LIMIT, SimplicialComplex, _above, _bits, _chains, _closure,
                        _face_levels, _integers, _sizes, neighborhood_complex)
from .graphs import odd_girth

__all__ = [
    "HomologyResult",
    "Presentation",
    "smith_normal_form",
    "homology",
    "homology_connectivity",
    "edge_path_presentation",
    "abelianize",
    "h1_summand_certificate",
]


def _boundary(faces, d, cleared=()):
    # the boundary of dimension d without the cleared columns, as the
    # reduction's rows {row: {col: +-1}} and columns {col: {rows}}
    index = {f: i for i, f in enumerate(faces[d - 1])}
    # combinations drop the last vertex first: the k-th drops vertex d - k
    signs = [-1 if (d - k) % 2 else 1 for k in range(d + 1)]
    rows = [{} for _ in faces[d - 1]]
    cols = {}
    for c, f in enumerate(faces[d]):
        if c not in cleared:
            rs = list(map(index.__getitem__, combinations(f, d)))
            cols[c] = set(rs)
            for s, r in zip(signs, rs):
                rows[r][c] = s
    return {i: r for i, r in enumerate(rows) if r}, cols


# ---------------------------------------------------------------------------
# Smith normal form

def smith_normal_form(matrix, shape=None):
    """Invariant factors and rank of an integer matrix.

    Accepts a dense matrix as any sequence of rows, or a sparse
    ``{(i, j): value}`` dict with an explicit ``(rows, cols)`` shape.  A
    non-integer index or value, or an index outside the shape, raises
    ``ValueError``.
    Returns ``(factors, rank)``: the factors are the nonzero diagonal
    entries, positive and divisibility-chained, so ``rank == len(factors)``.
    """
    if isinstance(matrix, dict):
        if shape is None:
            raise ValueError("sparse input needs an explicit shape")
        m, n = shape
        entries = matrix.items()
    else:
        dense = [list(r) for r in matrix]
        m, n = len(dense), len(dense[0]) if dense else 0
        if any(len(r) != n for r in dense):
            raise ValueError("ragged matrix")
        entries = (((i, j), v) for i, r in enumerate(dense) for j, v in enumerate(r))
    rows, cols = {}, {}
    for (i, j), v in entries:
        i, j, v = _integers((i, j, v))
        if not (0 <= i < m and 0 <= j < n):
            raise ValueError(f"entry at {(i, j)} lies outside the shape {(m, n)}")
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
    factors = _snf_factors(rows, cols, set())
    return tuple(factors), len(factors)


def _snf_factors(rows, cols, pivot_rows):
    # invariant factors of rows {row: {col: value}} and columns {col: {rows}},
    # reduced in place; the row of every unit pivot, free rows included, goes
    # into pivot_rows, the non-unit pass's rows do not.  Free rows first: a
    # row's single +-1 clears its column by deletion alone; a row left single
    # is queued, a single non-unit stays.
    queue = deque(i for i, r in rows.items() if len(r) == 1)
    unit_count = 0
    while queue:
        i = queue.popleft()
        if len(r := rows.get(i, ())) != 1:
            continue
        ((j, v),) = r.items()
        if v != 1 and v != -1:
            continue
        for ii in cols.pop(j):
            rr = rows[ii]
            del rr[j]
            if len(rr) == 1:
                queue.append(ii)
            elif not rr:
                del rows[ii]
        pivot_rows.add(i)
        unit_count += 1
    # then a queue of columns by length, ties by index: the shortest column
    # is pivoted on its shortest row holding a +-1 (ties by index).  Only the
    # pivot row's columns change, so only they are queued again, and an entry
    # whose length no longer matches its column's is stale.  A column with no
    # unit leaves the queue until an elimination touches it.
    heap = [(len(s), j) for j, s in cols.items()]
    heapq.heapify(heap)
    while heap:
        n, j = heapq.heappop(heap)
        col = cols.get(j)
        if col is None or len(col) != n:
            continue
        units = [(len(rows[i]), i) for i in col if rows[i][j] in (1, -1)]
        if not units:
            continue
        i = min(units)[1]
        touched = rows[i].keys() - {j}
        _eliminate_unit(rows, cols, i, j)
        for jj in touched:
            if jj in cols:
                heapq.heappush(heap, (len(cols[jj]), jj))
        pivot_rows.add(i)
        unit_count += 1
    return [1] * unit_count + _non_unit_pass(rows, cols)


def _eliminate_unit(rows, cols, pi, pj):
    piv_row = rows.pop(pi)
    v = piv_row.pop(pj)  # +-1
    col_rows = cols.pop(pj)
    col_rows.discard(pi)
    for jj in piv_row:
        s = cols[jj]
        s.discard(pi)
        if not s:
            del cols[jj]
    for ii in col_rows:
        _add_row(rows, cols, ii, piv_row, rows[ii].pop(pj) * v)


def _add_row(rows, cols, ii, src, f):
    # row ii -= f * src, with cols kept in step; an emptied row is dropped
    r = rows[ii]
    for jj, pv in src.items():
        cur = r.get(jj)
        nv = (cur or 0) - f * pv
        if nv:
            if cur is None:
                cols.setdefault(jj, set()).add(ii)
            r[jj] = nv
        elif cur is not None:
            del r[jj]
            s = cols[jj]
            s.discard(ii)
            if not s:
                del cols[jj]
    if not r:
        del rows[ii]


def _non_unit_pass(rows, cols):
    """Invariant factors of what the unit pass leaves, reduced in place.

    The pivot is an entry of least absolute value.  Row operations clear its
    column first; only then is its row reduced modulo the pivot, by column
    operations that touch no other row.  A remainder is smaller than the
    pivot and becomes the next one, so the loop ends.  The gcd/lcm pass
    chains the diagonal it leaves.
    """
    factors = []
    while rows:
        _, pi, pj = min((abs(v), i, j) for i, r in rows.items() for j, v in r.items())
        while True:
            p = rows[pi][pj]
            for ii in sorted(cols[pj] - {pi}):
                if q := rows[ii][pj] // p:
                    _add_row(rows, cols, ii, rows[pi], q)
            rest = cols[pj] - {pi}
            if rest:
                pi = min(rest, key=lambda ii: (abs(rows[ii][pj]), ii))
                continue
            row = rows[pi]
            _add_row(rows, cols, pi, {x: v - v % p for x, v in row.items() if x != pj}, 1)
            if len(row) == 1:
                break
            pj = min((x for x in row if x != pj), key=lambda x: (abs(row[x]), x))
        del rows[pi], cols[pj]
        factors.append(abs(p))
    for a in range(len(factors)):
        for b in range(a + 1, len(factors)):
            g = math.gcd(factors[a], factors[b])
            factors[a], factors[b] = g, factors[a] * factors[b] // g
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
    """Unreduced integral homology of ``K`` in every dimension 0..dim, with
    the boundary matrices reduced from the top down and the columns that a
    unit pivot one dimension up already paired cleared; the boundary of
    dimension 1 is ranked by a union-find.  A complex with n facets of n - 1
    vertices each on n vertices is the boundary of a simplex, S^(n-2), and is
    answered with no face read and no matrix reduced, whatever ``limit``:
    N_3(Petersen), N_5(K(7,3)) = S^33, N_7(K(9,4)) = S^124 and N_(m-2)(C_m)
    for odd m.  Any other ``K`` is first contracted along every edge that
    meets the link condition (``_contracted``), then the complex left is
    reduced on its faces, or on the chains of its facet-intersection lattice
    when those are fewer (``_levels``); ``limit`` bounds the faces or chains
    of the complex actually reduced.

    The order complex of ``pair_poset(G, r)`` is reduced as
    N_r(G) = ``neighborhood_complex(G, r)``, through the same check,
    contraction and choice and under the same ``limit``, and its chains are
    never listed.  Exactly:
    let H be the graph on G's vertices with x ~ y iff y is an exact-r walk
    from x, loops included (x ~ x when a closed walk of length r starts at
    x).  The faces of N_r(G) are the vertex sets with a common H-neighbour,
    and the linked pairs are the (A, B), both nonempty, with every member of
    B an H-neighbour of every member of A, the face poset of Hom(K2, H).
    Then the order complex of the pairs is homotopy equivalent to N_r(G)
    (Babson & Kozlov 2006; Lovasz 1978), loops in H included: by Quillen's
    fiber lemma for (A, B) -> A, since over a face s with common neighbours
    C, the pairs with A inside s are contracted by the comparable maps
    (A, B) <= (A, B | C) >= (A, C) <= (s, C), none of which needs A and B
    disjoint.  The Betti vector is padded with zero groups to the pair
    space's dimension, max(|A| + |B|) - 2."""
    G, r, dim = K._pairs or (None, None, K.dim)
    K = neighborhood_complex(G, r) if K._pairs else K
    n = len(K.facets)
    # n distinct facets of n - 1 of the n vertices: the boundary of a simplex
    if n > 1 and all(len(f) == n - 1 for f in K.facets) and len(set().union(*K.facets)) == n:
        return HomologyResult(tuple(((i == 0) + (i == n - 2), ()) for i in range(dim + 1)))
    return _level_homology(_levels(_contracted(K), limit), dim + 1)


def _level_homology(levels, width):
    # the homology of the complex whose faces by dimension are levels, with
    # zero groups up to width dimensions
    top = len(levels) - 1
    rank = [0] * (top + 2)
    torsion = [()] * (top + 2)
    paired = set()  # rows of the unit pivots of the matrix one dimension up
    for d in range(top, 1, -1):
        rows, cols = _boundary(levels, d, paired)
        paired = set()
        factors = _snf_factors(rows, cols, paired)
        rank[d], torsion[d] = len(factors), tuple(f for f in factors if f > 1)
    if top > 0:
        rank[1] = _forest_rank(e for c, e in enumerate(levels[1]) if c not in paired)
    groups = tuple((len(levels[d]) - rank[d] - rank[d + 1], torsion[d + 1])
                   for d in range(top + 1))
    return HomologyResult(groups + ((0, ()),) * (width - len(groups)))


def _forest_rank(edges):
    # every column of a boundary of dimension 1 is an edge, a pair of
    # vertices; the rank of such a matrix is the merges a union-find makes
    # over its edges, and its invariant factors are all 1
    parent, merges = {}, 0
    for a, b in edges:
        while a in parent:  # path halving
            parent[a] = a = parent.get(parent[a], parent[a])
        while b in parent:
            parent[b] = b = parent.get(parent[b], parent[b])
        if a != b:
            parent[a] = b
            merges += 1
    return merges


def _contracted(K):
    """``K`` with edges contracted, one at a time, while one meets the link
    condition lk(a) & lk(b) = lk(ab); ``K`` itself when none does.

    Theorem (Dey, Edelsbrunner, Guha & Nekhayev 1999, "Topology preserving
    edge contraction"; Attali, Lieutier & Salinas 2012, "Efficient data
    structure for representing and simplifying simplicial complexes in high
    dimensions"): if the edge ab of K meets the link condition, the
    simplicial map that sends b to a and fixes every other vertex is a
    homotopy equivalence onto its image K/ab = (K - st b) + a * lk b, so the
    groups are the same.  Proof: glue the cone C = a * b * lk b to K.  A
    face of C is tau, b + tau, a + tau or a + b + tau for tau in lk b, and
    a + tau in K puts tau in lk a & lk b = lk ab, so a + b + tau is in K
    too: C meets K in the closed star b * lk b, a cone.  Gluing a
    contractible complex along a contractible subcomplex keeps the homotopy
    type, and K + C collapses onto K/ab, each b + tau (a not in tau) going
    with a + b + tau from the top dimension down.

    On facets: lk a & lk b = lk ab iff for all facets F holding a and F'
    holding b, (F & F') + a + b lies in a facet holding both, which needs
    checking only when F misses b and F' misses a.  The union of those
    intersections is star(a) & star(b), the vertices of the facets holding
    a meeting those of the facets holding b, so star(a) & star(b) = the
    vertices of the facets holding both is necessary and is tried first (if
    one facet holding a holds b, it fails once the stars share more vertices
    than the largest facet has); then the pairs that meet
    (``_link_condition``), none when every facet holding one end holds the
    other.  To contract b into a, every facet holding b loses b and gains a,
    and a facet now inside another, which only a facet holding a can be, is
    dropped (``_merge``); an end that every facet of the other holds is the
    one that goes.  An edge is tried again only once a facet holding either
    end has changed."""
    n, facets = K.n_vertices, [sum(1 << v for v in f) for f in K.facets]  # 0 once dropped
    star = [set() for _ in range(n)]  # the facets holding each vertex
    unions = [0] * n  # the vertices of each star
    for j, f in enumerate(K.facets):
        for v in f:
            star[v].add(j)
            unions[v] |= facets[j]
    big = K.dim + 1  # no merged facet is larger
    # done: the vertices whose edges were all tried since they last changed;
    # dirty: those changed since, whose edges are all tried again.  A pass
    # over a vertex's edges goes on after a merge that keeps it, on the
    # complex as it now is, and the vertex comes round again
    queue, done, dirty = deque(range(n)), 0, 0
    queued, merged = [True] * n, False
    while queue:
        a = queue.popleft()
        queued[a] = False
        test = unions[a] & ~(1 << a) & (-1 if dirty >> a & 1 else ~done)
        done, dirty = done | 1 << a, dirty & ~(1 << a)
        ua, once, twice = unions[a], 0, 0
        for j in star[a]:  # twice: the vertices in two or more facets holding a
            twice |= once & facets[j]
            once |= facets[j]
        for b in _bits(test):
            if not twice >> b & 1 and (ua & unions[b]).bit_count() > big:
                continue  # b lies in one facet holding a, which is smaller
            both = star[a] & star[b]  # empty once b is merged away
            if not both:
                continue
            uab = reduce(operator.or_, map(facets.__getitem__, both))  # their vertices
            if ua & unions[b] == uab and _link_condition(facets, star, a, b, both, uab):
                keep, gone = (b, a) if star[a] <= star[b] else (a, b)  # a dominated end goes
                touched = _merge(facets, star, keep, gone)
                done, dirty, merged = done & ~touched, dirty | touched, True
                # the facets that held gone hold keep, and a dropped facet's
                # vertices lie in a facet kept: stars lose gone, gain keep
                unions[keep] |= unions[gone]
                for v in _bits(touched):
                    unions[v] = unions[v] & ~(1 << gone) | 1 << keep
                    if not queued[v]:
                        queue.append(v)
                        queued[v] = True
                unions[gone] = 0
                if gone == a:
                    break
                ua, twice = unions[a], -1  # the later ends are tried in full
    if not merged:
        return K
    kept = [v for v in range(n) if star[v]]
    new = {v: i for i, v in enumerate(kept)}
    return SimplicialComplex._from_indexed([K.vertices[v] for v in kept],
                                           [[new[v] for v in _bits(f)] for f in facets if f])


def _link_condition(facets, star, a, b, both, uab):
    # whether the edge ab meets the link condition once star(a) & star(b) is
    # uab, the vertices of ``both``, the facets holding a and b: F & F', which
    # lies in uab, lies in a facet of ``both`` for F holding a alone, F' b alone
    return all(any(x & facets[k] == x for k in both)
               for i in star[a] - both for f in [facets[i] & uab ^ 1 << a] if f
               for j in star[b] - both for x in [f & facets[j]] if x)


def _merge(facets, star, a, b):
    # contracts b into a in place and returns the vertices of the facets
    # changed or dropped, as a mask.  A facet now inside another holds a: it
    # changed, or it lies in a changed facet and so holds a vertex of that
    # facet other than a and b (touched holds a, as a facet held both)
    touched = 0
    for j in star[b]:
        touched |= facets[j]
        facets[j] = facets[j] ^ 1 << b | 1 << a
    star[a] |= star[b]
    near = star[b].union(*map(star.__getitem__, _bits(touched ^ 1 << a)))
    star[b] = set()
    for j in near & star[a]:
        f = facets[j]
        if len(set.intersection(*map(star.__getitem__, _bits(f)))) > 1:  # another holds f
            touched |= f
            for v in _bits(f):
                star[v].discard(j)
            facets[j] = 0
    return touched


def _levels(K, limit):
    """The faces of ``K`` by dimension, or the chains of L, the nonempty
    intersections of its facets ordered by inclusion, when those are fewer:
    the order complex of L is homotopy equivalent to ``K`` by the nerve and
    crosscut theorems (Bjorner 1995, Handbook of Combinatorics, section 10),
    and no higher in dimension.

    The choice reads no face.  L is closed one element at a time, each met
    with the facets sharing a vertex (``_closure``), which bounds its chains
    from below, and only while that bound stays within ``limit`` and within
    two bounds on the faces from above, 2^n - 1 for n vertices and the sum
    of 2^|f| - 1 over the facets f.  A closed L, with the elements above
    each (``_above``), counts its chains and the complex's faces exactly
    (``_sizes``), and the smaller model within ``limit`` is reduced; the
    faces otherwise, read once under the face guard, which trips past
    ``limit``.  When the chains are reduced, ``K``'s face cache stays
    empty."""
    cap = DEFAULT_FACE_LIMIT if limit is None else limit
    most = min(cap, (1 << K.n_vertices) - 1, sum((1 << len(f)) - 1 for f in K.facets))
    found = set()
    if all(bound <= most for bound in _closure(K.facets, found)):
        lattice = sorted(sorted(found), key=int.bit_count)  # by size, then by mask
        above = _above(lattice)
        chains, faces = _sizes(lattice, above)
        if chains < faces and chains <= cap:
            return _chains(above)
    return list(K.faces(limit).values())


def homology_connectivity(K, limit=None):
    """Largest k such that reduced homology vanishes in all dimensions <= k.

    Returns -1 for a disconnected complex and ``math.inf`` when every reduced
    group up to dim(K) vanishes.  This is homological connectivity only; no
    fundamental-group check is attempted.
    """
    h = homology(K, limit)
    if not h.groups:
        raise ValueError("connectivity needs a nonempty complex")
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
        return tuple("*".join(self.generators[g] + ("" if e == 1 else f"^{e}") for g, e in word)
                     or "1" for word in self.relators)


def edge_path_presentation(K, v, limit=None):
    """Presentation of the edge-path group of the component of ``v``.

    A breadth-first spanning tree from ``v`` (vertex-index order) sends its
    edges to the identity; each remaining edge of the component is a
    generator and each triangle ``{a < b < c}`` gives the relator
    ``g(a,b) g(b,c) g(a,c)^-1``.  Only the 2-skeleton is read, and ``limit``
    bounds its faces; ``K``'s face cache is left as it is.
    """
    faces = dict(enumerate(islice(_face_levels(
        K.facets, range(K.n_vertices), limit, "face enumeration"), 3)))
    root = K.index_of(v)
    edges = faces.get(1, [])
    adj = defaultdict(list)
    for a, b in edges:  # in lexicographic order, so each list comes sorted
        adj[a].append(b)
        adj[b].append(a)
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
    entries = {}
    for ri, word in enumerate(pres.relators):
        for gi, e in word:
            entries[(ri, gi)] = entries.get((ri, gi), 0) + e
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
