"""Reference oracle: link-condition contraction and the facet-intersection
lattice as they were built before they met only the facets that touch.

``_contracted`` read every edge's star test from a set intersection,
``_link_condition`` paired every facet holding one end alone with every
facet holding the other alone, ``_closure`` met every element of the
lattice with every facet, and ``_above`` read each element's holders as an
AND of per-vertex masks as wide as the lattice.  The code is kept verbatim;
the tests compare the contracted complexes, the lattices and the holders.
"""

from __future__ import annotations

import operator
from collections import deque
from functools import reduce

from nbhd.complexes import SimplicialComplex, _bits


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
    vertices of the facets holding both is necessary and is tried first;
    then the pairs (``_link_condition``), of which there are none when
    every facet holding one end holds the other.  To contract b into a,
    every facet holding b loses b and gains a, and a facet now inside
    another, which only a facet holding a can be, is dropped (``_merge``);
    an end that every facet of the other holds is the one that goes.  An
    edge is tried again only once a facet holding either end has changed."""
    facets = [sum(1 << v for v in f) for f in K.facets]  # 0 once dropped
    star = [set() for _ in range(K.n_vertices)]  # the facets holding each vertex
    unions = [0] * K.n_vertices  # the vertices of each star
    for j, f in enumerate(K.facets):
        for v in f:
            star[v].add(j)
            unions[v] |= facets[j]
    # done: the vertices whose edges were all tried since they last changed;
    # dirty: those changed since, whose edges are all tried again.  A pass
    # over a vertex's edges goes on after a merge that keeps it, on the
    # complex as it now is, and the vertex comes round again
    queue, done, dirty = deque(range(K.n_vertices)), 0, 0
    queued, merged = [True] * K.n_vertices, False
    while queue:
        a = queue.popleft()
        queued[a] = False
        test = unions[a] & ~(1 << a) & (-1 if dirty >> a & 1 else ~done)
        done, dirty = done | 1 << a, dirty & ~(1 << a)
        sa, ua = star[a], unions[a]
        for b in _bits(test):
            both = sa & star[b]  # empty once b is merged away
            if not both:
                continue
            if len(both) == 1:  # uab: the vertices of the facets holding both ends
                (j,) = both
                uab = facets[j]
            else:
                uab = reduce(operator.or_, map(facets.__getitem__, both))
            if ua & unions[b] == uab and _link_condition(facets, star, a, b, both):
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
                ua = unions[a]
    if not merged:
        return K
    kept = [v for v in range(K.n_vertices) if star[v]]
    new = {v: i for i, v in enumerate(kept)}
    return SimplicialComplex._from_indexed([K.vertices[v] for v in kept],
                                           [[new[v] for v in _bits(f)] for f in facets if f])


def _link_condition(facets, star, a, b, both):
    # whether the edge ab meets the link condition once star(a) & star(b) is
    # the vertices of ``both``, the facets holding a and b, with facets[j]
    # facet j's vertex mask and star[v] the facets holding v: (F & F') + a + b
    # lies in a facet of ``both`` for each F holding a alone and F' holding b
    # alone (see ``_contracted``)
    ends = 1 << a | 1 << b
    return all(any(x & facets[k] == x for k in both)
               for i in star[a] - both for j in star[b] - both
               for x in [facets[i] & facets[j] | ends])


def _merge(facets, star, a, b):
    # contracts b into a in place and returns the vertices of the facets
    # changed or dropped, as a mask.  A facet now inside another holds a: it
    # changed, or it lies in a changed facet and so holds a vertex of that
    # facet other than a and b
    touched = 0
    for j in star[b]:
        touched |= facets[j]
        facets[j] = facets[j] & ~(1 << b) | 1 << a
    star[a] |= star[b]
    near = star[b].union(*map(star.__getitem__, _bits(touched & ~(1 << a | 1 << b))))
    star[b] = set()
    for j in near & star[a]:
        f = facets[j]
        fewest = min(map(star.__getitem__, _bits(f)), key=len)  # holds every facet holding f
        if any(k != j and facets[k] & f == f for k in fewest):
            touched |= f
            for v in _bits(f):
                star[v].discard(j)
            facets[j] = 0
    return touched


def _closure(spans, found):
    # closes found, the spans, under intersection with the spans, one
    # element at a time, and after each yields a lower bound on the chains
    # of the closure.  An element first made in round k is the least of a
    # chain of k + 1 elements, so at least 2^k chains start at it
    bound, weight, frontier = len(found), 1, spans
    while frontier:
        weight, made, frontier = weight * 2, frontier, []
        for i, a in enumerate(made):
            # the first round meets each pair of facets once
            fresh = {a & s for s in (spans[i + 1:] if made is spans else spans)} - found
            fresh.discard(0)
            if fresh:
                found |= fresh
                bound += weight * len(fresh)
                # a vertex meets each facet in itself or nothing
                frontier += (x for x in fresh if x & (x - 1))
                yield bound


def _above(lattice, n):
    # for each element of the lattice, sorted by size, the elements after it
    # that strictly hold it, as a bit mask over their indices: an AND of
    # per-vertex masks, made one at a time (bits read inline, for speed)
    holding = [0] * n
    for i, x in enumerate(lattice):
        while x:
            low = x & -x
            holding[low.bit_length() - 1] |= 1 << i
            x ^= low
    for i, x in enumerate(lattice):
        a = -1
        while x:
            low = x & -x
            a &= holding[low.bit_length() - 1]
            x ^= low
        yield a ^ 1 << i
