"""Reference oracle: the odd girth by a set-based breadth-first search.

This is the search ``nbhd.odd_girth`` ran before it searched bit-mask levels
on the vertices not yet used as a source: a full search from every source
over the whole graph, kept verbatim apart from the graph's memo, which the
oracle neither reads nor writes.
"""

from __future__ import annotations

import math


def odd_girth(G):
    """Length of the shortest odd closed walk; ``math.inf`` iff the graph is
    bipartite.

    A level-by-level breadth-first search runs from each source.  An edge
    inside level d (a loop included) closes an odd walk of length 2d + 1
    through the source, and the least such length over all sources is the
    odd girth.  A source stops once 2d + 1 cannot beat the best so far.
    """
    best = math.inf
    for s in range(G.n_vertices):
        best = _odd_walk_length(G.adj, s, best)
    return best


def _odd_walk_length(adj, s, bound):
    """2d + 1 for the first breadth-first level d from ``s`` that holds an
    edge, or ``bound`` if that length would not be below it."""
    depth = [-1] * len(adj)
    depth[s] = 0
    level, d = [s], 0
    while level and 2 * d + 1 < bound:
        below = []
        for u in level:
            for w in adj[u]:
                if depth[w] < 0:
                    depth[w] = d + 1
                    below.append(w)
                elif depth[w] == d:
                    return 2 * d + 1
        level, d = below, d + 1
    return bound
