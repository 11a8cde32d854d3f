"""Reference oracle: the set-based exhaustive homomorphism search.

This is the search ``nbhd.hom_search`` ran before its domains became bit
masks, kept verbatim: source vertices in descending-degree order (ties by
index), candidates in index order, forward checking on Python sets.  The
library must return an equal ``SearchOutcome`` (status, mapping and
expansion count) on every input; the tests compare the two.
"""

from __future__ import annotations

from nbhd.graphs import SearchOutcome


class _BudgetExhausted(Exception):
    pass


def hom_search(G, H, budget=10_000_000):
    """Exhaustive backtracking search for a graph homomorphism ``G -> H``.

    Source vertices are assigned in descending-degree order (ties by index),
    target candidates in index order, with forward checking on the candidate
    sets of unassigned neighbors.  Deterministic: equal inputs give equal
    outcomes.  ``budget`` caps the number of attempted assignments.
    """
    nG, nH = G.n_vertices, H.n_vertices
    if nG == 0:
        return SearchOutcome("found", (), 0)
    if nH == 0:
        return SearchOutcome("none", None, 0)
    order = sorted(range(nG), key=lambda i: (-len(G.adj[i]), i))
    loop_targets = frozenset(h for h in range(nH) if h in H.adj[h])
    domains = [set(loop_targets) if i in G.adj[i] else set(range(nH)) for i in range(nG)]
    assignment = [-1] * nG
    expansions = 0

    def backtrack(k):
        nonlocal expansions
        if k == nG:
            return True
        u = order[k]
        for h in sorted(domains[u]):
            expansions += 1
            if expansions > budget:
                raise _BudgetExhausted
            pruned = []
            feasible = True
            for w in G.adj[u]:
                if w == u or assignment[w] >= 0:
                    continue
                drop = domains[w] - H.adj[h]
                if drop:
                    domains[w] -= drop
                    pruned.append((w, drop))
                    if not domains[w]:
                        feasible = False
                        break
            if feasible:
                assignment[u] = h
                if backtrack(k + 1):
                    return True
                assignment[u] = -1
            for w, drop in pruned:
                domains[w] |= drop
        return False

    try:
        if backtrack(0):
            return SearchOutcome("found", tuple(assignment), expansions)
        return SearchOutcome("none", None, expansions)
    except _BudgetExhausted:
        return SearchOutcome("budget-exceeded", None, expansions)
