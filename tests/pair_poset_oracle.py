"""Reference oracle: the linked-pair poset with a private recursive
enumerator of its first components.

``pair_poset`` grew the first components A depth-first, each with its
common ball carried down and intersected with one more ball per step, then
sorted them by size and lexicographically; its first guard counted them as
"elements".  The library reads the same components, already in that order,
as the faces of N_r(G) from ``complexes._face_levels``, whose guard counts
them as "faces".  Everything else is kept verbatim; the tests compare the
two posets and, where a guard trips, its stage, count and limit.
"""

from __future__ import annotations

import itertools

from conftest import checked_poset
from nbhd import ResourceLimitError
from nbhd.graphs import walk_ball


def pair_poset(G, r, size_guard=200_000):
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
                # each first component carries at least one element
                raise ResourceLimitError(
                    "linked-pair poset", len(a_sets), "elements", size_guard)
            grow(a, c, x + 1)

    grow((), None, 0)
    total = sum(2 ** len(c) - 1 for _, c in a_sets)
    if total > size_guard:
        raise ResourceLimitError("linked-pair poset", total, "elements", size_guard)

    a_sets.sort(key=lambda ac: (len(ac[0]), ac[0]))
    elements, payloads = [], []
    for a, c in a_sets:
        cs = tuple(sorted(c))
        la, lcs = tuple(map(G.vertices.__getitem__, a)), tuple(map(G.vertices.__getitem__, cs))
        for size in range(1, len(cs) + 1):
            elements += zip(itertools.repeat(a), itertools.combinations(cs, size))
            payloads += zip(itertools.repeat(la), itertools.combinations(lcs, size))
    index = {e: i for i, e in enumerate(elements)}

    covers = []  # each cover drops one vertex; pairs are down-closed
    for (a, b), i in index.items():
        for k in range(len(a) if len(a) > 1 else 0):
            covers.append((index[(a[:k] + a[k + 1:], b)], i))
        for k in range(len(b) if len(b) > 1 else 0):
            covers.append((index[(a, b[:k] + b[k + 1:])], i))

    P = checked_poset(payloads, covers)
    P._pairs = (G, r, max((len(a) + len(c) for a, c in a_sets), default=1) - 2)
    return P
