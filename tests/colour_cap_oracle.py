"""The colouring cap of swap heights as it was before the clique floor: DSATUR,
then one colour fewer while ``hom_search`` finds a colouring within 4
expansions per vertex.  ``z2._colour_cap`` must give the same cap."""

from itertools import combinations

from nbhd.graphs import Graph, hom_search, validate_hom


def colour_cap(balls):
    n = len(balls)
    colour, seen = [-1] * n, [0] * n
    for _ in range(n):
        x = max((x for x in range(n) if colour[x] < 0),
                key=lambda x: (seen[x].bit_count(), len(balls[x])))
        colour[x] = c = (~seen[x] & (seen[x] + 1)).bit_length() - 1
        for y in balls[x]:
            seen[y] |= 1 << c
    m = max(colour, default=-1) + 1
    Gr = Graph(range(n), [(x, y) for x in range(n) for y in balls[x] if x < y])
    while m > 2:
        K = Graph(range(m - 1), combinations(range(m - 1), 2))
        out = hom_search(Gr, K, 4 * n)
        if not (out.found and validate_hom(out.mapping, Gr, K)):
            break
        m -= 1
    return max(m - 2, 0)
