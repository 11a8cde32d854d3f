"""Shared builders for the test suite."""

import graphlib
import itertools
import random
from collections import deque
from dataclasses import dataclass

from nbhd import Graph, SimplicialComplex, Involution, Poset, make_cycle, make_kneser
from nbhd.complexes import _integers
from nbhd.graphs import walk_ball
from nbhd.homology import _boundary


def hexagon_complex():
    """The 6-cycle as a 1-dimensional complex."""
    return SimplicialComplex.from_faces([(i, (i + 1) % 6) for i in range(6)])


def octahedron():
    """Boundary of the octahedron; antipodal pairs are (0,3), (1,4), (2,5)."""
    return SimplicialComplex.from_faces(
        [(a, b, c) for a in (0, 3) for b in (1, 4) for c in (2, 5)]
    )


def antipodal6(K):
    return Involution.from_label_map(K, {i: (i + 3) % 6 for i in range(6)})


def rp2_complex():
    """Minimal 6-vertex triangulation of the real projective plane."""
    triangles = [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ]
    return SimplicialComplex.from_faces(triangles)


def simplex_boundary(n):
    """Boundary of the n-simplex on vertices 0..n."""
    verts = list(range(n + 1))
    return SimplicialComplex.from_faces(
        [tuple(v for v in verts if v != drop) for drop in verts]
    )


def full_simplex(n):
    return SimplicialComplex.from_faces([tuple(range(n + 1))])


def two_pentagons():
    """Two 5-cycles sharing vertex 4: a 9-vertex graph of odd girth 5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(4, 5), (5, 6), (6, 7), (7, 8), (8, 4)]
    return Graph(range(9), edges)


def nine_cycle_chord():
    """C_9 plus the chord {0, 4}: 9 vertices, odd girth 5."""
    edges = [(i, (i + 1) % 9) for i in range(9)] + [(0, 4)]
    return Graph(range(9), edges)


def mycielskian(G):
    """Mycielski construction: vertex i, its shadow n + i, and an apex 2n."""
    n = G.n_vertices
    edges = []
    for i, j in G.edges():
        edges += [(i, j), (i, n + j), (j, n + i)]
    edges += [(n + i, 2 * n) for i in range(n)]
    return Graph(range(2 * n + 1), edges)


def small_graph_corpus():
    """Fixed 20-graph corpus on at most 7 vertices for cross-oracle sweeps."""
    graphs = [
        make_cycle(3),
        make_cycle(4),
        make_cycle(5),
        make_cycle(6),
        make_cycle(7),
        make_kneser(2, 1),          # single edge
        make_kneser(3, 1),          # triangle
        make_kneser(4, 1),          # K4
        make_kneser(5, 1),          # K5
        Graph(range(4), [(0, 1), (1, 2), (2, 3)]),              # path P4
        Graph(range(5), [(0, i) for i in range(1, 5)]),          # star
        Graph(range(5), [(i, j) for i in range(2) for j in range(2, 5)]),  # K_{2,3}
        Graph(range(6), [(i, j) for i in range(3) for j in range(3, 6)]),  # K_{3,3}
        Graph(range(7), [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)]),  # C7 + chord
        Graph(range(6), [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)]),  # C5 + pendant
        Graph(range(6), [(i, (i + 1) % 6) for i in range(6)] + [(0, 2)]),  # C6 + short chord
        Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),  # C5 + chord
        Graph(range(1), []),                                     # isolated vertex
        Graph(range(7), [(i, (i + 1) % 7) for i in range(7)] + [(1, 4)]),  # C7 + other chord
        Graph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),  # two triangles
    ]
    assert len(graphs) == 20
    assert all(g.n_vertices <= 7 for g in graphs)
    return graphs


def lemma_suite_random_graphs():
    """Ten fixed random connected graphs on <= 7 vertices."""
    rng = random.Random(402211)
    out = []
    while len(out) < 10:
        n = rng.randint(4, 7)
        out.append(random_connected_graph(n, 0.35, rng))
    return out


def checked_poset(elements, covers):
    """The ``Poset`` on these elements with these covering index pairs,
    which it checks first: a repeated element, a cover that is not two
    distinct in-range integers, or a cycle of covers raises
    :class:`ValueError` (acyclicity gives antisymmetry)."""
    elements = tuple(elements)
    n = len(elements)
    if len(set(elements)) != n:
        raise ValueError("poset elements must be pairwise distinct")
    cov = set()
    for pair in covers:
        a, b = _integers(pair)
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise ValueError(f"bad cover pair ({a}, {b})")
        cov.add((a, b))
    order = graphlib.TopologicalSorter()
    for a, b in cov:
        order.add(b, a)
    try:
        order.prepare()
    except graphlib.CycleError:
        raise ValueError("covering relation has a cycle") from None
    covers = tuple(sorted(cov))
    P = Poset.__new__(Poset)
    P._build, P._pairs = (lambda: (elements, covers)), None
    return P


def face_counts(K, limit=None):
    """Faces of ``K`` per dimension, as a tuple."""
    return tuple(map(len, K.faces(limit).values()))


def all_faces_label_set(K, limit=None):
    """Every face of ``K`` as a tuple of labels."""
    return {K.face_labels(f) for lst in K.faces(limit).values() for f in lst}


def euler_characteristic(K, limit=None):
    """The alternating sum of the face counts of ``K``."""
    return sum((-1) ** d * len(lst) for d, lst in K.faces(limit).items())


def walk_neighborhood(G, v, r):
    """Sorted indices of endpoints of length-``r`` walks from the vertex
    labelled ``v``."""
    if r < 0:
        raise ValueError("walk length must be nonnegative")
    return tuple(sorted(walk_ball(G, G.index_of(v), r)))


def is_connected(G):
    n = G.n_vertices
    if n == 0:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in G.adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def random_connected_graph(n, p, rng, max_tries=2000):
    """Erdos-Renyi ``G(n, p)`` conditioned on connectivity, drawn from the
    caller's RNG (pass ``random.Random(seed)`` for reproducibility)."""
    for _ in range(max_tries):
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        g = Graph(range(n), edges)
        if is_connected(g):
            return g
    raise ValueError("could not sample a connected graph; raise p or max_tries")


def format_edge_list(G):
    """One ``u v`` line per edge, the text ``parse_edge_list`` reads."""
    lines = [f"{G.vertices[i]} {G.vertices[j]}" for i, j in G.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def make_schrijver(n, k):
    """The Schrijver graph SG(n, k): the k-subsets of 1..n holding no two
    cyclically consecutive elements, joined when disjoint."""
    subsets = [a for a in itertools.combinations(range(1, n + 1), k)
               if all((x % n) + 1 not in a for x in a)]
    return Graph(subsets, [(a, b) for a, b in itertools.combinations(subsets, 2)
                           if not set(a) & set(b)])


def torus_grid(m):
    """The 4-regular grid C_m x C_m on the cells ``(i, j)``, m >= 3: each
    cell is joined to the next one in its row and in its column, cyclically."""
    cells = [(i, j) for i in range(m) for j in range(m)]
    return Graph(cells, [((i, j), ((i + 1) % m, j)) for i, j in cells]
                 + [((i, j), (i, (j + 1) % m)) for i, j in cells])


def random_cubic_graph(n, seed):
    """A cubic graph on the even number n of vertices from the configuration
    model: three stubs per vertex, shuffled by ``random.Random(seed)`` and
    paired in order, the whole draw repeated while it makes a loop or a
    double edge."""
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {frozenset(e) for e in zip(stubs[::2], stubs[1::2])}
        if len(edges) == 3 * n // 2 and all(len(e) == 2 for e in edges):
            return Graph(range(n), [tuple(e) for e in edges])


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
    (-1)^i at the row dropping its i-th vertex (vertices sorted).  These are
    always the simplicial ones, on faces, pair spaces included."""
    faces = K.faces(limit)
    return [BoundaryMatrix(d, len(faces[d - 1]), len(faces[d]), {
        (i, j): v for i, r in _boundary(faces, d)[0].items() for j, v in r.items()})
        for d in range(1, len(faces))]
