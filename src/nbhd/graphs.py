"""Finite graphs with symmetric adjacency, walk neighborhoods, odd girth,
Kneser/cycle generators, and an exhaustive homomorphism search.

Vertex labels are opaque hashable values; computation runs on vertex indices
(positions in ``Graph.vertices``).  Walk neighborhoods are exact-length: a
vertex counts as reachable at radius ``r`` only through a walk of length
exactly ``r``, so parities matter on bipartite graphs.  All values here are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass

__all__ = [
    "Graph",
    "SearchOutcome",
    "make_cycle",
    "make_kneser",
    "walk_ball",
    "walk_neighborhood",
    "odd_girth",
    "kneser_walk_test",
    "validate_hom",
    "hom_search",
    "is_connected",
    "random_connected_graph",
    "graph_to_json_obj",
    "graph_from_json_obj",
    "save_graph",
    "load_graph",
    "parse_edge_list",
    "format_edge_list",
]


def _encode_label(label):
    if isinstance(label, tuple):
        return [_encode_label(x) for x in label]
    return label


def _decode_label(obj):
    if isinstance(obj, list):
        return tuple(_decode_label(x) for x in obj)
    if isinstance(obj, dict):
        raise ValueError(f"vertex label {obj!r} is not hashable")
    return obj


def _json_list(obj, key):
    """The list stored under ``key`` in a parsed JSON file."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, list):
        raise ValueError(f'expected a JSON object whose "{key}" is a list')
    return value


class Graph:
    """Immutable graph on labelled vertices.  Adjacency is symmetrized on
    construction; loops ``(v, v)`` are accepted."""

    __slots__ = ("vertices", "adj", "tag", "_index")

    def __init__(self, vertices, edges=(), tag=None):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex labels must be pairwise distinct")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        adj = [set() for _ in self.vertices]
        for u, v in edges:
            try:
                i, j = self._index[u], self._index[v]
            except KeyError as exc:
                raise ValueError(f"edge endpoint {exc.args[0]!r} is not a vertex") from None
            adj[i].add(j)
            adj[j].add(i)
        self.adj = tuple(frozenset(s) for s in adj)
        self.tag = tag

    @property
    def n_vertices(self):
        return len(self.vertices)

    def index_of(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"{label!r} is not a vertex") from None

    def neighbors(self, i):
        return self.adj[i]

    def has_edge(self, i, j):
        return j in self.adj[i]

    def edges(self):
        """Index pairs ``(i, j)`` with ``i <= j``, one per unordered edge."""
        out = []
        for i, nbrs in enumerate(self.adj):
            for j in nbrs:
                if i <= j:
                    out.append((i, j))
        return sorted(out)

    def edge_count(self):
        return len(self.edges())

    def degree(self, i):
        return len(self.adj[i])

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.vertices, self.adj))

    def __repr__(self):
        return f"Graph({self.n_vertices} vertices, {self.edge_count()} edges)"


def make_cycle(n):
    """Cycle graph on vertices ``0..n-1``."""
    if n < 3:
        raise ValueError("cycle graphs need at least 3 vertices")
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)], tag=("cycle", n))


def make_kneser(n, k):
    """Kneser graph: k-subsets of ``{1..n}`` in lexicographic order, edges
    between disjoint subsets."""
    if n < 1 or k < 1:
        raise ValueError("parameters must be positive")
    if k > n:
        raise ValueError("subset size exceeds ground-set size")
    subsets = list(itertools.combinations(range(1, n + 1), k))
    edges = [(a, b) for a, b in itertools.combinations(subsets, 2) if not set(a) & set(b)]
    return Graph(subsets, edges, tag=("kneser", n, k))


def walk_ball(G, i, r):
    """Indices reachable from vertex index ``i`` by walks of length exactly
    ``r`` (iterated neighbor union)."""
    cur = {i}
    for _ in range(r):
        nxt = set()
        for w in cur:
            nxt |= G.adj[w]
        cur = nxt
    return frozenset(cur)


def walk_neighborhood(G, v, r):
    """Sorted indices of endpoints of length-``r`` walks from the vertex
    labelled ``v``."""
    if r < 0:
        raise ValueError("walk length must be nonnegative")
    return tuple(sorted(walk_ball(G, G.index_of(v), r)))


def odd_girth(G):
    """Length of the shortest odd closed walk, via shortest paths on the
    parity-doubled graph; ``math.inf`` iff the graph is bipartite."""
    best = math.inf
    for s in range(G.n_vertices):
        dist = {(s, 0): 0}
        queue = deque([(s, 0)])
        while queue:
            u, p = queue.popleft()
            d = dist[(u, p)]
            if d + 1 >= best:
                continue
            for w in G.adj[u]:
                nxt = (w, 1 - p)
                if nxt not in dist:
                    dist[nxt] = d + 1
                    queue.append(nxt)
        best = min(best, dist.get((s, 1), math.inf))
    return best


def kneser_walk_test(n, k, a, b, s):
    """Set-difference criterion ``|A \\ B| <= s(n-2k)`` for even-walk
    reachability between Kneser vertices (equivalent to ``B`` lying in the
    exact 2s-walk ball of ``A``)."""
    if n <= 2 * k:
        raise ValueError("requires n > 2k")
    if s < 1:
        raise ValueError("walk half-length must be positive")
    a_set, b_set = set(a), set(b)
    for name, sub in (("A", a_set), ("B", b_set)):
        if len(sub) != k or not all(isinstance(x, int) and 1 <= x <= n for x in sub):
            raise ValueError(f"{name} must be a {k}-subset of 1..{n}")
    return len(a_set - b_set) <= s * (n - 2 * k)


def validate_hom(f, G, H):
    """True iff ``f`` (target indices listed per source index) sends every
    edge of G to an edge of H."""
    f = tuple(f)
    if len(f) != G.n_vertices:
        raise ValueError("map must assign every source vertex")
    if any(not (0 <= t < H.n_vertices) for t in f):
        raise ValueError("map hits a nonexistent target index")
    return all(H.has_edge(f[i], f[j]) for i, j in G.edges())


@dataclass(frozen=True)
class SearchOutcome:
    """Result of an exhaustive homomorphism search."""

    status: str  # "found" | "none" | "budget-exceeded"
    mapping: tuple | None
    expansions: int

    @property
    def found(self):
        return self.status == "found"


class _BudgetExhausted(Exception):
    pass


def hom_search(G, H, budget=10_000_000):
    """Exhaustive backtracking search for a graph homomorphism ``G -> H``.

    Source vertices are assigned in descending-degree order (ties by index),
    target candidates in index order, with forward checking on the candidate
    sets of unassigned neighbors.  Deterministic: equal inputs give equal
    outcomes.  ``budget`` caps the number of attempted assignments.

    Candidate sets are bit masks (bit ``h`` for target ``h``), taken lowest
    bit first, which is index order.  Forward checking ands the chosen
    target's neighbour mask into the sets of the neighbours later in the
    static order, the only unassigned ones, and restores those that shrank.
    The search tree, so the outcome and the expansion count, is that of the
    same search on Python sets.
    """
    nG, nH = G.n_vertices, H.n_vertices
    if nG == 0:
        return SearchOutcome("found", (), 0)
    if nH == 0:
        return SearchOutcome("none", None, 0)
    order = sorted(range(nG), key=lambda i: (-len(G.adj[i]), i))
    position = [0] * nG
    for k, u in enumerate(order):
        position[u] = k
    later = [[w for w in G.adj[u] if position[w] > k] for k, u in enumerate(order)]
    allowed = [sum(1 << j for j in H.adj[h]) for h in range(nH)]
    loop_targets = sum(1 << h for h in range(nH) if h in H.adj[h])
    domains = [loop_targets if i in G.adj[i] else (1 << nH) - 1 for i in range(nG)]
    assignment = [-1] * nG
    expansions = 0

    def backtrack(k):
        nonlocal expansions
        if k == nG:
            return True
        u = order[k]
        ahead = later[k]
        candidates = domains[u]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            expansions += 1
            if expansions > budget:
                raise _BudgetExhausted
            h = low.bit_length() - 1
            mask = allowed[h]
            saved = []
            for w in ahead:
                old = domains[w]
                new = old & mask
                if new != old:
                    domains[w] = new
                    saved.append((w, old))
                    if not new:
                        break
            else:
                assignment[u] = h
                if backtrack(k + 1):
                    return True
            for w, old in saved:
                domains[w] = old
        return False

    try:
        if backtrack(0):
            return SearchOutcome("found", tuple(assignment), expansions)
        return SearchOutcome("none", None, expansions)
    except _BudgetExhausted:
        return SearchOutcome("budget-exceeded", None, expansions)


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


# ---------------------------------------------------------------------------
# file formats

def graph_to_json_obj(G):
    obj = {
        "vertices": [_encode_label(v) for v in G.vertices],
        "edges": [
            [_encode_label(G.vertices[i]), _encode_label(G.vertices[j])]
            for i, j in G.edges()
        ],
    }
    if G.tag is not None:
        obj["tag"] = list(G.tag)
    return obj


def graph_from_json_obj(obj):
    vertices = [_decode_label(v) for v in _json_list(obj, "vertices")]
    edges = []
    for e in _json_list(obj, "edges"):
        if not (isinstance(e, list) and len(e) == 2):
            raise ValueError(f"an edge must be a [u, v] pair, got {e!r}")
        edges.append((_decode_label(e[0]), _decode_label(e[1])))
    tag = obj.get("tag")
    if "tag" in obj and not _tag_fits(tag, len(vertices)):
        raise ValueError('tag must be ["cycle", m] or ["kneser", n, k] with integers '
                         f"matching the vertex count, got {tag!r}")
    return Graph(vertices, edges, tag=None if tag is None else tuple(tag))


def _tag_fits(tag, n_vertices):
    if not isinstance(tag, list) or not all(type(p) is int for p in tag[1:]):
        return False
    if tag[:1] == ["kneser"] and len(tag) == 3:
        n, k = tag[1:]
        # C(n, k) >= n when 0 < k < n, so a larger n cannot match
        return 0 < k <= n and (k == n or n <= n_vertices) and math.comb(n, k) == n_vertices
    return tag == ["cycle", n_vertices]


def save_graph(G, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json_obj(G), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_graph(path):
    """Load a graph from JSON (``{"vertices", "edges"}``) or, failing that,
    plain edge-list text (one ``u v`` pair per line, ``#`` comments)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return graph_from_json_obj(json.loads(text))
    return parse_edge_list(text)


def parse_edge_list(text):
    """Parse ``u v`` lines; ``#`` starts a comment; integer-looking tokens
    become int labels."""

    def tok(t):
        try:
            return int(t)
        except ValueError:
            return t

    vertices = []
    seen = set()
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'u v' pair, got {raw!r}")
        u, v = tok(parts[0]), tok(parts[1])
        for x in (u, v):
            if x not in seen:
                seen.add(x)
                vertices.append(x)
        edges.append((u, v))
    return Graph(vertices, edges)


def format_edge_list(G):
    lines = [f"{G.vertices[i]} {G.vertices[j]}" for i, j in G.edges()]
    return "\n".join(lines) + ("\n" if lines else "")
