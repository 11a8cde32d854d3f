"""Finite graphs with symmetric adjacency, walk neighborhoods, odd girth,
Kneser/cycle generators, and an exhaustive homomorphism search.

Vertex labels are opaque hashable values; computation runs on vertex indices
(positions in ``Graph.vertices``).  Walk neighborhoods are exact-length: a
vertex counts as reachable at radius ``r`` only through a walk of length
exactly ``r``, so parities matter on bipartite graphs.  All values here are
immutable after construction, apart from a graph's memo of answers derived
from it (neighbour masks, odd girth, height bounds), and safe to share
between threads.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import namedtuple
from operator import itemgetter

DEFAULT_BUDGET = 10_000_000
_MEMO_CAP = 2048  # failed subtrees kept per search before its memo starts again

__all__ = [
    "Graph",
    "SearchOutcome",
    "make_cycle",
    "make_kneser",
    "walk_ball",
    "odd_girth",
    "kneser_walk_test",
    "validate_hom",
    "hom_search",
    "graph_to_json_obj",
    "graph_from_json_obj",
    "save_graph",
    "load_graph",
    "parse_edge_list",
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
    construction; loops ``(v, v)`` are accepted.  ``_memo`` holds answers
    derived from the graph, so each is computed once; it takes no part in
    equality or hashing."""

    __slots__ = ("vertices", "adj", "tag", "_index", "_memo")

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
        self._memo = {}

    @property
    def n_vertices(self):
        return len(self.vertices)

    def index_of(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"{label!r} is not a vertex") from None

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
    masked = [(a, sum(1 << i for i in a)) for a in subsets]  # disjoint: masks share no bit
    edges = [(a, b) for (a, x), (b, y) in itertools.combinations(masked, 2) if not x & y]
    return Graph(subsets, edges, tag=("kneser", n, k))


def walk_ball(G, i, r):
    """Indices reachable from vertex index ``i`` by walks of length exactly
    ``r`` (iterated neighbor union).

    Each step's ball is the neighborhood of the one before, so once a step
    repeats the ball from two steps earlier the balls alternate, and the
    parity of the steps left picks the answer.  After the first step the
    balls grow along each parity, so this happens within about 2n steps.
    """
    prev, cur = None, {i}
    for step in range(r):
        nxt = set()
        for w in cur:
            nxt |= G.adj[w]
        if nxt == prev:
            return frozenset(cur if (r - step) % 2 == 0 else nxt)
        prev, cur = cur, nxt
    return frozenset(cur)


def odd_girth(G):
    """Length of the shortest odd closed walk; ``math.inf`` iff the graph is
    bipartite.

    A level-by-level breadth-first search runs from each source over the
    vertices not yet used as a source.  An edge inside level d (a loop
    included) closes an odd walk of length 2d + 1 through the source, and
    the least such length over all sources is the odd girth: a shortest odd
    cycle lies among the vertices left when its first vertex is the source,
    and its distances there are the graph's.  A source stops once 2d + 1
    cannot beat the best so far.  The answer is kept in the graph's memo.
    """
    memo = G._memo
    if "odd_girth" not in memo:
        nbrs = _masks(G)
        best = math.inf
        for s in range(G.n_vertices):
            best = _odd_walk_length(nbrs, s, best)
        memo["odd_girth"] = best
    return memo["odd_girth"]


def _masks(G):
    """The neighbour mask of each vertex, kept in the graph's memo."""
    if "masks" not in G._memo:
        G._memo["masks"] = tuple(sum(1 << w for w in a) for a in G.adj)
    return G._memo["masks"]


def _odd_walk_length(nbrs, s, bound):
    """2d + 1 for the first breadth-first level d from ``s`` that holds an
    edge, or ``bound`` if that length would not be below it; the search
    runs on the vertices from ``s`` on, with ``nbrs`` the neighbour masks."""
    level, seen, d = 1 << s, (2 << s) - 1, 0
    while level and 2 * d + 1 < bound:
        below = 0
        for u in _bits(level):
            if nbrs[u] & level:
                return 2 * d + 1
            below |= nbrs[u]
        level = below & ~seen
        seen |= level
        d += 1
    return bound


def _bits(x):
    # the positions of the set bits of mask x, in increasing order
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


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


class SearchOutcome(namedtuple("SearchOutcome", "status mapping expansions")):
    """Result of an exhaustive homomorphism search: ``status`` is "found",
    "none" or "budget-exceeded", ``mapping`` a tuple of target indices or
    None."""

    __slots__ = ()

    @property
    def found(self):
        return self.status == "found"


class _BudgetExhausted(Exception):
    pass


class _Reach(dict):
    """N(D) per set mask D of targets: the mask of the targets adjacent to
    some member of D, given the neighbour mask of each target."""

    def __init__(self, allowed):
        self.allowed = allowed

    def __missing__(self, d):
        out = 0
        for h in _bits(d):
            out |= self.allowed[h]
        self[d] = out
        return out


def hom_search(G, H, budget=DEFAULT_BUDGET):
    """Exhaustive backtracking search for a graph homomorphism ``G -> H``.

    Source vertices are assigned in descending-degree order (ties by index),
    target candidates in index order, with forward checking on the candidate
    sets of unassigned neighbors.  Deterministic: equal inputs give equal
    outcomes.  ``budget`` caps the expansions (attempted assignments) of
    that search tree, skipped subtrees counted in full, not the work done.

    Candidate sets are bit masks (bit ``h`` for target ``h``), taken lowest
    bit first, which is index order.  Forward checking ands the chosen
    target's neighbour mask into the sets of the neighbours later in the
    static order, the only unassigned ones, and restores those that shrank.

    Subtrees are skipped by symmetry, at every depth.  Let T be the targets
    assigned above a node.  Its candidate sets are the initial ones, which
    Aut(H) preserves, cut by the neighbour masks of targets in T, so every
    automorphism fixing T pointwise preserves them.  A candidate ``h`` that
    such an automorphism maps an earlier failed candidate ``h0`` of the node
    onto is not searched: its subtree is the image of ``h0``'s, whose size
    is added instead.  At the root T is empty.  Only subtrees of more than
    ``8 * nH`` expansions are kept as ``h0``: a smaller one is searched
    again faster than an automorphism is looked for, so a search of small
    subtrees does none of this work.  Such an automorphism keeps degree,
    loop and the distance to each target in T; these classes are computed
    once a node first has a kept ``h0``, only an ``h0`` of ``h``'s class is
    tried, and a node where all targets differ runs no automorphism search
    and turns the check off below its later candidates.
    :func:`_automorphism` finds it and checks it edge by edge; answers are
    kept per (T, h0, h), and all its steps in one call share an allowance of
    the expansions counted so far.

    Candidates that would wipe out a set are screened out once per node.  A
    candidate is viable when it lies in N(D), the targets adjacent to some
    member of D, for the set D of each later neighbour; N(D) is kept per
    mask.  An empty set is left out: no candidate changes it, and the search
    fails at its vertex.  Only viable candidates are assigned, checked and
    searched.  Each other one is one expansion, as in the plain search,
    counted late: those below the found candidate when a map is found, all
    of them when the node fails.  A map found after more than ``budget``
    expansions is reported as the budget exceeded.  The screen runs only
    when some target has two non-neighbours: N(D) holds the neighbourhood of
    each member of D, so where each target has at most one (a complete
    graph) a later neighbour rules out at most one candidate, and the screen
    costs more than it saves.  A screened-out candidate's subtree has size
    1, so it is never the image of a kept ``h0``.

    Failed subtrees are kept with the state they read.  A node reads its
    vertex's set and its later neighbours', which also fix its dead
    candidates, so a subtree's course and count depend only on the entry
    sets of the vertices read anywhere in it, its read set.  A skipped
    candidate reads what ``h0`` read, the automorphism carrying one subtree
    onto the other, and a memo hit what its entry read; both pass that up.
    A failed subtree of more than ``nH`` expansions reading at most a third
    of G's vertices is kept under its depth, read set and entry sets, and
    its count is added where they recur.  K(7,3)->C7 hits at depth 13 or 14
    on 6 or 10 of 35 vertices and enters 14,366 nodes, not 35,855; bounds
    of a half or a quarter, or ``2 * nH``, were slower.  A full memo
    (``_MEMO_CAP`` subtrees) starts again; kept whole, M(M(Grötzsch))->K5 at
    budget 10^9 peaks 23 MB higher.  M(Grötzsch)->K4 probes 494 times for 6
    hits, 1.4 ms against 1.1.  The outcome and the expansion count are
    those of the same search on Python sets without the skip, the screen
    or the memo.
    """
    nG, nH = G.n_vertices, H.n_vertices
    if nG == 0:
        return SearchOutcome("found", (), 0)
    if nH == 0:
        return SearchOutcome("none", None, 0)
    order = sorted(range(nG), key=lambda i: -len(G.adj[i]))  # stable: ties by index
    later, scope, seen = [], [], set()  # per depth: later neighbours; the vertices read
    for u in order:
        seen.add(u)
        later.append(list(G.adj[u] - seen))
        scope.append(sum(1 << w for w in later[-1]) | 1 << u)
    allowed = _masks(H)
    loop_targets = sum(1 << h for h, nbrs in enumerate(H.adj) if h in nbrs)
    domains = [loop_targets if i in G.adj[i] else (1 << nH) - 1 for i in range(nG)]
    assignment = [-1] * nG
    expansions = 0
    steps = 0  # spent on automorphisms, kept within the expansions
    maps_onto = {}  # (T mask, h0, h) -> whether an automorphism fixing T sends h0 to h
    partitions = {}  # T mask -> class of each target, or None once all differ
    distances = {}  # target -> breadth-first distances from it
    screen = nH - min(map(len, H.adj)) >= 2  # some target has two non-neighbours
    reach = _Reach(allowed) if screen else None
    memo = [{} for _ in range(nG)]  # per depth: read set -> (its sets' getter, sizes)
    kept = 0  # failed subtrees in the memo

    def classes(keys):
        """Class ids, equal where the keys are; None when all differ."""
        ids = {}
        out = tuple(ids.setdefault(key, len(ids)) for key in keys)
        return None if len(ids) == nH else out

    def partition(fixed):
        """The classes at T = ``fixed``: degree and loop, split by the
        distance to each target in T; None when all differ."""
        if fixed in partitions:
            return partitions[fixed]
        if not fixed:
            cls = classes((len(nbrs), h in nbrs) for h, nbrs in enumerate(H.adj))
        else:
            t = fixed.bit_length() - 1
            cls = partition(fixed ^ 1 << t)
            if cls is not None:
                if t not in distances:
                    dist = distances[t] = [-1] * nH
                    dist[t] = 0
                    queue = [t]
                    for v in queue:
                        for w in H.adj[v]:
                            if dist[w] < 0:
                                dist[w] = dist[v] + 1
                                queue.append(w)
                cls = classes(zip(cls, distances[t]))
        partitions[fixed] = cls
        return cls

    def image(fixed, cls, failed, h):
        """The subtree size and read set of a candidate in ``failed`` that
        an automorphism fixing T = ``fixed`` maps to ``h``, or None; ``cls``
        is the partition at T."""
        nonlocal steps
        for h0, size, reads in failed:
            if cls[h0] != cls[h]:
                continue
            key = (fixed, h0, h)
            maps = maps_onto.get(key)
            if maps is None:
                allowance = expansions - steps
                if allowance < nH:  # not enough left to order H's vertices
                    continue
                pins = [t for t in range(nH) if fixed >> t & 1]
                sigma, spent = _automorphism(H, h0, h, allowance, pins)
                steps += spent
                maps = sigma is not None
                if maps or spent < allowance:  # not cut off by the allowance
                    maps_onto[key] = maps
            if maps:
                return size, reads
        return None

    def backtrack(k, fixed, live):
        """None once a map is found, else the failed subtree's read set."""
        nonlocal expansions, kept
        if k == nG:
            return None
        if memo[k]:
            for reads, (get, sizes) in memo[k].items():
                size = sizes.get(get(domains))
                if size is not None:
                    expansions += size
                    if expansions > budget:
                        raise _BudgetExhausted
                    return reads
        entry, reads = expansions, scope[k]
        u = order[k]
        ahead = later[k]
        candidates = domains[u]
        dead = 0  # candidates that wipe out a later set: one expansion each
        if screen:
            for w in ahead:
                d = domains[w]
                if d:
                    candidates &= reach[d]
            dead = domains[u] ^ candidates
        failed = []  # (candidate, size, read set) of the large failed subtrees
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            h = low.bit_length() - 1
            if failed:
                cls = partition(fixed)
                if cls is None:  # all targets differ, here and below
                    live, failed = False, []
                else:
                    skip = image(fixed, cls, failed, h)
                    if skip is not None:
                        expansions += skip[0]
                        reads |= skip[1]
                        if expansions > budget:
                            raise _BudgetExhausted
                        continue
            start = expansions
            expansions += 1
            if expansions > budget:
                raise _BudgetExhausted
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
                sub = backtrack(k + 1, fixed | low, live)
                if sub is None:
                    if dead:
                        expansions += (dead & (low - 1)).bit_count()
                    return None
                reads |= sub
            for w, old in saved:
                domains[w] = old
            if live and expansions - start > 8 * nH:  # so not wiped out: sub is h's
                failed.append((h, expansions - start, sub))
        if dead:
            expansions += dead.bit_count()
            if expansions > budget:
                raise _BudgetExhausted
        if expansions - entry > nH and 3 * reads.bit_count() <= nG:
            if kept == _MEMO_CAP:  # full: start again
                kept, memo[:] = 0, [{} for _ in range(nG)]
            if reads not in memo[k]:
                memo[k][reads] = itemgetter(*_bits(reads)), {}
            get, sizes = memo[k][reads]
            sizes[get(domains)] = expansions - entry
            kept += 1
        return reads

    try:
        if backtrack(0, 0, True) is not None:
            return SearchOutcome("none", None, expansions)
        if expansions <= budget:
            return SearchOutcome("found", tuple(assignment), expansions)
    except _BudgetExhausted:
        pass
    return SearchOutcome("budget-exceeded", None, budget + 1)


def _automorphism(H, a, b, allowance, fixed=()):
    """An automorphism of ``H`` sending vertex ``a`` to ``b`` and fixing
    every vertex in ``fixed``, as a tuple of images, and the number of steps
    spent.  The automorphism is None if there is none, or if ``allowance``
    steps did not find one.

    ``a`` is pinned to ``b`` and each fixed vertex to itself; the other
    vertices are assigned in breadth-first order from the pinned ones, then
    from each unreached vertex by index.  A candidate must be unused, have
    the same degree and loop status, and be adjacent to exactly the images
    of the assigned neighbours, read from masks kept in ``H``'s memo.  The
    result is checked edge by edge before it is returned.  Setting up the
    order costs one step per vertex, and each candidate tried one more.
    Nothing is spent with fewer than one step per vertex allowed, with
    ``a`` and ``b`` of different degree or loop status, or with pins no
    bijection keeps: ``a`` or ``b`` fixed while ``a != b``, or a fixed
    vertex adjacent to only one of them.
    """
    n, adj = H.n_vertices, H.adj
    fixed = set(fixed)
    if (
        allowance < n
        or len(adj[a]) != len(adj[b])
        or (a in adj[a]) != (b in adj[b])
        or (a != b and (a in fixed or b in fixed))
        or any((t in adj[a]) != (t in adj[b]) for t in fixed)
    ):
        return None, 0
    fixed = sorted(fixed - {a})
    nbr, like = _masks(H), H._memo.get("alike")  # like[v]: the vertices of v's kind
    if like is None:
        kind = [(len(nbrs), v in nbrs) for v, nbrs in enumerate(adj)]
        same = {}
        for v, key in enumerate(kind):
            same[key] = same.get(key, 0) | 1 << v
        like = H._memo["alike"] = tuple(same[key] for key in kind)
    order = [a, *fixed]
    pinned = len(order)
    reached = sum(1 << v for v in order)
    i = 0
    for s in range(n + 1):
        while i < len(order):
            fresh = nbr[order[i]] & ~reached
            reached |= fresh
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                order.append(low.bit_length() - 1)
            i += 1
        if s < n and not reached >> s & 1:
            reached |= 1 << s
            order.append(s)
    sigma = [-1] * n
    for t in fixed:
        sigma[t] = t
    sigma[a] = b
    used = sum(1 << w for w in sigma if w >= 0)

    def candidates(k):
        v = order[k]
        mask = like[v] & ~used
        for w in order[:k]:
            mask &= nbr[sigma[w]] if nbr[v] >> w & 1 else ~nbr[sigma[w]]
        return mask

    pending = [0] * n
    k, steps = pinned, n
    if k < n:
        pending[k] = candidates(k)
    while pinned <= k < n:
        v = order[k]
        if sigma[v] >= 0:
            used ^= 1 << sigma[v]
            sigma[v] = -1
        if not pending[k]:
            k -= 1
            continue
        if steps >= allowance:
            return None, steps
        steps += 1
        low = pending[k] & -pending[k]
        pending[k] ^= low
        sigma[v] = low.bit_length() - 1
        used |= low
        k += 1
        if k < n:
            pending[k] = candidates(k)
    if k < pinned or not all(sigma[j] in adj[sigma[i]] for i in range(n) for j in adj[i]):
        return None, steps
    return tuple(sigma), steps


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
