"""Seeded inputs, operations and answer checks for the three workloads.

``build(workload, seed, workdir)`` makes a workload's inputs and returns its
operations: a list of ``(label, fn)`` pairs.  Calling ``fn()`` runs one
instance (or one sweep check) through nbhd's public API or CLI and checks the
answer against a value that does not depend on vertex labels or vertex order.
It raises :class:`WrongAnswer` when the answer is wrong and :class:`Failure`
when the program gave up (a guard, a budget or an unexpected exit code)
instead of answering.

Every graph is renamed and reshuffled from the seed, keeping its ``tag`` so
the closed-form height rules still fire.  Both are needed: ``from_faces``
re-sorts labels, so a reorder alone leaves the complexes unchanged, and
``hom_search`` follows vertex order, so a rename alone leaves its search tree
unchanged.  Complexes are built inside the operations, never at set-up,
because a complex caches its faces and a later pass would reuse them.

nbhd's modules are taken from ``sys.modules`` and their functions looked up
at call time, so the tracer's wrappers see every call.  ``nbhd.homology`` as
an attribute is the function, because the package's ``__init__`` shadows the
submodule.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys

import nbhd.cli  # noqa: F401  (registers nbhd and its submodules in sys.modules)

graphs = sys.modules["nbhd.graphs"]
complexes = sys.modules["nbhd.complexes"]
homology = sys.modules["nbhd.homology"]
z2 = sys.modules["nbhd.z2"]
morse = sys.modules["nbhd.morse"]
cli = sys.modules["nbhd.cli"]
errors = sys.modules["nbhd.errors"]

# One CLI call whose expansion budget is far below what the search needs
# under any vertex order (33,780 to 41,092 expansions over 30 random orders).
GUARD_BUDGET = 5_000

# The exhaustive search for K(7,3) -> C7 in generator order.
K73_C7_EXPANSIONS = 2_108_603

# Random graphs of each kind (see _kind) in the obstruction sweep, the
# graphs with a triangle first.  The counts are the kind shares of connected
# G(n, 0.35) with n drawn from 6..10 (triangle 85.8%, bipartite 10.8%, odd
# 3.5% over 200,000 draws; see ladder.json) times 20, rounded by largest
# remainder, so every seed gets the draw's expected mix.
SWEEP_GRAPHS = (("triangle", 17), ("odd", 1), ("bipartite", 2))

# Height bounds of the sweep's fixed graphs at r = 1 and 3, as
# (lower, upper, true height or None).  At r=3 Petersen's pair space is the
# 8-sphere and C5's the 3-sphere, and C7's height is 1 (it maps to itself);
# at r=1 each maps to C3, which bounds its height by 1.
FIXED_BOUNDS = {
    "petersen": {1: (None, 1, None), 3: (8, 8, 8)},
    "c5": {1: (None, 1, None), 3: (3, 3, 3)},
    "c7": {1: (None, 1, None), 3: (None, 1, 1)},
}


class WrongAnswer(Exception):
    """The program answered, and the answer is wrong."""


class Failure(Exception):
    """The program gave up on an operation instead of answering."""


# Exceptions that count an operation as failed rather than wrong.
FAILURES = (Failure, errors.ResourceLimitError, RecursionError, MemoryError)


# ---------------------------------------------------------------------------
# graphs

def mycielskian(G):
    """Mycielski construction: vertex i, its shadow n + i, and an apex 2n."""
    n = G.n_vertices
    edges = []
    for i, j in G.edges():
        edges += [(i, j), (i, n + j), (j, n + i)]
    edges += [(n + i, 2 * n) for i in range(n)]
    return graphs.Graph(range(2 * n + 1), edges)


def clebsch():
    """Folded 5-cube: 0..15, adjacent when the labels differ in 1 or 4 bits."""
    return graphs.Graph(
        range(16),
        [(x, y) for x, y in itertools.combinations(range(16), 2)
         if bin(x ^ y).count("1") in (1, 4)],
    )


def complete(n):
    return graphs.Graph(range(n), itertools.combinations(range(n), 2))


def reshuffle(G, rng):
    """Same graph and tag under fresh integer labels and a shuffled vertex
    order."""
    labels = rng.sample(range(10**6), G.n_vertices)
    order = list(range(G.n_vertices))
    rng.shuffle(order)
    edges = [(labels[i], labels[j]) for i, j in G.edges()]
    return graphs.Graph([labels[i] for i in order], edges, tag=G.tag)


def _kind(n, edges):
    """Kind of a graph on 0..n-1: disconnected, triangle, bipartite, or odd
    (no triangle but an odd cycle, so odd girth 5 or more)."""
    adj = _adjacency(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    if len(seen) < n:
        return "disconnected"
    girth = _odd_girth(adj)
    return "bipartite" if girth is None else "triangle" if girth == 3 else "odd"


def random_graph(rng, kind):
    """Connected G(n, 0.35) with 6 to 10 vertices of the given kind (see
    ``_kind``), by rejection sampling; the graph and its height bounds at
    r = 1 and 3 (see ``known_bounds``)."""
    while True:
        n = rng.randint(6, 10)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35]
        if _kind(n, edges) == kind:
            return graphs.Graph(range(n), edges), known_bounds(n, edges)


def _adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _odd_girth(adj):
    """Length of the shortest odd cycle, or None: a BFS from each vertex
    closes an odd cycle through every edge joining two vertices at the same
    depth."""
    best = None
    for s in range(len(adj)):
        depth = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in depth:
                        depth[w] = depth[u] + 1
                        nxt.append(w)
                    elif depth[w] == depth[u] and (best is None or 2 * depth[u] + 1 < best):
                        best = 2 * depth[u] + 1
            frontier = nxt
    return best


def _maps_to_cycle(adj, m):
    """Whether the graph maps to the m-cycle: backtracking over a BFS order
    of the vertices, the first one fixed at 0 since the cycle is
    vertex-transitive."""
    order = [0]
    for u in order:
        order += sorted(w for w in adj[u] if w not in order)
    colour = {}

    def extend(k):
        if k == len(order):
            return True
        u = order[k]
        for c in ((0,) if k == 0 else range(m)):
            if all((colour[w] - c) % m in (1, m - 1) for w in adj[u] if w in colour):
                colour[u] = c
                if extend(k + 1):
                    return True
                del colour[u]
        return False

    return extend(0)


def known_bounds(n, edges):
    """The bounds on the height of a connected untagged graph's pair space
    that ``height_bounds`` documents, worked out here without nbhd, as
    ``{r: (lower, upper, None)}`` for r = 1 and 3: lower ``r`` when the odd
    girth is exactly ``r + 2``, and upper 1 when the graph maps to an odd
    cycle of length 2r+1 to 15, which is when it maps to C(2r+1), because
    every longer odd cycle maps to C(2r+1)."""
    adj = _adjacency(n, edges)
    girth = _odd_girth(adj)
    return {r: (r if girth == r + 2 else None,
                1 if _maps_to_cycle(adj, 2 * r + 1) else None,
                None)
            for r in (1, 3)}


# ---------------------------------------------------------------------------
# checks

def expect(label, got, want):
    if got != want:
        raise WrongAnswer(f"{label}: expected {want!r}, got {got!r}")


def check_homology(label, h, betti):
    expect(label, h.betti_vector, betti)
    expect(label + " torsion", [h.torsion(d) for d in range(len(betti))],
           [()] * len(betti))


def check_status(label, status, expansions, want):
    """Check a search status; an unexpected budget stop is a failure."""
    if status == "budget-exceeded" and want != status:
        raise Failure(f"{label}: search budget exceeded after {expansions} expansions")
    expect(label, status, want)


def run_cli(argv, rc_expected=0):
    """Run the CLI in-process; the parsed ``--json`` report, or None when a
    non-zero exit was the expected answer."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code
    if rc == cli.EXIT_INTERNAL and rc_expected != rc:
        raise WrongAnswer(f"{' '.join(argv)}: {err.getvalue().strip()}")
    if rc != rc_expected:
        raise Failure(f"{' '.join(argv)}: exit {rc}: {err.getvalue().strip()}")
    return json.loads(out.getvalue()) if rc == 0 else None


def _decode(label):
    return tuple(_decode(x) for x in label) if isinstance(label, list) else label


def check_cli_map(label, report, G, H):
    """Validate a found map printed by ``hom-search`` with validate_hom."""
    f = [None] * G.n_vertices
    for u, v in report["result"]["map"]:
        f[G.index_of(_decode(u))] = H.index_of(_decode(v))
    if None in f or not graphs.validate_hom(f, G, H):
        raise WrongAnswer(f"{label}: the printed map is not a homomorphism")


# ---------------------------------------------------------------------------
# workloads

def homology_ops(rng, workdir):
    """Exact integral homology on the two complex shapes, plus the collapse
    tower of C17 at r=7."""
    ops = []

    def pair_space(label, G, r, betti):
        def op():
            K = complexes.order_complex(complexes.pair_poset(G, r))
            check_homology(label, homology.homology(K), betti)
        ops.append((label, op))

    def nbhd_complex(label, G, r, betti):
        def op():
            K = complexes.neighborhood_complex(G, r)
            check_homology(label, homology.homology(K), betti)
        ops.append((label, op))

    pair_space("pair C5 r=3", reshuffle(graphs.make_cycle(5), rng), 3, (1, 0, 0, 1))
    pair_space("pair C7 r=3", reshuffle(graphs.make_cycle(7), rng), 3, (1, 1, 0, 0))
    nbhd_complex("N Petersen r=3", reshuffle(graphs.make_kneser(5, 2), rng), 3,
                 (1, 0, 0, 0, 0, 0, 0, 0, 1))
    nbhd_complex("N K(9,4) r=1", reshuffle(graphs.make_kneser(9, 4), rng), 1,
                 (1, 379, 0, 0, 0))
    nbhd_complex("N K(6,2) r=1", reshuffle(graphs.make_kneser(6, 2), rng), 1,
                 (1, 0, 19, 0, 0, 0))
    nbhd_complex("N C17 r=7", reshuffle(graphs.make_cycle(17), rng), 7,
                 (1, 1, 0, 0, 0, 0, 0, 0))

    def tower():
        rim, stages = morse.collapse_cycle_tower(17, 7)
        expect("tower stages", [s["radius"] for s in stages], [7, 6, 5, 4, 3, 2])
        expect("tower rim facets", len(rim.facets), 17)
        check_homology("tower rim", homology.homology(rim), (1, 1))
    ops.append(("collapse tower C17 r=7", tower))
    return ops


def height_ops(rng, workdir):
    """Exact swap heights of pair spaces (the ``obstruct --exact`` path), plus
    one antipodal sphere that needs a quotient retry."""
    ops = []

    def pair_height(label, G, r, height):
        def op():
            expect(label, z2.pair_space_height(G, r), height)
        ops.append((label, op))

    pair_height("height C5 r=3", reshuffle(graphs.make_cycle(5), rng), 3, 3)
    pair_height("height C7 r=3", reshuffle(graphs.make_cycle(7), rng), 3, 1)
    pair_height("height C9 r=3", reshuffle(graphs.make_cycle(9), rng), 3, 1)
    pair_height("height Grotzsch r=1",
                reshuffle(mycielskian(graphs.make_cycle(5)), rng), 1, 2)
    pair_height("height Clebsch r=1", reshuffle(clebsch(), rng), 1, 2)

    # A pair space never needs a subdivision: a face holding a pair and the
    # swap of a comparable pair would need a vertex in both A and B, an odd
    # closed walk of length r below the odd girth.  The boundary of the
    # 4-dimensional cross-polytope under the antipodal map does: its edge
    # orbits have four preimages until it is subdivided once.
    labels = rng.sample(range(10**6), 8)
    vertex = {(s, i): labels[2 * i + s] for i in range(4) for s in (0, 1)}
    facets = [[vertex[(bits[i], i)] for i in range(4)]
              for bits in itertools.product((0, 1), repeat=4)]
    rng.shuffle(facets)
    antipode = {vertex[(s, i)]: vertex[(1 - s, i)] for s, i in vertex}

    def sphere():
        K = complexes.SimplicialComplex.from_faces(facets)
        t = z2.Involution.from_label_map(K, antipode)
        expect("height antipodal S^3", z2.z2_height(K, t), 3)
    ops.append(("height antipodal S^3", sphere))
    return ops


def verdict_ops(rng, workdir):
    """The CLI paths users run on graph files written here, plus a seeded
    sweep of obstruction_check cross-checked by the exhaustive search."""
    petersen = reshuffle(graphs.make_kneser(5, 2), rng)
    c5 = reshuffle(graphs.make_cycle(5), rng)
    c7 = reshuffle(graphs.make_cycle(7), rng)
    k73 = reshuffle(graphs.make_kneser(7, 3), rng)
    k52 = reshuffle(graphs.make_kneser(5, 2), rng)
    myc_grotzsch = reshuffle(mycielskian(mycielskian(graphs.make_cycle(5))), rng)
    k4 = reshuffle(complete(4), rng)
    files = {
        "petersen": petersen, "c5": c5, "c7": c7, "k73": k73, "k52": k52,
        "myc_grotzsch": myc_grotzsch, "k4": k4,
        # generator order: under random orders this search costs only 1,456
        # to 25,781 expansions, against 2,108,603 in generator order
        "k73_gen": graphs.make_kneser(7, 3), "c7_gen": graphs.make_cycle(7),
    }
    path = {}
    for name, G in files.items():
        path[name] = os.path.join(workdir, name + ".json")
        graphs.save_graph(G, path[name])

    ops = []

    def obstruct():
        rep = run_cli(["obstruct", path["petersen"], path["c5"], "3", "--json"])["result"]
        expect("obstruct Petersen->C5 verdict", rep["obstruction"]["verdict"], "NO-MAP")
        expect("obstruct Petersen->C5 bounds",
               (rep["obstruction"]["lhs"]["bound"], rep["obstruction"]["rhs"]["bound"]),
               (8, 3))
        expect("obstruct Petersen->C5 search", rep["search"]["status"], "none")
    ops.append(("obstruct Petersen->C5 r=3", obstruct))

    def deep_search():
        rep = run_cli(["hom-search", path["k73_gen"], path["c7_gen"], "--json"])["result"]
        check_status("hom-search K(7,3)->C7", rep["status"], rep["expansions"], "none")
        expect("hom-search K(7,3)->C7 expansions", rep["expansions"], K73_C7_EXPANSIONS)
    ops.append(("hom-search K(7,3)->C7", deep_search))

    def found_search():
        rep = run_cli(["hom-search", path["k73"], path["k52"], "--json"])
        result = rep["result"]
        check_status("hom-search K(7,3)->K(5,2)", result["status"], result["expansions"],
                     "found")
        check_cli_map("hom-search K(7,3)->K(5,2)", rep, k73, k52)
    ops.append(("hom-search K(7,3)->K(5,2)", found_search))

    def none_search():
        rep = run_cli(["hom-search", path["myc_grotzsch"], path["k4"], "--json"])["result"]
        check_status("hom-search M(Grotzsch)->K4", rep["status"], rep["expansions"], "none")
    ops.append(("hom-search M(Grotzsch)->K4", none_search))

    def kneser_table():
        rows = run_cli(["kneser-table", "5", "9", "1", "4", "--json"])["result"]["rows"]
        expect("kneser-table rows", len(rows), 20)
        expect("kneser-table girths",
               [r["odd_girth"] for r in rows], [r["odd_girth_formula"] for r in rows])
    ops.append(("kneser-table 5 9 1 4", kneser_table))

    # Two guard paths whose documented outcome is the answer: an even radius
    # is refused with exit 4, and a budget below the search's need stops it.
    ops.append(("obstruct C5->C7 r=2 (exit 4)",
                lambda: run_cli(["obstruct", path["c5"], path["c7"], "2", "--json"], 4)))

    def budget_guard():
        rep = run_cli(["hom-search", path["myc_grotzsch"], path["k4"],
                       "--budget", str(GUARD_BUDGET), "--json"])["result"]
        expect("hom-search budget guard", (rep["status"], rep["expansions"]),
               ("budget-exceeded", GUARD_BUDGET + 1))
    ops.append(("hom-search M(Grotzsch)->K4 --budget", budget_guard))

    # Each check recomputes both graphs' height bounds, and a graph of odd
    # girth 5 costs far more there than the others, so every seed draws the
    # same number of each kind.
    pool = []
    for kind, count in SWEEP_GRAPHS:
        for _ in range(count):
            G, bounds = random_graph(rng, kind)
            pool.append((reshuffle(G, rng), bounds))
    pool += [(petersen, FIXED_BOUNDS["petersen"]), (c5, FIXED_BOUNDS["c5"]),
             (c7, FIXED_BOUNDS["c7"])]
    # r=1 needs odd girth above 1 (every graph here); r=3 needs it above 3
    with_triangle = SWEEP_GRAPHS[0][1]
    for r, members in ((1, pool), (3, pool[with_triangle:])):
        for a, b in itertools.permutations(range(len(members)), 2):
            label = f"sweep r={r} #{a}->#{b}"
            (G, g_bounds), (H, h_bounds) = members[a], members[b]
            ops.append((label, sweep_check(label, G, H, r, g_bounds[r], h_bounds[r])))
    return ops


def sweep_check(label, G, H, r, g_bounds, h_bounds):
    """One obstruction check.  The source's lower bound must be at least the
    known one and the target's upper bound at most the known one, and both
    must hold for the true height where it is known, so the verdict is
    NO-MAP wherever the known bounds give it; any NO-MAP is cross-checked by
    the exhaustive search."""
    lower, _, g_height = g_bounds
    _, upper, h_height = h_bounds

    def op():
        rep = z2.obstruction_check(G, H, r)
        got_lower, got_upper = rep.lhs["bound"], rep.rhs["bound"]
        if lower is not None and (got_lower is None or got_lower < lower):
            raise WrongAnswer(f"{label}: lower bound {got_lower}, expected at least {lower}")
        if upper is not None and (got_upper is None or got_upper > upper):
            raise WrongAnswer(f"{label}: upper bound {got_upper}, expected at most {upper}")
        if None not in (g_height, got_lower) and got_lower > g_height:
            raise WrongAnswer(f"{label}: lower bound {got_lower} above the height {g_height}")
        if None not in (h_height, got_upper) and got_upper < h_height:
            raise WrongAnswer(f"{label}: upper bound {got_upper} below the height {h_height}")
        if None not in (lower, upper) and lower > upper:
            expect(label + " verdict", rep.verdict, "NO-MAP")
        if rep.verdict == "NO-MAP":
            out = graphs.hom_search(G, H)
            check_status(label + " cross-check", out.status, out.expansions, "none")
    return op


WORKLOAD_OPS = {"homology": homology_ops, "height": height_ops, "verdict": verdict_ops}


def build(workload, seed, workdir):
    """Inputs and operations of one workload; the same seed gives the same
    inputs."""
    return WORKLOAD_OPS[workload](random.Random(f"{workload}:{seed}"), workdir)
