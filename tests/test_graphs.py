import itertools
import json
import math
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nbhd import (
    Graph,
    graph_from_json_obj,
    graph_to_json_obj,
    hom_search,
    kneser_walk_test,
    make_cycle,
    make_kneser,
    odd_girth,
    parse_edge_list,
    validate_hom,
)
from nbhd import graphs
from nbhd.graphs import _automorphism, walk_ball
from conftest import (format_edge_list, is_connected, mycielskian, random_cubic_graph,
                      torus_grid, walk_neighborhood)
from hom_search_oracle import hom_search as reference_search
from odd_girth_oracle import odd_girth as reference_odd_girth


def brute_walk_endpoints(G, start, r):
    """Oracle: enumerate every walk of length exactly r."""
    frontier = {start}
    for _ in range(r):
        frontier = {w for u in frontier for w in G.adj[u]}
    return tuple(sorted(frontier))


@st.composite
def graphs_with_loops(draw, max_n):
    """Random graphs on 0..n-1, n from 0, where any pair (loops included) may
    be an edge."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(range(n), [e for e, b in zip(pairs, bits) if b])


@st.composite
def loopless_graphs(draw, max_n):
    """Random graphs on 0..n-1, n from 1, where any two vertices may be
    joined."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(range(n), [e for e, b in zip(pairs, bits) if b])


@st.composite
def graph_unions(draw, max_blocks=3, max_n=7):
    """Disjoint unions of blocks, each a random graph with loops, a random
    bipartite graph or an odd cycle, on vertex indices in a random order, so
    a block may hold the first, the last or scattered indices."""
    edges, n = [], 0
    for _ in range(draw(st.integers(min_value=0, max_value=max_blocks))):
        kind = draw(st.sampled_from(["loops", "bipartite", "cycle"]))
        if kind == "cycle":
            size = draw(st.sampled_from([3, 5, 7]))
            block = [(i, (i + 1) % size) for i in range(size)]
        else:
            size = draw(st.integers(min_value=1, max_value=max_n))
            side = draw(st.integers(min_value=0, max_value=size))
            pairs = [(i, j) for i, j in itertools.combinations_with_replacement(range(size), 2)
                     if kind == "loops" or (i < side) != (j < side)]
            block = [e for e, b in zip(pairs, draw(st.lists(
                st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if b]
        edges += [(n + i, n + j) for i, j in block]
        n += size
    order = draw(st.permutations(range(n)))
    return Graph(range(n), [(order[i], order[j]) for i, j in edges])


small_graphs = st.builds(
    lambda n, bits: Graph(
        range(n),
        [e for e, b in zip(itertools.combinations(range(n), 2), bits) if b],
    ),
    st.integers(min_value=1, max_value=6),
    st.lists(st.booleans(), min_size=15, max_size=15),
)


class TestGenerators:
    def test_cycle_small(self):
        g = make_cycle(3)
        assert g.n_vertices == 3 and g.edge_count() == 3
        g = make_cycle(5)
        assert g.n_vertices == 5 and g.edge_count() == 5

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            make_cycle(2)

    def test_kneser_5_2_counts(self):
        # oracle: enumerate disjoint pairs of 2-subsets of a 5-set directly
        subsets = list(itertools.combinations(range(1, 6), 2))
        expected_edges = sum(
            1 for a, b in itertools.combinations(subsets, 2) if not set(a) & set(b)
        )
        g = make_kneser(5, 2)
        assert g.n_vertices == 10
        assert g.edge_count() == expected_edges == 15

    def test_kneser_4_2_is_perfect_matching(self):
        g = make_kneser(4, 2)
        assert g.n_vertices == 6 and g.edge_count() == 3
        assert all(g.degree(i) == 1 for i in range(6))

    def test_kneser_edgeless_when_crowded(self):
        assert make_kneser(5, 3).edge_count() == 0

    def test_kneser_equals_set_construction(self):
        # oracle: disjointness tested on Python sets, pair by pair
        for n in range(1, 10):
            for k in range(1, n + 1):
                subsets = list(itertools.combinations(range(1, n + 1), k))
                edges = [(a, b) for a, b in itertools.combinations(subsets, 2)
                         if not set(a) & set(b)]
                g, expected = make_kneser(n, k), Graph(subsets, edges)
                assert g == expected and g.edges() == expected.edges()
                assert g.tag == ("kneser", n, k)

    def test_kneser_bad_params(self):
        with pytest.raises(ValueError):
            make_kneser(2, 3)
        with pytest.raises(ValueError):
            make_kneser(0, 1)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Graph([0, 0, 1])

    def test_loop_accepted(self):
        g = Graph([0, 1], [(0, 0), (0, 1)])
        assert g.has_edge(0, 0)


class TestWalkNeighborhood:
    def test_radius_zero(self):
        g = make_cycle(9)
        assert walk_neighborhood(g, 4, 0) == (4,)

    def test_c7_radius2(self):
        g = make_cycle(7)
        assert walk_neighborhood(g, 0, 2) == brute_walk_endpoints(g, 0, 2) == (0, 2, 5)

    def test_c5_radius3_reaches_everything_else(self):
        g = make_cycle(5)
        assert walk_neighborhood(g, 0, 3) == (1, 2, 3, 4)

    def test_unknown_vertex(self):
        with pytest.raises(ValueError):
            walk_neighborhood(make_cycle(5), 99, 1)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            walk_neighborhood(make_cycle(5), 0, -1)

    @given(small_graphs, st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_walks(self, g, r):
        for v in range(g.n_vertices):
            assert walk_neighborhood(g, v, r) == brute_walk_endpoints(g, v, r)

    @given(graphs_with_loops(7), st.data())
    @settings(max_examples=80, deadline=None)
    def test_long_walks_match_plain_iteration(self, g, data):
        # the balls alternate once a step repeats the ball two steps back
        r = data.draw(st.integers(min_value=0, max_value=3 * g.n_vertices))
        for v in range(g.n_vertices):
            assert walk_neighborhood(g, v, r) == brute_walk_endpoints(g, v, r)

    def test_huge_radius_stops_once_the_balls_alternate(self):
        g = make_cycle(5)
        assert walk_neighborhood(g, 0, 10 ** 12) == brute_walk_endpoints(g, 0, 12)

    @given(small_graphs, st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_steps_of_two(self, g, r):
        # backtracking needs a neighbor to step through, so an isolated vertex
        # has N_0 = {v} but N_2 = {}; every other case is monotone
        for v in range(g.n_vertices):
            if r == 0 and not g.adj[v]:
                continue
            assert set(walk_neighborhood(g, v, r)) <= set(walk_neighborhood(g, v, r + 2))

    @given(small_graphs, st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, g, r):
        balls = [set(walk_neighborhood(g, v, r)) for v in range(g.n_vertices)]
        for u in range(g.n_vertices):
            for v in range(g.n_vertices):
                assert (u in balls[v]) == (v in balls[u])


class TestOddGirth:
    def test_cycles(self):
        assert odd_girth(make_cycle(5)) == 5
        assert odd_girth(make_cycle(6)) == math.inf
        assert odd_girth(make_cycle(9)) == 9

    def test_petersen(self):
        assert odd_girth(make_kneser(5, 2)) == 5

    def test_loop_gives_one(self):
        assert odd_girth(Graph([0, 1], [(0, 0), (0, 1)])) == 1

    def test_edgeless(self):
        assert odd_girth(Graph(range(3))) == math.inf

    def test_memoized_on_the_graph(self, monkeypatch):
        g = make_kneser(5, 2)
        assert odd_girth(g) == 5
        monkeypatch.setattr(graphs, "_odd_walk_length", None)  # no second search
        assert odd_girth(g) == 5
        fresh = make_kneser(5, 2)
        assert g == fresh and hash(g) == hash(fresh)

    @given(graphs_with_loops(8))
    @settings(max_examples=300, deadline=None)
    def test_equals_least_odd_closed_walk(self, g):
        # oracle: the least odd m with i in its own exact m-walk ball; an odd
        # closed walk contains an odd cycle, so m <= n if any exists
        n = g.n_vertices
        walks = [m for m in range(1, 2 * n + 2, 2)
                 if any(i in walk_ball(g, i, m) for i in range(n))]
        assert odd_girth(g) == (walks[0] if walks else math.inf)

    @given(graph_unions())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_whole_graph_search(self, g):
        # the search from each source on the vertices left is the full
        # search's answer: loops, bipartite blocks (inf), several components
        # and the empty graph (no block)
        assert odd_girth(g) == reference_odd_girth(g)

    @pytest.mark.parametrize("g", [
        Graph([]), make_kneser(7, 3), make_kneser(9, 4), mycielskian(mycielskian(make_cycle(5))),
        torus_grid(5), torus_grid(6), random_cubic_graph(200, 1), make_cycle(31),
    ], ids=["empty", "K(7,3)", "K(9,4)", "M(M(C5))", "C5xC5", "C6xC6", "cubic200", "C31"])
    def test_equals_the_whole_graph_search_on_named_graphs(self, g):
        assert odd_girth(g) == reference_odd_girth(g)

    def test_kneser_girths(self):
        for n, k in [(7, 3), (8, 3), (9, 4)]:
            assert odd_girth(make_kneser(n, k)) == 2 * math.ceil(k / (n - 2 * k)) + 1

    def test_petersen_agrees_with_cycle_map_search(self):
        g = make_kneser(5, 2)
        hits = [m for m in (3, 5, 7, 9) if hom_search(make_cycle(m), g).found]
        assert hits and hits[0] == odd_girth(g) == 5

    @given(small_graphs)
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_cycle_map_search(self, g):
        # oracle: odd girth == least odd m with a map C_m -> g (scanned to 9)
        found = math.inf
        for m in (3, 5, 7, 9):
            if hom_search(make_cycle(m), g).found:
                found = m
                break
        expected = odd_girth(g)
        if expected <= 9:
            assert found == expected
        else:
            assert found == math.inf


class TestKneserWalkTest:
    def test_simple_instance(self):
        assert kneser_walk_test(5, 2, (1, 2), (1, 3), 1)

    def test_equal_sets_always_pass(self):
        for s in range(1, 5):
            assert kneser_walk_test(5, 2, (1, 2), (1, 2), s)

    def test_far_apart_in_k73(self):
        assert not kneser_walk_test(7, 3, (1, 2, 3), (4, 5, 6), 1)
        g = make_kneser(7, 3)
        ball = walk_neighborhood(g, (1, 2, 3), 2)
        assert g.index_of((4, 5, 6)) not in ball

    def test_malformed(self):
        with pytest.raises(ValueError):
            kneser_walk_test(5, 2, (1, 2, 3), (1, 2), 1)
        with pytest.raises(ValueError):
            kneser_walk_test(5, 2, (0, 2), (1, 2), 1)
        with pytest.raises(ValueError):
            kneser_walk_test(4, 2, (1, 2), (3, 4), 1)  # needs n > 2k

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 2)])
    def test_matches_walk_balls(self, n, k):
        g = make_kneser(n, k)
        for s in (1, 2):
            for a in g.vertices:
                ball = set(walk_neighborhood(g, a, 2 * s))
                for b in g.vertices:
                    assert kneser_walk_test(n, k, a, b, s) == (g.index_of(b) in ball)


class TestHomSearch:
    def test_wraparound_map(self):
        out = hom_search(make_cycle(9), make_cycle(3))
        assert out.found
        assert validate_hom(out.mapping, make_cycle(9), make_cycle(3))

    def test_self_map(self):
        g = make_cycle(5)
        out = hom_search(g, g)
        assert out.found and validate_hom(out.mapping, g, g)

    def test_petersen_to_c5_has_none(self):
        out = hom_search(make_kneser(5, 2), make_cycle(5))
        assert out.status == "none"

    def test_budget_exceeded(self):
        out = hom_search(make_kneser(5, 2), make_cycle(5), budget=10)
        assert out.status == "budget-exceeded" and out.mapping is None

    def test_empty_source(self):
        assert hom_search(Graph([]), make_cycle(3)).found

    def test_empty_target(self):
        assert hom_search(make_cycle(3), Graph([])).status == "none"

    def test_deterministic(self):
        a = hom_search(make_cycle(9), make_cycle(3))
        b = hom_search(make_cycle(9), make_cycle(3))
        assert a == b

    @given(small_graphs, small_graphs)
    @settings(max_examples=30, deadline=None)
    def test_found_maps_validate_and_respect_girth(self, g, h):
        out = hom_search(g, h, budget=200_000)
        if out.found:
            assert validate_hom(out.mapping, g, h)
            assert odd_girth(g) >= odd_girth(h)


class TestHomSearchAgainstSets:
    """The bit-mask search walks the set-based search's tree: equal status,
    mapping and expansion count on every input and budget."""

    @given(graphs_with_loops(7), graphs_with_loops(6), st.data())
    @settings(max_examples=400, deadline=None)
    def test_equals_reference(self, g, h, data):
        full = reference_search(g, h)
        assert hom_search(g, h) == full
        # from no expansion at all to past the need: every budget-exceeded path
        budget = data.draw(st.integers(min_value=0, max_value=full.expansions + 2))
        assert hom_search(g, h, budget) == reference_search(g, h, budget)

    def test_loops_on_both_sides(self):
        g = Graph(range(3), [(0, 0), (0, 1), (1, 2)])
        h = Graph(range(3), [(0, 1), (2, 2), (1, 2)])
        out = hom_search(g, h)
        assert out == reference_search(g, h)
        assert out.found and out.mapping[0] == 2 and validate_hom(out.mapping, g, h)

    def test_loop_without_loop_targets_has_none(self):
        g = Graph(range(2), [(0, 0), (0, 1)])
        out = hom_search(g, make_cycle(5))
        assert out == reference_search(g, make_cycle(5))
        assert out.status == "none"


def _disjoint_union(*parts):
    edges, offset = [], 0
    for part in parts:
        edges += [(offset + i, offset + j) for i, j in part.edges()]
        offset += part.n_vertices
    return Graph(range(offset), edges)


def _complete(m):
    return Graph(range(m), itertools.combinations(range(m), 2))


# Targets with nontrivial automorphisms, so root subtrees get skipped: cycles,
# complete graphs, Petersen, two components (C5+C5 swaps them; in C5+K3 every
# vertex has degree 2 but no automorphism mixes the parts), a triangle of
# looped vertices next to a plain triangle (same degrees, different loops),
# and C6 with the chord 3-5 (degree-2 vertices in and out of the triangle).
ORBIT_TARGETS = (
    [make_cycle(m) for m in range(3, 10)]
    + [_complete(m) for m in range(1, 6)]
    + [
        make_kneser(5, 2),
        _disjoint_union(make_cycle(5), make_cycle(5)),
        _disjoint_union(make_cycle(5), make_cycle(3)),
        Graph(range(6), [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0),
                         (3, 4), (4, 5), (5, 3)]),
        Graph(range(6), [(i, (i + 1) % 6) for i in range(6)] + [(3, 5)]),
    ]
)


class TestRootOrbitSkip:
    """Skipping root targets in the orbit of a failed one leaves every
    outcome equal to the search without the skip."""

    @given(st.one_of(loopless_graphs(8), graphs_with_loops(8)),
           st.sampled_from(ORBIT_TARGETS), st.data())
    @settings(max_examples=400, deadline=None)
    def test_equals_reference(self, g, h, data):
        full = reference_search(g, h)
        assert hom_search(g, h) == full
        budget = data.draw(st.integers(min_value=0, max_value=full.expansions + 2))
        assert hom_search(g, h, budget) == reference_search(g, h, budget)

    @pytest.mark.parametrize("h", ORBIT_TARGETS[-3:], ids=["C5+K3", "loops", "C6+chord"])
    @pytest.mark.parametrize("g", [
        _complete(3),
        Graph(range(4), [(0, 1), (1, 2), (2, 0), (2, 3)]),
        Graph(range(4), [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)]),
        Graph(range(9), [(i, i + 1) for i in range(6)] + [(6, 7), (7, 8), (8, 6)]),
    ], ids=["K3", "K3+pendant", "diamond", "K3+path"])
    def test_equal_degrees_in_different_orbits(self, g, h):
        # the first root targets fail; a later one of the same degree is in
        # another orbit and holds the map.  With K3+path the failed subtrees
        # are large enough for the automorphism searches to run.
        out = hom_search(g, h)
        assert out == reference_search(g, h)
        assert out.found and validate_hom(out.mapping, g, h)

    def test_skips_happen(self, monkeypatch):
        found = []

        def counting(*args):
            sigma, steps = _automorphism(*args)
            found.append(sigma is not None)
            return sigma, steps

        monkeypatch.setattr(graphs, "_automorphism", counting)
        g, c5 = make_kneser(5, 2), make_cycle(5)
        out = hom_search(g, c5)
        assert out == reference_search(g, c5)
        assert found.count(True) == 4  # roots 1-4 are images of root 0

    def test_budget_inside_a_skipped_subtree(self):
        g, c5 = make_kneser(5, 2), make_cycle(5)
        size = reference_search(g, c5).expansions // 5
        for budget in (size, size + 1, 3 * size - 1, 3 * size, 3 * size + 1):
            out = hom_search(g, c5, budget)
            assert out == reference_search(g, c5, budget)
        out = hom_search(g, c5, 3 * size - 1)
        assert (out.status, out.mapping, out.expansions) == ("budget-exceeded", None, 3 * size)


# The triangular prism: vertex-transitive, but of the three neighbours of
# vertex 0 only 1 and 2 are swapped by an automorphism fixing 0, though all
# three are at distance 1 from it.
PRISM = Graph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                         (0, 3), (1, 4), (2, 5)])

# Targets whose automorphisms fixing the assigned targets are many, so that
# subtrees below the root get skipped: complete graphs (the stabilizer of T
# permutes the other vertices freely), Petersen, two pentagons, and the
# prism, where an automorphism that moved the assigned targets would give
# other counts.
DEEP_TARGETS = [_complete(m) for m in range(2, 6)] + [
    make_kneser(5, 2),
    _disjoint_union(make_cycle(5), make_cycle(5)),
    PRISM,
]


# Sources whose searches keep failed subtrees of more than 8 * nH
# expansions below the root, where the skips run: random graphs this small
# fail too quickly.
DEEP_SOURCES = [mycielskian(make_cycle(7)), mycielskian(make_cycle(5)), make_kneser(6, 2)]


@st.composite
def relabelled(draw, graphs):
    """One of ``graphs`` with its vertex indices permuted."""
    g = draw(st.sampled_from(graphs))
    p = draw(st.permutations(range(g.n_vertices)))
    return Graph(range(g.n_vertices), [(p[i], p[j]) for i, j in g.edges()])


class TestOrbitSkipAtEveryDepth:
    """Skipping a candidate that an automorphism fixing the assigned targets
    maps onto a failed sibling leaves every outcome equal to the search
    without the skip, at every budget."""

    @given(loopless_graphs(9), st.sampled_from(DEEP_TARGETS))
    @settings(max_examples=120, deadline=None)
    def test_every_budget_equals_reference(self, g, h):
        full = reference_search(g, h)
        assert hom_search(g, h) == full
        for budget in range(full.expansions + 3):
            assert hom_search(g, h, budget) == reference_search(g, h, budget)

    @given(relabelled(DEEP_SOURCES), relabelled(DEEP_TARGETS), st.data())
    @settings(max_examples=150, deadline=None)
    def test_deep_skips_equal_reference(self, g, h, data):
        full = reference_search(g, h)
        assert hom_search(g, h) == full
        budget = data.draw(st.integers(min_value=0, max_value=full.expansions + 2))
        assert hom_search(g, h, budget) == reference_search(g, h, budget)

    def test_automorphisms_fix_the_assigned_targets(self):
        # K(6,2) -> prism: at a node where T = {0}, candidate 1 fails after
        # more than 8 * 6 expansions; an automorphism maps 1 to 3, but none
        # fixing 0, and the subtree under 3 differs in size from the one
        # under 1.  Searched without the pins, the count is 6,516.
        g = make_kneser(6, 2)
        full = reference_search(g, PRISM)
        assert (full.status, full.expansions) == ("none", 5_712)
        n = full.expansions
        for budget in [*range(0, n, 41), *range(n - 2, n + 3)]:
            assert hom_search(g, PRISM, budget) == reference_search(g, PRISM, budget)

    @pytest.mark.parametrize("g, h", [
        # the rigid graph of TestAutomorphism.test_rigid_graph: no
        # automorphism search can succeed
        (mycielskian(mycielskian(make_cycle(5))),
         Graph(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5)])),
        (make_kneser(7, 3), make_cycle(7)),
    ], ids=["M(Grotzsch)->rigid", "K(7,3)->C7"])
    def test_automorphism_steps_within_expansions(self, monkeypatch, g, h):
        spent = []

        def counting(*args):
            sigma, steps = _automorphism(*args)
            spent.append(steps)
            return sigma, steps

        monkeypatch.setattr(graphs, "_automorphism", counting)
        out = hom_search(g, h)
        assert out.status == "none"
        assert spent and sum(spent) <= out.expansions


# Targets with a vertex of two non-neighbours, where hom_search screens
# candidates: cycles, Petersen, the prism, and the three last orbit targets
# (C5+K3, the looped triangle next to a plain one, C6 with a chord), where
# the first candidates are often screened out below a map found later.
SCREENED_TARGETS = [make_cycle(m) for m in range(5, 10)] + [
    make_kneser(5, 2), PRISM, *ORBIT_TARGETS[-3:],
]

# Targets where no vertex has two non-neighbours, where the screen is off:
# complete graphs, and K3 with one looped vertex or all three.
UNSCREENED_TARGETS = [_complete(m) for m in range(2, 6)] + [
    Graph(range(3), [(0, 0), (0, 1), (1, 2), (2, 0)]),
    Graph(range(3), [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0)]),
]


@st.composite
def one_loop(draw, graphs):
    """One of ``graphs`` with a loop added at one vertex: on a loopless
    target that vertex's set is empty from the start."""
    g = draw(graphs)
    v = draw(st.integers(0, g.n_vertices - 1))
    return Graph(range(g.n_vertices), g.edges() + [(v, v)])


class TestCandidateScreen:
    """Screening out the candidates that wipe out a later neighbour's set,
    each counted as one expansion on leaving the node or below a found
    candidate, leaves every outcome equal to the plain search at every
    budget.  Looped sources on loopless targets start with empty sets."""

    def test_targets_on_both_sides_of_the_gate(self):
        def two_non_neighbours(h):
            return any(h.n_vertices - len(nbrs) >= 2 for nbrs in h.adj)

        assert all(two_non_neighbours(h) for h in SCREENED_TARGETS)
        assert not any(two_non_neighbours(h) for h in UNSCREENED_TARGETS)

    @given(st.one_of(loopless_graphs(8), graphs_with_loops(8), one_loop(loopless_graphs(8))),
           st.sampled_from(SCREENED_TARGETS + UNSCREENED_TARGETS))
    @settings(max_examples=500, deadline=None)
    def test_every_budget_equals_reference(self, g, h):
        full = reference_search(g, h)
        assert hom_search(g, h) == full
        for budget in range(full.expansions + 3):
            assert hom_search(g, h, budget) == reference_search(g, h, budget)

    def test_empty_set_is_not_screened(self):
        # a triangle with a looped pendant vertex 3, assigned last: its set is
        # empty from the start, so every root candidate is searched (one
        # expansion, then two that wipe out vertex 2) before the search fails
        g = Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (3, 3)])
        out = hom_search(g, make_cycle(5))
        assert out == reference_search(g, make_cycle(5))
        assert (out.status, out.expansions) == ("none", 15)

    def test_screened_candidates_below_a_found_map(self):
        # K3 -> C6 with the chord 3-5: the map to the triangle 3-4-5 is found
        # after screened-out candidates below it; they count in its 13
        # expansions, and one budget short the map is not reported
        g, h = _complete(3), ORBIT_TARGETS[-1]
        out = hom_search(g, h)
        assert out == reference_search(g, h)
        assert (out.status, out.mapping, out.expansions) == ("found", (3, 4, 5), 13)
        out = hom_search(g, h, budget=12)
        assert out == reference_search(g, h, budget=12)
        assert (out.status, out.mapping, out.expansions) == ("budget-exceeded", None, 13)

    def test_found_budget_boundary_on_kneser_73_to_petersen(self):
        # in generator order; the budget trips on the last counted candidate
        g, h = make_kneser(7, 3), make_kneser(5, 2)
        full = hom_search(g, h)
        out = hom_search(g, h, budget=756_382)
        assert (out.status, out.mapping, out.expansions) == ("budget-exceeded", None, 756_383)
        assert hom_search(g, h, budget=756_383) == full
        assert (full.status, full.expansions) == ("found", 756_383)


@st.composite
def sparse_unions(draw):
    """Disjoint unions of 12 to 18 vertices in a random order, made of
    blocks of 2 to 7 vertices: sparse random graphs, where a vertex may
    carry a loop, random bipartite graphs and odd cycles.  The search meets
    the same states below many assignments of the other blocks, so its
    memo keeps and reuses failed subtrees."""
    edges, n, goal = [], 0, draw(st.integers(min_value=12, max_value=18))
    while n < goal:
        kind = draw(st.sampled_from(["sparse", "bipartite", "cycle"]))
        if kind == "cycle":
            size = draw(st.sampled_from([3, 5, 7]))
            block = [(i, (i + 1) % size) for i in range(size)]
        else:
            size = draw(st.integers(min_value=2, max_value=7))
            side = draw(st.integers(min_value=1, max_value=size - 1))
            pairs = [(i, j) for i in range(size) for j in range(i, size)
                     if (kind == "sparse" and i != j) or (i < side <= j)]
            # about one pair in three is an edge
            bits = draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
            block = [e for e, b in zip(pairs, bits) if not b]
            if kind == "sparse" and draw(st.integers(0, 7)) == 0:
                v = draw(st.integers(0, size - 1))
                block.append((v, v))
        edges += [(n + i, n + j) for i, j in block]
        n += size
    order = draw(st.permutations(range(n)))
    return Graph(range(n), [(order[i], order[j]) for i, j in edges])


@st.composite
def sparse_cubic(draw):
    """A random cubic graph on 12 to 18 vertices less up to three edges,
    now and then with a loop: sparse sources whose searches into small
    targets fail deep and often keep and reuse failed subtrees."""
    n = draw(st.sampled_from([12, 14, 16, 18]))
    edges = random_cubic_graph(n, draw(st.integers(0, 2**32))).edges()
    for _ in range(draw(st.integers(0, 3))):
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    if draw(st.integers(0, 9)) == 0:
        v = draw(st.integers(0, n - 1))
        edges.append((v, v))
    return Graph(range(n), edges)


MEMO_TARGETS = [make_cycle(5), make_cycle(7), _complete(4), make_kneser(5, 2)]


class TestSubtreeMemo:
    """Adding a kept count in place of a failed subtree whose depth and read
    sets match leaves every outcome equal to the plain search, at every
    budget."""

    @given(st.one_of(sparse_unions(), sparse_cubic()), st.sampled_from(MEMO_TARGETS),
           st.data())
    @settings(max_examples=500, deadline=None)
    def test_equals_reference(self, g, h, data):
        full = reference_search(g, h, budget=5_000)  # larger searches are left out
        assume(full.status != "budget-exceeded")
        assert hom_search(g, h) == full
        budget = data.draw(st.integers(min_value=0, max_value=full.expansions + 2))
        assert hom_search(g, h, budget) == reference_search(g, h, budget)

    @given(st.one_of(sparse_unions(), sparse_cubic()), st.sampled_from(MEMO_TARGETS))
    @settings(max_examples=150, deadline=None)
    def test_every_budget_equals_reference(self, g, h):
        full = reference_search(g, h, budget=300)
        assume(full.status != "budget-exceeded")
        assert hom_search(g, h) == full
        for budget in range(full.expansions + 3):
            assert hom_search(g, h, budget) == reference_search(g, h, budget)

    def test_repeated_subtrees_are_not_searched_again(self):
        # K(7,3) -> C7 in generator order enters 35,855 nodes without the
        # memo, 17,451 of them at depth 14
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_name == "backtrack":
                calls += 1

        sys.setprofile(count)
        try:
            out = hom_search(make_kneser(7, 3), make_cycle(7))
        finally:
            sys.setprofile(None)
        assert (out.status, out.expansions) == ("none", 2_108_603)
        assert calls < 16_000  # 14,366 with the memo

    def test_memo_starts_again_when_full(self, monkeypatch):
        # K(7,3) -> C7 keeps 2,645 failed subtrees; a cap of 64 holds the
        # memo's memory to a small fraction of keeping them all
        g, c7 = make_kneser(7, 3), make_cycle(7)
        peaks = {}
        for cap in (64, 10**9):
            monkeypatch.setattr(graphs, "_MEMO_CAP", cap)
            tracemalloc.start()
            try:
                out = hom_search(g, c7)
                peaks[cap] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (out.status, out.expansions) == ("none", 2_108_603)
        assert peaks[64] < 64 * 1024 and 3 * peaks[64] < peaks[10**9]


class TestAutomorphism:
    def test_c7_rotation_or_reflection(self):
        c7 = make_cycle(7)
        sigma, steps = _automorphism(c7, 0, 3, 100)
        assert sigma[0] == 3 and sorted(sigma) == list(range(7))
        assert validate_hom(sigma, c7, c7)
        assert steps == 7 + 6  # the order, then one candidate per vertex

    def test_degree_mismatch(self):
        path = Graph(range(3), [(0, 1), (1, 2)])
        assert _automorphism(path, 0, 1, 100) == (None, 0)

    def test_loop_mismatch(self):
        # 0 and 1 both have degree 1; only 0 carries a loop
        g = Graph(range(3), [(0, 0), (1, 2)])
        assert _automorphism(g, 0, 1, 100) == (None, 0)

    def test_rigid_graph(self):
        # a path 0-1-2-3-4 with 5 joined to 2 and 3: only the identity
        g = Graph(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5)])
        autos = [p for p in itertools.permutations(range(6)) if validate_hom(p, g, g)]
        assert autos == [tuple(range(6))]
        for a, b in itertools.permutations(range(6), 2):
            assert _automorphism(g, a, b, 10_000)[0] is None

    def test_allowance_caps_the_steps(self):
        c7 = make_cycle(7)
        assert _automorphism(c7, 0, 3, 6) == (None, 0)
        assert _automorphism(c7, 0, 3, 9) == (None, 9)
        assert _automorphism(c7, 0, 3, 13)[0] is not None

    def test_pinned_targets_stay_fixed(self):
        c7 = make_cycle(7)
        sigma, _ = _automorphism(c7, 1, 6, 100, fixed=[0])
        assert sigma == (0, 6, 5, 4, 3, 2, 1)  # the reflection through 0
        assert _automorphism(c7, 1, 2, 100, fixed=[0])[0] is None
        assert _automorphism(c7, 2, 4, 100, fixed=[0])[0] is None

    def test_inconsistent_pins(self):
        c7 = make_cycle(7)
        assert _automorphism(c7, 1, 2, 100, fixed=[1]) == (None, 0)  # 1 sent to 1 and 2
        assert _automorphism(c7, 1, 2, 100, fixed=[2]) == (None, 0)  # 2 the image of both
        assert _automorphism(c7, 1, 3, 100, fixed=[0]) == (None, 0)  # 0 next to 1, not 3

    @given(graphs_with_loops(6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, g, data):
        n = g.n_vertices
        if n == 0:
            return
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        fixed = data.draw(st.sets(st.integers(0, n - 1)))
        autos = [p for p in itertools.permutations(range(n))
                 if p[a] == b and all(p[t] == t for t in fixed)
                 and validate_hom(p, g, g)]
        sigma, _ = _automorphism(g, a, b, 10**6, fixed)
        assert (sigma is not None) == bool(autos)
        if sigma is not None:
            assert sigma in autos


class TestSearchCounts:
    """The expansion counts the benchmark's verdict workload relies on, with
    both graphs in generator order."""

    def test_kneser_73_to_c7_has_none(self):
        out = hom_search(make_kneser(7, 3), make_cycle(7))
        assert (out.status, out.expansions) == ("none", 2_108_603)

    def test_kneser_73_to_petersen(self):
        g, h = make_kneser(7, 3), make_kneser(5, 2)
        out = hom_search(g, h)
        assert (out.status, out.expansions) == ("found", 756_383)
        assert validate_hom(out.mapping, g, h)

    def test_budget_guard_on_double_mycielskian(self):
        g = mycielskian(mycielskian(make_cycle(5)))
        k4 = Graph(range(4), itertools.combinations(range(4), 2))
        out = hom_search(g, k4, budget=5_000)
        assert (out.status, out.mapping, out.expansions) == ("budget-exceeded", None, 5_001)

    def test_triple_mycielskian_to_k5_has_none(self):
        # chromatic number 6; the count is that of the search without skips
        g = mycielskian(mycielskian(mycielskian(make_cycle(5))))
        out = hom_search(g, _complete(5), budget=10**9)
        assert (out.status, out.expansions) == ("none", 791_210_820)


class TestValidateHom:
    def test_identity(self):
        g = make_cycle(5)
        assert validate_hom(tuple(range(5)), g, g)

    def test_constant_map_fails_without_loops(self):
        g = make_cycle(5)
        assert not validate_hom((0,) * 5, g, g)

    def test_mod3_map(self):
        f = tuple(i % 3 for i in range(9))
        g, h = make_cycle(9), make_cycle(3)
        # oracle: check all nine edges by hand
        for i in range(9):
            assert h.has_edge(f[i], f[(i + 1) % 9])
        assert validate_hom(f, g, h)

    def test_partial_map_rejected(self):
        with pytest.raises(ValueError):
            validate_hom((0, 1), make_cycle(5), make_cycle(5))


class TestIO:
    def test_json_roundtrip_with_tuple_labels(self, tmp_path):
        g = make_kneser(4, 2)
        obj = graph_to_json_obj(g)
        back = graph_from_json_obj(json.loads(json.dumps(obj)))
        assert back == g and back.tag == g.tag

    def test_loader_symmetrizes(self):
        g = graph_from_json_obj({"vertices": [0, 1], "edges": [[0, 1]]})
        assert g.has_edge(1, 0)

    def test_edge_list_with_comments(self):
        g = parse_edge_list("# a triangle\n0 1\n1 2\n2 0  # closing edge\n\n")
        assert g.n_vertices == 3 and g.edge_count() == 3

    def test_edge_list_bad_line(self):
        with pytest.raises(ValueError):
            parse_edge_list("0 1 2\n")

    def test_edge_list_roundtrip(self):
        g = make_cycle(4)
        back = parse_edge_list(format_edge_list(g))
        # vertex order follows first appearance in the text, so compare labels
        assert set(back.vertices) == set(g.vertices)
        label_edges = lambda gr: {
            frozenset((gr.vertices[i], gr.vertices[j])) for i, j in gr.edges()
        }
        assert label_edges(back) == label_edges(g)

    def test_connectivity_helper(self):
        assert is_connected(make_cycle(4))
        assert not is_connected(Graph(range(2)))
