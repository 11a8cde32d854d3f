import itertools
import json
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (checked_poset, euler_characteristic, face_counts, full_simplex,
                      simplex_boundary, walk_neighborhood)
import pair_poset_oracle
from quotient_oracle import barycentric_subdivision, face_poset
from nbhd import (
    Graph,
    ResourceLimitError,
    SimplicialComplex,
    complex_from_json_obj,
    complex_to_json_obj,
    homology,
    make_cycle,
    make_kneser,
    neighborhood_complex,
    order_complex,
    pair_poset,
    pair_swap_involution,
)
from nbhd.complexes import _face_levels, sorted_labels
from nbhd.graphs import walk_ball


def naive_from_faces(faces):
    """Oracle: vertices and facets of the complex generated by ``faces``, by
    frozenset containment."""
    sets = {frozenset(f) for f in faces if f}
    kept = {f for f in sets if not any(f < g for g in sets)}
    vertices = tuple(sorted_labels(set().union(*sets)))
    index = {v: i for i, v in enumerate(vertices)}
    return vertices, tuple(sorted(tuple(sorted(index[v] for v in f)) for f in kept))


def brute_pair_poset_elements(G, r):
    """Oracle: enumerate every (A, B) pair of nonempty vertex sets directly
    and keep those where each member of B is an exact-r walk from each member
    of A."""
    n = G.n_vertices
    balls = [set(walk_neighborhood(G, G.vertices[i], r)) for i in range(n)]
    out = set()
    verts = range(n)
    for ka in range(1, n + 1):
        for a in itertools.combinations(verts, ka):
            for kb in range(1, n + 1):
                for b in itertools.combinations(verts, kb):
                    if all(y in balls[x] for x in a for y in b):
                        out.add(
                            (
                                tuple(G.vertices[i] for i in a),
                                tuple(G.vertices[j] for j in b),
                            )
                        )
    return out


looped_graphs = st.integers(1, 7).flatmap(lambda n: st.builds(
    lambda edges: Graph(range(n), edges),
    st.sets(st.sampled_from(list(itertools.combinations_with_replacement(range(n), 2))))))

mixed_label_graphs = st.integers(1, 7).flatmap(lambda n: st.builds(
    lambda labels, edges: Graph(labels, [(labels[i], labels[j]) for i, j in edges]),
    st.lists(st.one_of(st.integers(-9, 9), st.text("xyz", max_size=2),
                       st.tuples(st.integers(0, 2))), min_size=n, max_size=n, unique=True),
    st.sets(st.sampled_from(list(itertools.combinations_with_replacement(range(n), 2))))))

small_graphs = st.builds(
    lambda n, bits: Graph(
        range(n),
        [e for e, b in zip(itertools.combinations(range(n), 2), bits) if b],
    ),
    st.integers(min_value=2, max_value=5),
    st.lists(st.booleans(), min_size=10, max_size=10),
)


class TestSimplicialComplex:
    def test_from_faces_maximalizes(self):
        K = SimplicialComplex.from_faces([(0, 1), (0, 1, 2), (2,)])
        assert K.facet_label_sets() == frozenset({frozenset({0, 1, 2})})

    @given(st.lists(st.lists(st.one_of(st.integers(0, 9), st.sampled_from("abcde")),
                             max_size=5), max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_from_faces_keeps_maximal_distinct_faces(self, faces):
        # mixed int/str labels take sorted_labels' type/repr order
        K = SimplicialComplex.from_faces(iter(faces))
        assert (K.vertices, K.facets) == naive_from_faces(faces)

    @pytest.mark.parametrize("facets", [
        [(0, 1), (0, 1, 2)],
        [(0, 1, 2), (1, 2)],
        [(0, 1), (0, 1)],
    ])
    def test_constructor_rejects_nested_or_repeated_facets(self, facets):
        with pytest.raises(ValueError):
            SimplicialComplex(("a", "b", "c"), facets)

    @given(st.lists(st.sets(st.integers(0, 5), max_size=4), max_size=9),
           st.lists(st.integers(0, 8), max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_constructor_nesting_check_matches_pairwise_check(self, sets, repeats):
        # the mask check accepts exactly the facet lists that no ordered
        # pair nests or repeats in; repeats copy earlier facets, and the
        # empty facet is nested in any other
        facets = [tuple(sorted(s)) for s in sets]
        facets += [facets[i] for i in repeats if i < len(facets)]
        nested = any(set(a) <= set(b) for a, b in itertools.permutations(facets, 2))
        try:
            K = SimplicialComplex(range(6), facets)
        except ValueError:
            assert nested
        else:
            assert not nested and sorted(K.facets) == sorted(facets)

    def test_face_enumeration_counts(self):
        K = full_simplex(2)
        assert face_counts(K) == (3, 3, 1)
        assert face_counts(simplex_boundary(2)) == (3, 3)

    def test_face_limit(self):
        K = simplex_boundary(5)
        with pytest.raises(ResourceLimitError):
            K.faces(limit=10)

    def test_face_limit_inside_a_level(self):
        # 6 vertices, then the 11th face is the 5th of 15 edges
        with pytest.raises(ResourceLimitError) as err:
            simplex_boundary(5).faces(limit=10)
        assert (err.value.count, err.value.limit) == (11, 10)
        assert "face enumeration" in str(err.value)

    @pytest.mark.parametrize("facets", [
        [(0.5, 1), (1, 2)],
        [("0", "1")],
        [(0, None)],
    ])
    def test_constructor_rejects_non_integer_indices(self, facets):
        with pytest.raises(ValueError):
            SimplicialComplex(("a", "b", "c"), facets)

    def test_constructor_stores_plain_int_indices(self):
        K = SimplicialComplex(("a", "b", "c"), [(False, True), (True, 2)])
        assert K.facets == ((0, 1), (1, 2))
        assert all(type(i) is int for f in K.facets for i in f)

    def test_face_limit_holds_on_cached_faces(self):
        K = neighborhood_complex(make_cycle(9), 3)
        assert sum(map(len, K.faces().values())) == 72
        with pytest.raises(ResourceLimitError) as err:
            K.faces(limit=10)
        assert (err.value.count, err.value.limit) == (72, 10)

    def test_euler_characteristic(self):
        assert euler_characteristic(simplex_boundary(3)) == 2  # a 2-sphere
        assert euler_characteristic(simplex_boundary(4)) == 0  # a 3-sphere
        assert euler_characteristic(full_simplex(3)) == 1

    def test_has_face(self):
        K = simplex_boundary(2)
        assert K.has_face_indices((0, 1)) and not K.has_face_indices((0, 1, 2))

    def test_equality_ignores_vertex_order(self):
        a = SimplicialComplex.from_faces([(1, 0), (1, 2)])
        b = SimplicialComplex.from_faces([(2, 1), (0, 1)])
        assert a == b

    def test_json_roundtrip(self):
        K = neighborhood_complex(make_kneser(4, 2), 1)
        back = complex_from_json_obj(json.loads(json.dumps(complex_to_json_obj(K))))
        assert back == K


def subsets_by_dim(facets, seeds):
    """Oracle: every nonempty subset of a facet that starts on a seed,
    deduplicated and sorted, one list per dimension."""
    faces = {sub for f in facets for k in range(1, len(f) + 1)
             for sub in itertools.combinations(f, k) if sub[0] in seeds}
    top = max(map(len, faces), default=0)
    return [sorted(f for f in faces if len(f) == k) for k in range(1, top + 1)]


facet_sets = st.one_of(
    st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=6), max_size=8),
    st.integers(0, 5).map(lambda k: [set(f) for f in simplex_boundary(k).facets]),
    st.lists(st.integers(0, 9).map(lambda v: {v}), max_size=6),
).map(lambda fs: [tuple(sorted(f)) for f in fs])


class TestFaceLevels:
    @pytest.mark.parametrize("step", [1, 2], ids=["all", "even"])
    @given(facets=facet_sets)
    @settings(max_examples=300, deadline=None)
    def test_against_all_subsets(self, step, facets):
        # facets may be nested, repeated or singletons; with even seeds the
        # levels are the orbit faces z2_height reads
        seeds = range(0, 10, step)
        got = list(_face_levels(facets, seeds, None, "face enumeration"))
        assert got == subsets_by_dim(facets, set(seeds))

    def test_stops_inside_a_level(self):
        # the full 23-simplex has 24 / 276 / 2,024 / 10,626 faces in
        # dimensions 0-3: past the limit, the rest of dimension 3 is not made
        levels = _face_levels([tuple(range(24))], range(24), 24 + 276 + 2024 + 10, "stage")
        assert [len(next(levels)) for _ in range(3)] == [24, 276, 2024]
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as err:
                next(levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.count, err.value.limit) == (2335, 2334)
        assert "stage" in str(err.value)
        assert peak < 100_000


class TestNeighborhoodComplex:
    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_tight_odd_cycle_is_simplex_boundary(self, r):
        K = neighborhood_complex(make_cycle(r + 2), r)
        verts = range(r + 2)
        expected = frozenset(
            frozenset(v for v in verts if v != drop) for drop in verts
        )
        assert K.facet_label_sets() == expected

    @pytest.mark.parametrize("r", [2, 4])
    def test_tight_even_cycle_splits_into_parity_simplices(self, r):
        # C_{r+2} is bipartite for even r, so exact-length walks stay on one
        # side: the complex is two disjoint (r/2)-simplices, not a sphere
        K = neighborhood_complex(make_cycle(r + 2), r)
        expected = frozenset(
            {
                frozenset(range(0, r + 2, 2)),
                frozenset(range(1, r + 2, 2)),
            }
        )
        assert K.facet_label_sets() == expected
        assert homology(K).betti_vector == (2,) + (0,) * (r // 2)

    def test_edgeless_graph_gives_empty_complex(self):
        K = neighborhood_complex(Graph(range(4)), 1)
        assert K.n_vertices == 0 and K.facets == ()

    def test_c7_radius1_facets(self):
        K = neighborhood_complex(make_cycle(7), 1)
        expected = frozenset(
            frozenset(((v - 1) % 7, (v + 1) % 7)) for v in range(7)
        )
        assert K.facet_label_sets() == expected

    def test_radius_zero_rejected(self):
        with pytest.raises(ValueError):
            neighborhood_complex(make_cycle(5), 0)

    @given(small_graphs, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_radius1_matches_maximal_open_neighborhoods(self, g, rnd):
        # classical construction: facets are the maximal N(v)
        balls = [frozenset(g.adj[v]) for v in range(g.n_vertices) if g.adj[v]]
        maximal = {b for b in balls if not any(b < c for c in balls)}
        K = neighborhood_complex(g, 1)
        assert K.facet_label_sets() == frozenset(maximal)
        # at radii 1..3, on labels reshuffled against the vertex order: the
        # vertices and facets generated by the walk balls
        n = g.n_vertices
        labels = rnd.sample(range(100), n)
        order = rnd.sample(range(n), n)
        h = Graph([labels[i] for i in order], [(labels[i], labels[j]) for i, j in g.edges()])
        for r in (1, 2, 3):
            K = neighborhood_complex(h, r)
            ref = naive_from_faces(
                [h.vertices[j] for j in walk_neighborhood(h, v, r)] for v in h.vertices)
            assert (K.vertices, K.facets) == ref

    @given(mixed_label_graphs, st.integers(min_value=1, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_index_build_matches_from_faces(self, g, r):
        # the builder works on ball indices; ``from_faces`` over the balls'
        # labels is the reference, loops, nested and empty balls and labels
        # that do not compare included
        ref = SimplicialComplex.from_faces(
            [g.vertices[j] for j in walk_ball(g, i, r)] for i in range(g.n_vertices))
        K = neighborhood_complex(g, r)
        assert (K.vertices, K.facets) == (ref.vertices, ref.facets)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_nested_and_empty_balls(self, r):
        # a path with a pendant loop, a triangle and an isolated vertex, on
        # labels of three types: at r=1 the ball of "a" lies in that of "c"
        g = Graph(["a", "b", "c", 7, (1, 2), 0, "z"],
                  [("a", "b"), ("b", "c"), ("c", 7), (7, 7), ((1, 2), 0), (0, "z"), ("z", (1, 2))])
        ref = SimplicialComplex.from_faces(
            [g.vertices[j] for j in walk_ball(g, i, r)] for i in range(g.n_vertices))
        K = neighborhood_complex(g, r)
        assert (K.vertices, K.facets) == (ref.vertices, ref.facets)
        assert len(K.facets) < sum(1 for i in range(g.n_vertices) if walk_ball(g, i, r))

    @given(small_graphs, st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_faces_pairwise_linked_at_double_radius(self, g, r):
        K = neighborhood_complex(g, r)
        for lst in K.faces().values():
            for f in lst:
                labels = K.face_labels(f)
                for u, v in itertools.combinations(labels, 2):
                    assert u in walk_neighborhood(g, v, 2 * r)


_successors = {}  # the last poset searched, and its successor lists


def leq(P, i, j):
    """Oracle: ``i <= j`` in the order the covers of ``P`` generate, by a
    search up the covers from ``i``.  The successor lists are built once per
    poset, so a search reads each cover it reaches once."""
    if P not in _successors:
        _successors.clear()
        _successors[P] = [[] for _ in P.elements]
        for a, b in P.covers:
            _successors[P][a].append(b)
    succ, above, seen = _successors[P], [i], {i}
    for a in above:
        for b in succ[a]:
            if b not in seen:
                seen.add(b)
                above.append(b)
    return j in seen


class TestPairPoset:
    def test_c3_element_count_and_set(self):
        g = make_cycle(3)
        P = pair_poset(g, 1)
        brute = brute_pair_poset_elements(g, 1)
        assert set(P.elements) == brute
        assert P.n_elements == len(brute) == 12  # 3^3 - 2*2^3 + 1

    def test_k4_element_count(self):
        g = make_kneser(4, 1)
        P = pair_poset(g, 1)
        assert P.n_elements == len(brute_pair_poset_elements(g, 1)) == 50

    def test_unrelated_graph_gives_empty_poset(self):
        P = pair_poset(Graph(range(3)), 1)
        assert P.n_elements == 0

    def test_covers_are_single_extensions(self):
        g = make_cycle(3)
        P = pair_poset(g, 1)
        for a, b in P.covers:
            (A1, B1), (A2, B2) = P.elements[a], P.elements[b]
            assert set(A1) <= set(A2) and set(B1) <= set(B2)
            assert len(A2) + len(B2) == len(A1) + len(B1) + 1

    def test_order_matches_componentwise_inclusion(self):
        g = make_cycle(3)
        P = pair_poset(g, 1)
        for i, (A1, B1) in enumerate(P.elements):
            for j, (A2, B2) in enumerate(P.elements):
                expected = set(A1) <= set(A2) and set(B1) <= set(B2)
                assert leq(P, i, j) == expected

    def test_size_guard_names_count(self):
        with pytest.raises(ResourceLimitError) as err:
            pair_poset(make_kneser(5, 1), 1, size_guard=10)
        assert "10" in str(err.value)

    @given(looped_graphs, st.integers(min_value=1, max_value=4),
           st.one_of(st.integers(10, 500), st.sampled_from([10**4, 10**6])))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_recursive_builder(self, g, r, guard):
        # the first components come from _face_levels, not a private
        # recursive enumerator; only the first guard's unit word changes
        def build(builder):
            try:
                return builder(g, r, size_guard=guard)
            except ResourceLimitError as err:
                return str(err).split(" reached ")[0], err.count, err.limit
        P, Q = build(pair_poset), build(pair_poset_oracle.pair_poset)
        if isinstance(Q, tuple):
            assert P == Q
        else:
            assert (P.elements, P.covers, P._pairs) == (Q.elements, Q.covers, Q._pairs)

    def test_first_guard_counts_faces(self):
        # K_5 at r=1 has 30 first components; the oracle named them elements
        with pytest.raises(ResourceLimitError) as err:
            pair_poset(make_kneser(5, 1), 1, size_guard=29)
        assert str(err.value) == "linked-pair poset reached 30 faces, above the limit of 29"
        with pytest.raises(ResourceLimitError) as err:
            pair_poset(make_kneser(5, 1), 1, size_guard=30)
        assert "reached 180 elements" in str(err.value)

    @given(small_graphs, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_trusted_poset_passes_the_public_checks(self, g, r):
        # pair_poset builds its poset unchecked; the checked build agrees
        try:
            P = pair_poset(g, r, size_guard=2000)
            chains = P.maximal_chains(5000)
        except ResourceLimitError:
            assume(False)
        Q = checked_poset(P.elements, P.covers)
        assert Q.covers == P.covers
        assert Q.minimal_elements() == P.minimal_elements()
        assert Q.maximal_chains(5000) == chains

    @given(looped_graphs, st.integers(min_value=1, max_value=5),
           st.sampled_from(["elements", "covers", "vertices"]), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_deferred_reads_equal_the_eager_build(self, g, r, first, homology_first):
        # the elements and covers are built at the first read of either, or
        # of the order complex's vertices, before or after the pair space's
        # homology, and equal the oracle's eager build
        try:
            Q = pair_poset_oracle.pair_poset(g, r, size_guard=2000)
        except ResourceLimitError:
            assume(False)
        P = pair_poset(g, r, size_guard=2000)
        K, L = order_complex(P, 5000), order_complex(Q, 5000)
        if homology_first:
            assert homology(K).groups == homology(L).groups
        assert getattr(K if first == "vertices" else P, first) == getattr(
            L if first == "vertices" else Q, first)
        assert (P.elements, P.covers, P._pairs) == (Q.elements, Q.covers, Q._pairs)
        assert K.vertices == L.vertices == Q.elements
        assert [K.index_of(v) for v in L.vertices] == list(range(len(L.vertices)))
        if not homology_first:
            assert homology(K).groups == homology(L).groups

        def facets(K):
            try:
                return K.facets
            except ResourceLimitError as err:
                return err.count

        assert facets(K) == facets(L)
        assert pair_swap_involution(K) == pair_swap_involution(L)

    @given(small_graphs, st.integers(min_value=1, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_swap_is_an_order_automorphism(self, g, r):
        P = pair_poset(g, r)
        index = {e: i for i, e in enumerate(P.elements)}
        for (a, b) in P.elements:
            assert (b, a) in index
        for i, j in P.covers:
            a, b = P.elements[i], P.elements[j]
            si, sj = index[(a[1], a[0])], index[(b[1], b[0])]
            assert leq(P, si, sj)


def check_deferred_chains(P, limit):
    """The facets of ``order_complex(P, limit)``, read after it is built, are
    the maximal chains listed eagerly; past ``limit``, the read raises what
    the eager listing does."""
    K = order_complex(P, limit)
    try:
        eager = tuple(sorted(tuple(sorted(c)) for c in P.maximal_chains(limit)))
    except ResourceLimitError as err:
        with pytest.raises(ResourceLimitError) as deferred:
            K.facets
        assert "maximal-chain enumeration" in str(deferred.value)
        assert (deferred.value.count, deferred.value.limit) == (err.count, limit)
        return
    assert K.vertices == P.elements
    assert K.facets == eager


class TestDeferredChains:
    """An order complex lists its maximal chains when its facets are first
    read, bounded by the limit it was built with."""

    @given(small_graphs, st.integers(min_value=1, max_value=4), st.integers(0, 400))
    @settings(max_examples=100, deadline=None)
    def test_pair_spaces(self, g, r, limit):
        try:
            P = pair_poset(g, r, size_guard=2000)
        except ResourceLimitError:
            assume(False)
        check_deferred_chains(P, limit)

    @given(small_graphs, st.integers(min_value=1, max_value=2), st.integers(0, 400))
    @settings(max_examples=50, deadline=None)
    def test_face_posets(self, g, r, limit):
        check_deferred_chains(face_poset(neighborhood_complex(g, r)), limit)

    def test_a_read_past_the_limit_names_the_count(self):
        K = order_complex(face_poset(simplex_boundary(4)), 3)
        with pytest.raises(ResourceLimitError) as err:
            K.facets
        assert (err.value.count, err.value.limit) == (4, 3)
        assert "maximal-chain enumeration reached 4 chains" in str(err.value)


class TestPosetsAndOrderComplexes:
    def test_total_order_gives_single_simplex(self):
        P = checked_poset(list("abcd"), [(0, 1), (1, 2), (2, 3)])
        K = order_complex(P)
        assert K.facet_label_sets() == frozenset({frozenset("abcd")})

    def test_antichain_gives_isolated_vertices(self):
        P = checked_poset(list("abc"), [])
        K = order_complex(P)
        assert face_counts(K) == (3,)

    def test_face_poset_of_edge_subdivides(self):
        K = SimplicialComplex.from_faces([("a", "b")])
        P = face_poset(K)
        sub = order_complex(P)
        assert face_counts(sub) == (3, 2)  # the path a -- {a,b} -- b

    def test_face_poset_counts(self):
        assert face_poset(full_simplex(2)).n_elements == 7
        assert face_poset(simplex_boundary(2)).n_elements == 6
        assert face_poset(SimplicialComplex.from_faces([])).n_elements == 0

    def test_cycle_detection(self):
        with pytest.raises(ValueError):
            checked_poset(list("ab"), [(0, 1), (1, 0)])

    @pytest.mark.parametrize("covers", [[(0.9, 1.2)], [("0", 1)], [(0, 1.0)]])
    def test_rejects_non_integer_cover_indices(self, covers):
        # int() would truncate 0.9 and 1.2 to the valid pair (0, 1)
        with pytest.raises(ValueError):
            checked_poset(["a", "b"], covers)
        assert checked_poset(["a", "b"], [(False, True)]).covers == ((0, 1),)

    def test_poset_json_export(self):
        P = checked_poset(list("ab"), [(0, 1)])
        assert P.to_json_obj() == {"elements": ["a", "b"], "covers": [[0, 1]]}

    def test_chain_guard(self):
        P = face_poset(simplex_boundary(4))
        with pytest.raises(ResourceLimitError):
            P.maximal_chains(limit=3)

    def test_chain_guard_names_stage_and_count(self):
        P = face_poset(simplex_boundary(4))
        with pytest.raises(ResourceLimitError) as err:
            P.maximal_chains(limit=3)
        assert (err.value.count, err.value.limit) == (4, 3)
        assert "maximal-chain enumeration reached 4 chains" in str(err.value)

    @given(small_graphs)
    @settings(max_examples=15, deadline=None)
    def test_subdivision_preserves_betti(self, g):
        K = neighborhood_complex(g, 1) if g.edge_count() else None
        if K is None or not K.facets:
            return
        assert homology(barycentric_subdivision(K)).betti_vector == homology(K).betti_vector

    def test_projection_equivalence_small(self):
        # order complex of the pair poset has the Betti numbers of the
        # neighborhood complex itself (first-projection equivalence)
        g = make_cycle(5)
        lhs = homology(order_complex(pair_poset(g, 1))).betti_vector
        rhs = homology(neighborhood_complex(g, 1)).betti_vector
        assert lhs == rhs == (1, 1)
