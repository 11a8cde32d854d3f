import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_simplex, simplex_boundary
from quotient_oracle import barycentric_subdivision, face_poset
from nbhd import (
    Graph,
    Poset,
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
    walk_neighborhood,
)


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

    def test_face_enumeration_counts(self):
        K = full_simplex(2)
        assert K.face_counts() == (3, 3, 1)
        assert simplex_boundary(2).face_counts() == (3, 3)

    def test_face_limit(self):
        K = simplex_boundary(5)
        with pytest.raises(ResourceLimitError):
            K.faces(limit=10)

    def test_face_limit_holds_on_cached_faces(self):
        K = neighborhood_complex(make_cycle(9), 3)
        assert sum(map(len, K.faces().values())) == 72
        with pytest.raises(ResourceLimitError) as err:
            K.faces(limit=10)
        assert (err.value.count, err.value.limit) == (72, 10)

    def test_euler_characteristic(self):
        assert simplex_boundary(3).euler_characteristic() == 2  # a 2-sphere
        assert simplex_boundary(4).euler_characteristic() == 0  # a 3-sphere
        assert full_simplex(3).euler_characteristic() == 1

    def test_has_face(self):
        K = simplex_boundary(2)
        assert K.has_face((0, 1)) and not K.has_face((0, 1, 2))

    def test_equality_ignores_vertex_order(self):
        a = SimplicialComplex.from_faces([(1, 0), (1, 2)])
        b = SimplicialComplex.from_faces([(2, 1), (0, 1)])
        assert a == b

    def test_json_roundtrip(self):
        K = neighborhood_complex(make_kneser(4, 2), 1)
        back = complex_from_json_obj(json.loads(json.dumps(complex_to_json_obj(K))))
        assert back == K


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

    @given(small_graphs)
    @settings(max_examples=40, deadline=None)
    def test_radius1_matches_maximal_open_neighborhoods(self, g):
        # classical construction: facets are the maximal N(v)
        balls = [frozenset(g.adj[v]) for v in range(g.n_vertices) if g.adj[v]]
        maximal = {b for b in balls if not any(b < c for c in balls)}
        K = neighborhood_complex(g, 1)
        assert K.facet_label_sets() == frozenset(maximal)

    @given(small_graphs, st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_faces_pairwise_linked_at_double_radius(self, g, r):
        K = neighborhood_complex(g, r)
        for lst in K.faces().values():
            for f in lst:
                labels = K.face_labels(f)
                for u, v in itertools.combinations(labels, 2):
                    assert u in walk_neighborhood(g, v, 2 * r)


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
                assert P.leq(i, j) == expected

    def test_size_guard_names_count(self):
        with pytest.raises(ResourceLimitError) as err:
            pair_poset(make_kneser(5, 1), 1, size_guard=10)
        assert "10" in str(err.value)

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
            assert P.leq(si, sj)


class TestPosetsAndOrderComplexes:
    def test_total_order_gives_single_simplex(self):
        P = Poset(list("abcd"), [(0, 1), (1, 2), (2, 3)])
        K = order_complex(P)
        assert K.facet_label_sets() == frozenset({frozenset("abcd")})

    def test_antichain_gives_isolated_vertices(self):
        P = Poset(list("abc"), [])
        K = order_complex(P)
        assert K.face_counts() == (3,)

    def test_face_poset_of_edge_subdivides(self):
        K = SimplicialComplex.from_faces([("a", "b")])
        P = face_poset(K)
        sub = order_complex(P)
        assert sub.face_counts() == (3, 2)  # the path a -- {a,b} -- b

    def test_face_poset_counts(self):
        assert face_poset(full_simplex(2)).n_elements == 7
        assert face_poset(simplex_boundary(2)).n_elements == 6
        assert face_poset(SimplicialComplex.from_faces([])).n_elements == 0

    def test_cycle_detection(self):
        with pytest.raises(ValueError):
            Poset(list("ab"), [(0, 1), (1, 0)])

    def test_from_leq_matches_direct_covers(self):
        P = Poset.from_leq([1, 2, 3, 6], lambda a, b: b % a == 0)
        assert set(P.covers) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_poset_json_export(self):
        P = Poset(list("ab"), [(0, 1)])
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
