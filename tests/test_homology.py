import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_simplex, rp2_complex, simplex_boundary
from nbhd import (
    SimplicialComplex,
    abelianize,
    boundary_matrices,
    edge_path_presentation,
    h1_summand_certificate,
    homology,
    homology_connectivity,
    make_cycle,
    make_kneser,
    neighborhood_complex,
    smith_normal_form,
)
from nbhd import gf2
from nbhd.homology import _snf_dense


def rational_rank(rows):
    """Oracle: rank over Q by fraction-exact Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def det_int(rows):
    """Oracle: integer determinant by fraction-free expansion (small inputs)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * det_int(minor)
    return total


def mat_entries_dense(mat):
    out = [[0] * mat.n_cols for _ in range(mat.n_rows)]
    for (i, j), v in mat.entries.items():
        out[i][j] = v
    return out


small_int_matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == ((1, 1, 1), 3)

    def test_zero(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)

    def test_2_3_diagonal(self):
        # oracle: determinant divisors: d1 = gcd(2,3) = 1, d1*d2 = |det| = 6
        assert smith_normal_form([[2, 0], [0, 3]]) == ((1, 6), 2)

    def test_sparse_input(self):
        factors, rank = smith_normal_form({(0, 0): 2, (1, 1): 4}, shape=(2, 2))
        assert factors == (2, 4) and rank == 2

    @given(small_int_matrices)
    @settings(max_examples=120, deadline=None)
    def test_rank_matches_rational_elimination(self, rows):
        _, rank = smith_normal_form(rows)
        assert rank == rational_rank(rows)

    @given(small_int_matrices)
    @settings(max_examples=120, deadline=None)
    def test_divisibility_chain(self, rows):
        factors, _ = smith_normal_form(rows)
        assert all(f > 0 for f in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))

    @given(
        st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_factor_product_is_abs_determinant(self, rows):
        d = det_int(rows)
        factors, rank = smith_normal_form(rows)
        if d:
            prod = 1
            for f in factors:
                prod *= f
            assert rank == 3 and prod == abs(d)
        else:
            assert rank < 3

    @given(
        st.lists(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=4),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_determinant_divisors_characterize_factors(self, rows):
        # oracle: the product of the first k invariant factors equals the gcd
        # of all k-by-k minors, which determines the Smith form completely
        import itertools
        import math as _math

        factors, rank = smith_normal_form(rows)
        m, n = len(rows), len(rows[0])
        prod = 1
        for k in range(1, min(m, n) + 1):
            minors = [
                det_int([[rows[i][j] for j in cs] for i in rs])
                for rs in itertools.combinations(range(m), k)
                for cs in itertools.combinations(range(n), k)
            ]
            g = 0
            for v in minors:
                g = _math.gcd(g, v)
            if k <= rank:
                prod *= factors[k - 1]
                assert g == prod
            else:
                assert g == 0


@st.composite
def int_matrices(draw, max_side=10):
    """Shape and row-major entries in -3..3, about half of them zero, so that
    non-unit entries survive the unit pass into the dense endgame."""
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(0, max_side))
    entry = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3))
    vals = draw(st.lists(entry, min_size=m * n, max_size=m * n))
    return m, n, vals


def textbook_snf(rows):
    """Oracle: the dense textbook reduction alone, with no sparse unit pass."""
    factors = [f for f in _snf_dense([list(r) for r in rows]) if f]
    return tuple(factors), len(factors)


class TestUnitPassAgainstTextbook:
    @given(int_matrices())
    @settings(max_examples=300, deadline=None)
    def test_random_integer_matrices(self, matrix):
        m, n, vals = matrix
        rows = [vals[i * n:(i + 1) * n] for i in range(m)]
        entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
        assert smith_normal_form(entries, (m, n)) == textbook_snf(rows)

    @given(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=5),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_boundary_matrices_of_random_complexes(self, faces):
        for mat in boundary_matrices(SimplicialComplex.from_faces(faces)):
            got = smith_normal_form(mat.entries, (mat.n_rows, mat.n_cols))
            assert got == textbook_snf(mat_entries_dense(mat))


@st.composite
def gf2_systems(draw, max_side=12):
    """Shape, ``(row, col)`` ones and a 0/1 right-hand side of a random
    matrix; either side may be zero, and half the right-hand sides are
    column combinations."""
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(0, max_side))
    bits = draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
    ones = [(i, j) for i in range(m) for j in range(n) if bits[i * n + j]]
    if draw(st.booleans()):
        picked = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        rhs = [sum(bits[i * n + j] & picked[j] for j in range(n)) % 2 for i in range(m)]
    else:
        rhs = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    return m, n, ones, rhs


def snf_rank2(n_rows, n_cols, ones):
    """Oracle: GF(2) rank as the number of odd invariant factors over Z."""
    factors, _ = smith_normal_form({e: 1 for e in ones}, shape=(n_rows, n_cols))
    return sum(f % 2 for f in factors)


class TestGF2:
    @given(gf2_systems())
    @settings(max_examples=300, deadline=None)
    def test_rank_matches_odd_invariant_factors(self, system):
        m, n, ones, _ = system
        assert gf2.rank_sparse(m, n, ones) == snf_rank2(m, n, ones)

    @given(gf2_systems())
    @settings(max_examples=300, deadline=None)
    def test_column_space_matches_augmented_rank(self, system):
        m, n, ones, rhs = system
        aug = ones + [(i, n) for i, b in enumerate(rhs) if b]
        expected = snf_rank2(m, n + 1, aug) == snf_rank2(m, n, ones)
        assert gf2.in_column_space(m, n, ones, rhs) == expected


class TestBoundaryMatrices:
    def test_single_edge_column(self):
        K = SimplicialComplex.from_faces([("a", "b")])
        (d1,) = boundary_matrices(K)
        assert mat_entries_dense(d1) == [[-1], [1]]

    def test_triangle_boundary_columns_sum_to_zero(self):
        K = simplex_boundary(2)
        (d1,) = boundary_matrices(K)
        dense = mat_entries_dense(d1)
        assert d1.n_rows == 3 and d1.n_cols == 3
        assert all(sum(col) == 0 for col in zip(*dense))

    @pytest.mark.parametrize("K", [simplex_boundary(3), rp2_complex(), full_simplex(3)])
    def test_boundary_squares_to_zero(self, K):
        mats = boundary_matrices(K)
        for low, high in zip(mats, mats[1:]):
            prod = {}
            for (i, j), v in low.entries.items():
                for (jj, k), w in high.entries.items():
                    if j == jj:
                        prod[(i, k)] = prod.get((i, k), 0) + v * w
            assert all(v == 0 for v in prod.values())


class TestHomology:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_sphere_boundaries(self, r):
        h = homology(simplex_boundary(r + 1))
        expected = [0] * (r + 1)
        expected[0] = expected[r] = 1
        assert h.betti_vector == tuple(expected)
        assert all(t == () for _, t in h.groups)

    def test_projective_plane_torsion(self):
        h = homology(rp2_complex())
        assert h.groups == ((1, ()), (0, (2,)), (0, ()))

    def test_point_and_two_points(self):
        assert homology(full_simplex(0)).betti_vector == (1,)
        two = SimplicialComplex.from_faces([("a",), ("b",)])
        assert homology(two).betti_vector == (2,)

    def test_empty_complex(self):
        assert homology(SimplicialComplex.from_faces([])).groups == ()

    def test_universal_coefficients_on_rp2(self):
        # Betti numbers over Z/2 exceed the rational ones exactly by the
        # adjacent even-torsion counts
        K = rp2_complex()
        h = homology(K)
        faces = K.faces()
        mats = boundary_matrices(K)
        rank2 = [0] * (len(faces) + 1)
        for mat in mats:
            ones = [(i, j) for (i, j), v in mat.entries.items() if v % 2]
            rank2[mat.dim] = gf2.rank_sparse(mat.n_rows, mat.n_cols, ones)
        for d in range(len(faces)):
            betti2 = len(faces[d]) - rank2[d] - rank2[d + 1]
            t_here = sum(1 for t in h.torsion(d) if t % 2 == 0)
            t_below = sum(1 for t in h.torsion(d - 1) if t % 2 == 0)
            assert betti2 == h.betti(d) + t_here + t_below

    @pytest.mark.parametrize(
        "K",
        [simplex_boundary(2), simplex_boundary(3), rp2_complex(), full_simplex(2)],
    )
    def test_euler_characteristic_consistency(self, K):
        h = homology(K)
        alt_faces = K.euler_characteristic()
        alt_betti = sum((-1) ** d * b for d, b in enumerate(h.betti_vector))
        assert alt_faces == alt_betti

    def test_petersen_radius3_sphere(self):
        h = homology(neighborhood_complex(make_kneser(5, 2), 3))
        assert h.betti_vector == (1, 0, 0, 0, 0, 0, 0, 0, 1)
        assert all(t == () for _, t in h.groups)

    def test_kneser_7_2_radius1(self):
        # 17,724 faces, so the unit pass makes about 8,850 pivots
        h = homology(neighborhood_complex(make_kneser(7, 2), 1))
        assert h.betti_vector == (1, 0, 0, 29, 0, 0, 0, 0, 0, 0)
        assert all(t == () for _, t in h.groups)


class TestConnectivity:
    def test_sphere(self):
        assert homology_connectivity(simplex_boundary(4)) == 2

    def test_big_sphere(self):
        assert homology_connectivity(simplex_boundary(9)) == 7

    def test_point_is_contractible(self):
        assert homology_connectivity(full_simplex(0)) == math.inf

    def test_two_points_disconnected(self):
        two = SimplicialComplex.from_faces([("a",), ("b",)])
        assert homology_connectivity(two) == -1

    def test_torsion_blocks_connectivity(self):
        assert homology_connectivity(rp2_complex()) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            homology_connectivity(SimplicialComplex.from_faces([]))


class TestEdgePathPresentation:
    def test_circle_complex_free_rank_one(self):
        K = neighborhood_complex(make_cycle(5), 1)  # a 5-gon, no triangles
        pres = edge_path_presentation(K, K.vertices[0])
        assert len(pres.generators) == 1 and pres.relators == ()
        assert abelianize(pres) == (1, ())

    def test_sphere_is_simply_connected(self):
        K = simplex_boundary(3)
        pres = edge_path_presentation(K, 0)
        assert abelianize(pres) == (0, ())

    def test_rp2_gives_torsion(self):
        pres = edge_path_presentation(rp2_complex(), 0)
        assert abelianize(pres) == (0, (2,))

    def test_vertex_not_in_complex(self):
        with pytest.raises(ValueError):
            edge_path_presentation(simplex_boundary(2), 99)

    def test_component_restriction(self):
        K = SimplicialComplex.from_faces([(0, 1), (2, 3), (3, 4), (2, 4)])
        pres = edge_path_presentation(K, 0)
        assert abelianize(pres) == (0, ())  # component of 0 is an edge
        pres2 = edge_path_presentation(K, 2)
        assert abelianize(pres2) == (1, ())  # the triangle rim... no 2-face

    @pytest.mark.parametrize(
        "K",
        [
            simplex_boundary(2),
            simplex_boundary(3),
            rp2_complex(),
            neighborhood_complex(make_cycle(7), 2),
            neighborhood_complex(make_cycle(9), 3),
        ],
    )
    def test_abelianization_matches_h1(self, K):
        h = homology(K)
        pres = edge_path_presentation(K, K.vertices[0])
        assert abelianize(pres) == (h.betti(1), h.torsion(1))


class TestAbelianize:
    def test_free_group(self):
        from nbhd import Presentation

        pres = Presentation(("a", "b"), ())
        assert abelianize(pres) == (2, ())

    def test_order_two(self):
        from nbhd import Presentation

        pres = Presentation(("a",), (((0, 1), (0, 1)),))
        assert abelianize(pres) == (0, (2,))

    def test_relator_strings(self):
        from nbhd import Presentation

        pres = Presentation(("a", "b"), (((0, 1), (1, -1)),))
        assert pres.relator_strings() == ("a*b^-1",)


class TestH1Certificate:
    def test_bipartite_not_applicable(self):
        report = h1_summand_certificate(make_cycle(6), 2)
        assert report["applicable"] is False
        assert report["odd_girth"] == "infinite"
        assert report["radii"] == []

    def test_odd_cycle_applicable(self):
        report = h1_summand_certificate(make_cycle(7), 2)
        assert report["applicable"] is True
        assert all(row["z_summand"] for row in report["radii"])
