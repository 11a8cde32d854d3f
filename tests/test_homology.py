import itertools
import math
import random
import sys
import time
from collections import defaultdict, deque
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (boundary_matrices, euler_characteristic, full_simplex, make_schrijver,
                      mycielskian, random_cubic_graph, rp2_complex, simplex_boundary, torus_grid)
from nbhd import (
    Graph,
    Poset,
    ResourceLimitError,
    SimplicialComplex,
    abelianize,
    edge_path_presentation,
    h1_summand_certificate,
    homology,
    homology_connectivity,
    make_cycle,
    make_kneser,
    neighborhood_complex,
    order_complex,
    pair_poset,
    smith_normal_form,
)
from nbhd import HomologyResult, Presentation, complexes, gf2
import contraction_oracle as oracle
from nbhd.complexes import _above, _bits, _chains, _closure, _sizes
from nbhd.homology import (_boundary, _contracted, _forest_factors, _level_homology, _levels,
                           _merge, _snf_factors)
from snf_oracle import textbook_snf


def reduce_sparse(entries, pivot_rows):
    """The invariant factors of a sparse ``{(i, j): value}`` matrix from
    ``_snf_factors``, which adds the row of every unit pivot to
    ``pivot_rows``."""
    rows, cols = {}, {}
    for (i, j), v in entries.items():
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
    return tuple(_snf_factors(rows, cols, pivot_rows))


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

    def test_pivot_rows_of_a_unimodular_matrix(self):
        pivots = set()
        assert reduce_sparse({(0, 0): 1, (0, 1): 1, (1, 1): 1}, pivots) == (1, 1)
        assert pivots == {0, 1}

    def test_pivot_rows_skip_the_dense_endgame(self):
        pivots = set()
        assert reduce_sparse({(0, 0): 2, (1, 1): 1}, pivots) == (1, 2)
        assert pivots == {1}

    def test_integer_and_bool_entries_are_accepted(self):
        assert smith_normal_form([[True, 0], [0, 2]]) == ((1, 2), 2)
        assert smith_normal_form({(0, 0): False, (1, 1): 3}, (2, 2)) == ((3,), 1)

    def test_float_entry_is_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form({(0, 0): 1.5}, (1, 1))

    def test_string_entry_is_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([["2"]])

    def test_index_outside_the_shape_is_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form({(5, 5): 1}, (2, 2))

    def test_negative_index_is_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form({(-1, 0): 1}, (2, 2))

    def test_entry_of_an_empty_shape_is_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form({(0, 0): 1}, (0, 0))

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
    non-unit entries survive the unit pass into the non-unit pass."""
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(0, max_side))
    entry = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3))
    vals = draw(st.lists(entry, min_size=m * n, max_size=m * n))
    return m, n, vals


@st.composite
def free_row_matrices(draw, max_side=10):
    """Shape and sparse entries of a matrix rich in rows of one entry: each
    row holds one to three entries, mostly +-1 but also 2, -2 or 3, so that
    non-unit singletons occur and deleting a free row's column leaves other
    rows single in turn."""
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(1, max_side))
    value = st.sampled_from((1, -1, 1, -1, 2, -2, 3))
    entries = {}
    for i in range(m):
        for j in draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)):
            entries[(i, j)] = draw(value)
    return m, n, entries


class TestUnitPassAgainstTextbook:
    @given(free_row_matrices())
    @settings(max_examples=300, deadline=None)
    def test_free_row_matrices(self, matrix):
        m, n, entries = matrix
        expected = textbook_snf([[entries.get((i, j), 0) for j in range(n)]
                                 for i in range(m)])
        assert smith_normal_form(entries, (m, n)) == expected
        assert reduce_sparse(entries, set()) == expected[0]

    @given(int_matrices())
    @settings(max_examples=300, deadline=None)
    def test_random_integer_matrices(self, matrix):
        m, n, vals = matrix
        rows = [vals[i * n:(i + 1) * n] for i in range(m)]
        entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
        assert smith_normal_form(entries, (m, n)) == textbook_snf(rows)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_unit_free_matrices(self, seed):
        # no unit, so all of it goes to the non-unit pass; its entries stay
        # small only while column operations wait for a cleared column, and
        # then it takes well under 2 s.  Only the library is timed: the
        # textbook oracle's entries can grow to millions of bits (seed
        # 1806376 takes it about 10 s)
        rng = random.Random(seed)
        m, n = rng.randint(0, 30), rng.randint(0, 30)
        rows = [[rng.choice((0, 2, -2, 3, -3, 4, -4, 6, -6)) for _ in range(n)]
                for _ in range(m)]
        entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
        start = time.perf_counter()
        got = smith_normal_form(entries, (m, n))
        assert time.perf_counter() - start < 2.0
        assert got == textbook_snf(rows)

    @given(int_matrices())
    @settings(max_examples=200, deadline=None)
    def test_pivot_rows_leave_the_result_unchanged(self, matrix):
        m, n, vals = matrix
        entries = {(i, j): v for i in range(m) for j in range(n) if (v := vals[i * n + j])}
        pivots = {-1}  # the out-set is only added to
        got = reduce_sparse(entries, pivots)
        assert got == smith_normal_form(entries, (m, n))[0]
        assert -1 in pivots and (pivots - {-1}) <= {i for i, _ in entries}
        assert len(pivots) - 1 <= got.count(1)

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


def row_sets(n_cols, ones):
    """The columns of the matrix with these ``(row, col)`` ones, each the
    set of its nonzero rows."""
    cols = [set() for _ in range(n_cols)]
    for i, j in ones:
        cols[j].add(i)
    return cols


class TestGF2:
    @given(gf2_systems())
    @settings(max_examples=300, deadline=None)
    def test_rank_matches_odd_invariant_factors(self, system):
        m, n, ones, _ = system
        pivot_rows = set()
        gf2.in_column_space(row_sets(n, ones), set(), pivot_rows)
        assert len(pivot_rows) == snf_rank2(m, n, ones)

    @given(gf2_systems())
    @settings(max_examples=300, deadline=None)
    def test_pivot_rows_carry_the_rank(self, system):
        # the reduced columns have distinct largest rows, so the matrix keeps
        # its rank on the pivot rows alone
        m, n, ones, _ = system
        pivot_rows = set()
        gf2.in_column_space(row_sets(n, ones), set(), pivot_rows)
        kept = [(i, j) for i, j in ones if i in pivot_rows]
        assert snf_rank2(m, n, kept) == len(pivot_rows)

    @given(gf2_systems())
    @settings(max_examples=300, deadline=None)
    def test_column_space_matches_augmented_rank(self, system):
        # the column order changes only the speed: reversed, the columns
        # give the same answer and the same rank
        m, n, ones, rhs = system
        aug = ones + [(i, n) for i, b in enumerate(rhs) if b]
        rank = snf_rank2(m, n, ones)
        expected = snf_rank2(m, n + 1, aug) == rank
        for order in (list, reversed):
            pivot_rows = set()
            rows = {i for i, b in enumerate(rhs) if b}
            assert gf2.in_column_space(order(row_sets(n, ones)), rows, pivot_rows) == expected
            assert len(pivot_rows) == rank


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
            pivot_rows = set()
            gf2.in_column_space(row_sets(mat.n_cols, ones), set(), pivot_rows)
            rank2[mat.dim] = len(pivot_rows)
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
        alt_faces = euler_characteristic(K)
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

    def test_kneser_8_3_radius1(self):
        h = homology(neighborhood_complex(make_kneser(8, 3), 1))
        assert h.betti_vector == (1, 0, 181, 0, 0, 0, 0, 0, 0, 0)
        assert all(t == () for _, t in h.groups)


def face_path(K, limit=None):
    """``homology`` of a complex with no linked-pair poset, the simplex
    boundary check left out: the contraction, then its faces or its
    lattice's chains."""
    return _level_homology(*_levels(_contracted(K), limit), K.dim + 1)


def uncleared_homology(K):
    """Oracle: homology from the Smith form of every full boundary matrix of
    K's faces, each reduced on its own with no column cleared."""
    counts = [len(f) for f in K.faces().values()]
    mats = [(m.dim, m.entries, (m.n_rows, m.n_cols)) for m in boundary_matrices(K)]
    rank = [0] * (len(counts) + 1)
    torsion = [()] * (len(counts) + 1)
    for d, entries, shape in mats:
        factors, rank[d] = smith_normal_form(entries, shape)
        torsion[d] = tuple(f for f in factors if f > 1)
    return HomologyResult(tuple(
        (counts[d] - rank[d] - rank[d + 1], torsion[d + 1])
        for d in range(len(counts))
    ))


def moore_space(m):
    """A Moore space M(Z/m, 1): the mapping cylinder of the m-fold wrap of a
    3m-cycle b onto the triangle a, with the cycle b coned off at c."""
    n = 3 * m
    b = [("b", k) for k in range(n)]
    a = [("a", k) for k in range(3)]
    triangles = []
    for k in range(n):
        triangles.append((b[k], b[(k + 1) % n], a[(k + 1) % 3]))
        triangles.append((b[k], a[k % 3], a[(k + 1) % 3]))
        triangles.append(("c", b[k], b[(k + 1) % n]))
    return SimplicialComplex.from_faces(triangles)


def suspension(K):
    """The join of ``K`` with two points, which shifts reduced homology up
    by one dimension."""
    return SimplicialComplex.from_faces(
        [tuple(f) + (pole,) for f in K.facet_label_sets() for pole in ("north", "south")]
    )


def klein_bottle():
    """The 3-by-3 grid on the torus with one pair of sides glued reversed."""
    def v(i, j):
        i %= 3
        if j % 3 == 0 and j:
            i = (-i) % 3  # crossing the top edge reverses the other side
        return (i, j % 3)

    triangles = []
    for i in range(3):
        for j in range(3):
            triangles.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            triangles.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return SimplicialComplex.from_faces(triangles)


# the unit pass yields only 1s, so each torsion factor comes from the
# non-unit pass, whose rows must clear nothing
TORSION_CASES = {
    "rp2": (rp2_complex, ((1, ()), (0, (2,)), (0, ()))),
    "moore3": (lambda: moore_space(3), ((1, ()), (0, (3,)), (0, ()))),
    "moore4": (lambda: moore_space(4), ((1, ()), (0, (4,)), (0, ()))),
    "klein": (klein_bottle, ((1, ()), (1, (2,)), (0, ()))),
    "suspended rp2": (lambda: suspension(rp2_complex()),
                      ((1, ()), (0, ()), (0, (2,)), (0, ()))),
    "suspended moore3": (lambda: suspension(moore_space(3)),
                         ((1, ()), (0, ()), (0, (3,)), (0, ()))),
}


class TestClearing:
    """``homology`` drops the columns that a unit pivot one dimension up
    paired; the uncleared reduction of every full matrix is the reference."""

    @given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=6),
                    min_size=0, max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_random_complexes_match_uncleared(self, faces):
        K = SimplicialComplex.from_faces(faces)
        assert homology(K) == uncleared_homology(K)

    @pytest.mark.parametrize("name", sorted(TORSION_CASES))
    def test_torsion_cases(self, name):
        build, groups = TORSION_CASES[name]
        K = build()
        assert homology(K).groups == groups
        assert uncleared_homology(K).groups == groups

    def test_paired_columns_are_not_reduced(self, monkeypatch):
        # the boundary of the 5-simplex, on the face path (``homology``
        # answers it from its facets), stays on its faces (every proper face
        # is an intersection of facets) and pairs only by units, so each
        # matrix below the top reaches the reduction with exactly its rank in
        # columns; the boundary of dimension 1 goes to the union-find
        module = sys.modules["nbhd.homology"]
        snf_factors = module._snf_factors
        seen = []

        def recording(rows, cols, pivot_rows):
            seen.append(len(cols))
            return snf_factors(rows, cols, pivot_rows)

        monkeypatch.setattr(module, "_snf_factors", recording)
        assert face_path(simplex_boundary(5)).betti_vector == (1, 0, 0, 0, 1)
        assert seen == [6, 10, 10]


def chain_model(K):
    """``K`` rebuilt from its facets, which keeps no linked-pair poset, so
    that ``homology`` reduces its own faces or lattice chains."""
    return SimplicialComplex(K.vertices, K.facets)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else ()
    return Graph(range(n), edges)


def lattice_levels(K):
    """The chains of the lattice of ``K``'s facet intersections by dimension,
    from the lattice model's own steps, with no choice of model made."""
    found = set()
    for _ in _closure(K.facets, found):
        pass
    lattice = sorted(found, key=int.bit_count)
    return lattice, _above(lattice)


class TestLattice:
    """A complex is reduced on the order complex of its facet-intersection
    lattice when that has fewer faces; both models give the same groups."""

    @staticmethod
    def check_models(K):
        lattice, above = lattice_levels(K)
        chains = _chains(above)
        faces = list(K.faces().values())
        assert _sizes(lattice, above) == (sum(map(len, chains)), sum(map(len, faces)))
        h = _level_homology(faces, False, K.dim + 1)
        # each model reduced in both directions, top down and bottom up
        assert {_level_homology(levels, up, K.dim + 1)
                for levels in (faces, chains) for up in (False, True)} == {h}
        assert homology(K) == h
        return h

    @given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=6),
                    min_size=0, max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_random_facet_sets(self, faces):
        K = SimplicialComplex.from_faces(faces)
        assert self.check_models(K) == uncleared_homology(K)

    @given(small_graphs(), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_random_neighborhood_complexes(self, G, r):
        K = neighborhood_complex(G, r)
        assert self.check_models(K) == uncleared_homology(K)

    @pytest.mark.parametrize("name", sorted(TORSION_CASES))
    def test_torsion_cases(self, name):
        build, groups = TORSION_CASES[name]
        assert self.check_models(build()).groups == groups

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_schrijver_complex_is_a_sphere(self, n):
        # N(SG(n, k)) ~ S^(n - 2k) (Schrijver 1978; Bjorner & de Longueville 2003)
        K = neighborhood_complex(make_schrijver(n, 3), 1)
        betti = [0] * (K.dim + 1)
        betti[0] += 1
        betti[n - 6] += 1
        h = homology(K)
        assert h.betti_vector == tuple(betti)
        assert all(t == () for _, t in h.groups)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_mycielskian_suspends(self, j):
        # N(M^j(C5)) ~ S^(j + 1) (Csorba 2008)
        G = make_cycle(5)
        for _ in range(j):
            G = mycielskian(G)
        K = neighborhood_complex(G, 1)
        betti = [0] * (K.dim + 1)
        betti[0] += 1
        betti[j + 1] += 1
        assert homology(K).betti_vector == tuple(betti)

    def test_kneser_9_3_is_2_connected(self):
        # N(K(9,3)) is (9 - 2*3 - 1)-connected (Lovasz 1978): its 5,000,000
        # face limit trips on the faces, not on the lattice's chains
        K = neighborhood_complex(make_kneser(9, 3), 1)
        h = homology(K)
        assert h.betti_vector[:4] == (1, 0, 0, 379)
        assert not any(t for _, t in h.groups)
        assert homology_connectivity(K) == 2
        assert K._faces is None

    def test_limit_between_the_models(self):
        # K(6,2) at r=1: 440 chains, 710 faces; N_1(K(9,4)), with 882 chains
        # and 3,402 faces, is linear and answered from its facets
        K = neighborhood_complex(make_kneser(6, 2), 1)
        assert homology(K, 440).betti_vector == (1, 0, 19, 0, 0, 0)
        assert K._faces is None
        K = neighborhood_complex(make_kneser(9, 4), 1)
        assert homology(K, 882).betti_vector == (1, 379, 0, 0, 0)
        assert K._faces is None

    def test_limit_below_both_models(self):
        K = neighborhood_complex(make_kneser(6, 2), 1)
        with pytest.raises(ResourceLimitError) as err:
            homology(K, 439)
        assert (err.value.count, err.value.limit) == (440, 439)
        assert "face enumeration" in str(err.value)
        assert K._faces is None
        # a linear complex passes any limit
        K = neighborhood_complex(make_kneser(9, 4), 1)
        assert homology(K, 881).betti_vector == (1, 379, 0, 0, 0)
        assert K._faces is None

    def test_faces_are_read_once(self, monkeypatch):
        # Petersen r=3 on the face path (``homology`` answers this simplex
        # boundary from its facets): every face is a facet intersection, so
        # the faces win and the read that chose them is the one that fills
        # the cache
        module = sys.modules["nbhd.complexes"]
        face_levels, calls = module._face_levels, []

        def counting(*args):
            calls.append(args)
            return face_levels(*args)

        monkeypatch.setattr(module, "_face_levels", counting)
        K = neighborhood_complex(make_kneser(5, 2), 3)
        assert face_path(K, 1022).betti_vector == (1, 0, 0, 0, 0, 0, 0, 0, 1)
        assert len(calls) == 1 and sum(map(len, K._faces.values())) == 1022
        with pytest.raises(ResourceLimitError, match="face enumeration"):
            face_path(neighborhood_complex(make_kneser(5, 2), 3), 1021)

    @pytest.mark.parametrize("n, k, betti", [
        (6, 2, (1, 0, 19, 0, 0, 0)),
        (7, 2, (1, 0, 0, 29, 0, 0, 0, 0, 0, 0)),
        (8, 3, (1, 0, 181, 0, 0, 0, 0, 0, 0, 0)),
    ])
    def test_the_lattice_model_reads_no_face(self, monkeypatch, n, k, betti):
        def refuse(*args):
            raise AssertionError("a face was read")

        monkeypatch.setattr(sys.modules["nbhd.complexes"], "_face_levels", refuse)
        K = neighborhood_complex(make_kneser(n, k), 1)
        assert homology(K).betti_vector == betti
        assert K._faces is None

    @given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=6),
                    min_size=1, max_size=10), st.data())
    @settings(max_examples=150, deadline=None)
    def test_counts_alone_choose_the_model(self, faces, data):
        # the boundary of a simplex and a linear complex are answered at any
        # limit with nothing contracted or read; otherwise, on the contracted
        # complex, the one reduced, the chains are reduced exactly when they
        # are fewer than the faces and within the limit; past it in both,
        # the face guard trips
        K = SimplicialComplex.from_faces(faces)
        C = _contracted(K)
        chains, n_faces = _sizes(*lattice_levels(C))
        boundary = is_simplex_boundary(K) or is_linear(K)
        limit = data.draw(st.integers(0, max(chains, n_faces) + 1))
        fresh, reduced = SimplicialComplex(K.vertices, K.facets), []

        def recording(K):
            reduced.append(_contracted(K))
            return reduced[-1]

        with mock.patch.object(sys.modules["nbhd.homology"], "_contracted", recording):
            if not boundary and min(chains, n_faces) > limit:
                with pytest.raises(ResourceLimitError, match="face enumeration"):
                    homology(fresh, limit)
                return
            assert homology(fresh, limit) == uncleared_homology(K)
        if boundary:
            assert reduced == [] and fresh._faces is None
            return
        assert [(R.vertices, R.facets) for R in reduced] == [(C.vertices, C.facets)]
        assert (reduced[0]._faces is None) == (chains < n_faces and chains <= limit)

    def test_a_one_element_lattice_is_a_point(self):
        K = full_simplex(4)
        assert lattice_levels(K)[0] == [31]
        assert homology(K).groups == ((1, ()),) + ((0, ()),) * 4
        assert K._faces is None

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
        lambda e: e[0] < e[1]), max_size=16), st.data())
    @settings(max_examples=200, deadline=None)
    def test_union_find_matches_smith_form(self, edges, data):
        cleared = data.draw(st.sets(st.integers(0, max(len(edges) - 1, 0))))
        rows, cols = {}, {}
        for c, (a, b) in enumerate(edges):
            if c not in cleared:
                rows.setdefault(a, {})[c] = -1
                rows.setdefault(b, {})[c] = 1
                cols[c] = {a, b}
        factors, merged = _snf_factors(rows, cols, set()), set()
        assert _forest_factors(edges, cleared, merged) == factors
        # the merging edges are a spanning forest of the kept ones: they
        # have the same rank, and every one of them merges again
        assert not merged & cleared
        tree = set()
        assert _forest_factors(edges, set(range(len(edges))) - merged, tree) == factors
        assert tree == merged


class TestDirection:
    """The model ``_levels`` chooses sets the direction: the lattice's chains
    are reduced from dimension 1 up, the union-find first, and the faces from
    the top down, the union-find last; the rows of each reduction's unit
    pivots, the merging edges for the union-find, clear the next one's
    columns."""

    @staticmethod
    def reductions(monkeypatch, K):
        module = sys.modules["nbhd.homology"]
        boundary, forest, seen = module._boundary, module._forest_factors, []

        def spy_boundary(levels, d, cleared, up):
            seen.append((d, up, set(cleared)))
            return boundary(levels, d, cleared, up)

        def spy_forest(edges, cleared, pivot_rows):
            factors = forest(edges, cleared, pivot_rows)
            seen.append((1, None, set(pivot_rows)))
            return factors

        monkeypatch.setattr(module, "_boundary", spy_boundary)
        monkeypatch.setattr(module, "_forest_factors", spy_forest)
        return homology(K), seen

    @pytest.mark.parametrize("n, k", [(6, 2), (7, 2), (8, 3)])
    def test_the_lattice_runs_bottom_up(self, monkeypatch, n, k):
        K = neighborhood_complex(make_kneser(n, k), 1)
        h, seen = self.reductions(monkeypatch, K)
        assert K._faces is None and h.betti(0) == 1
        assert [d for d, _, _ in seen] == list(range(1, len(seen) + 1))
        assert all(up for _, up, _ in seen[1:])
        # Delta(L) is connected: the merging edges span its |L| vertices,
        # and they are the columns the next matrix drops
        assert len(seen[0][2]) == len(lattice_levels(K)[0]) - 1
        assert seen[1][2] == seen[0][2]

    @given(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=5),
                    min_size=1, max_size=8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_the_transpose_drops_the_cleared_rows(self, faces, data):
        # up, the boundary comes transposed and the cleared set names
        # (d-1)-faces, its columns now
        levels = list(SimplicialComplex.from_faces(faces).faces().values())
        for d in range(1, len(levels)):
            cleared = data.draw(st.sets(st.integers(0, len(levels[d - 1]) - 1)))
            rows, _ = _boundary(levels, d)
            up_rows, up_cols = _boundary(levels, d, cleared, True)
            assert {(j, i): v for i, r in up_rows.items() for j, v in r.items()} == {
                (i, j): v for i, r in rows.items() if i not in cleared for j, v in r.items()}
            assert up_cols == {i: set(r) for i, r in rows.items() if i not in cleared}

    @pytest.mark.parametrize("build", [rp2_complex, klein_bottle])
    def test_the_faces_run_top_down(self, monkeypatch, build):
        K = build()
        _, seen = self.reductions(monkeypatch, K)
        assert K._faces is not None
        assert [d for d, _, _ in seen] == list(range(len(seen), 0, -1))
        assert not any(up for _, up, _ in seen[:-1])
        assert seen[0][2] == set()


def contracted_homology(K):
    """The groups of ``K`` read from the faces of ``_contracted(K)``, with no
    model chosen, padded to ``K``'s dimension."""
    return _level_homology(list(_contracted(K).faces().values()), False, K.dim + 1)


def merge_dropping_a(facets, star, a, b):
    """Mutation of ``_merge``: a facet that held b and not a loses b and
    does not gain a."""
    alone = star[b] - star[a]
    touched = _merge(facets, star, a, b)
    for j in alone:
        if facets[j]:
            facets[j] &= ~(1 << a)
            star[a].discard(j)
    return touched


class TestContraction:
    """``homology`` first contracts every edge that meets the link condition;
    the uncleared reduction of the uncontracted complex is the reference."""

    @given(st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=5),
                    min_size=0, max_size=14))
    @settings(max_examples=300, deadline=None)
    def test_random_complexes_match_uncontracted(self, faces):
        K = SimplicialComplex.from_faces(faces)
        C = _contracted(K)
        SimplicialComplex(C.vertices, C.facets)  # facets non-nested and distinct
        assert set(C.vertices) <= set(K.vertices)
        assert contracted_homology(K) == homology(K) == uncleared_homology(K)

    @given(small_graphs(), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_random_neighborhood_complexes(self, G, r):
        K = neighborhood_complex(G, r)
        assert contracted_homology(K) == uncleared_homology(K)

    @pytest.mark.parametrize("name", sorted(TORSION_CASES))
    def test_torsion_cases(self, name):
        build, groups = TORSION_CASES[name]
        K = build()
        assert contracted_homology(K).groups == homology(K).groups == groups

    def test_rp2_has_no_contractible_edge(self):
        # every two of its 6 vertices span an edge, whose link is two
        # vertices, while the links of its ends share four
        K = rp2_complex()
        assert _contracted(K) is K

    @pytest.mark.parametrize("K, facets", [
        (simplex_boundary(3), 4),  # every edge fails the pairwise check alone
        (full_simplex(4), 1),  # one facet: a point
        (SimplicialComplex.from_faces([(k, (k + 1) % 6) for k in range(6)]), 3),  # a hexagon
    ], ids=["tetrahedron boundary", "simplex", "hexagon"])
    def test_facets_left(self, K, facets):
        assert len(_contracted(K).facets) == facets

    def test_cycle_complexes_shrink_to_a_few_facets(self):
        for m, r in [(17, 7), (31, 13)]:
            C = _contracted(neighborhood_complex(make_cycle(m), r))
            assert len(C.facets) <= 7 and homology(C).betti_vector[:2] == (1, 1)

    def test_skipping_the_pairwise_check_fails(self, monkeypatch):
        # the tetrahedron boundary passes the star test on every edge; only
        # the pairwise check keeps its sphere, read from the contracted
        # complex's faces (``homology`` answers it from its facets)
        monkeypatch.setattr(sys.modules["nbhd.homology"], "_link_condition", lambda *args: True)
        K = simplex_boundary(3)
        assert contracted_homology(K) != uncleared_homology(K)

    def test_a_merged_facet_dropping_a_fails(self, monkeypatch):
        # the hexagon's edges all contract; the cycle breaks once a merged
        # edge keeps only its far end (``homology`` answers this linear
        # complex from its facets)
        monkeypatch.setattr(sys.modules["nbhd.homology"], "_merge", merge_dropping_a)
        K = SimplicialComplex.from_faces([(k, (k + 1) % 6) for k in range(6)])
        assert contracted_homology(K) != uncleared_homology(K)


@st.composite
def split_complexes(draw):
    """Complexes made of up to three blocks of faces on disjoint vertex
    ranges, so empty, one-facet and disconnected complexes all occur."""
    blocks = draw(st.lists(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=5),
                                    max_size=6), max_size=3))
    return SimplicialComplex.from_faces(
        [[(k, v) for v in f] for k, faces in enumerate(blocks) for f in faces])


def contraction_matches_oracle(K):
    """The contracted complex, checked against the oracle's contraction; then
    the lattice of the contracted complex, closed on the stars of its
    vertices, checked against the oracle's closure and holders."""
    C, O = _contracted(K), oracle._contracted(K)
    assert (C.vertices, C.facets) == (O.vertices, O.facets)
    spans = [sum(1 << v for v in f) for f in C.facets]
    found, old = set(), set(spans)
    bounds = list(_closure(C.facets, found))
    old_bounds = [len(old)] + list(oracle._closure(spans, old))  # the first, before a round
    assert found == old and bounds == sorted(bounds) and bounds[-1] == old_bounds[-1]
    lattice = sorted(found, key=int.bit_count)
    assert _above(lattice) == [list(_bits(a)) for a in oracle._above(lattice, C.n_vertices)]
    return C


def oracle_counts(K):
    """The chains of the order complex of ``K``'s facet-intersection lattice,
    closed by the oracle, and ``K``'s faces, each listed and counted."""
    spans = [sum(1 << v for v in f) for f in K.facets]
    found = set(spans)
    for _ in oracle._closure(spans, found):
        pass
    lattice = sorted(found, key=int.bit_count)
    chains = _chains([list(_bits(a)) for a in oracle._above(lattice, K.n_vertices)])
    faces = SimplicialComplex(K.vertices, K.facets).faces()
    return sum(map(len, chains)), sum(map(len, faces.values()))


class TestTouchingFacets:
    """The link condition pairs only facets that meet, and the lattice meets
    only facets that share a vertex; the all-pairs link condition, closure
    and holder masks they replaced are the oracle."""

    @given(split_complexes())
    @settings(max_examples=300, deadline=None)
    def test_random_complexes_match_the_oracle(self, K):
        contraction_matches_oracle(K)

    @given(split_complexes(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_model_and_guard_match_the_oracle(self, K, data):
        # the same model as the oracle's counts choose; past the limit in
        # both, the face guard counts only the faces read, one past it
        C = _contracted(K)
        chains, n_faces = oracle_counts(oracle._contracted(K))
        limit = data.draw(st.integers(0, max(chains, n_faces) + 1))
        if min(chains, n_faces) > limit:
            with pytest.raises(ResourceLimitError) as err:
                _levels(C, limit)
            assert (err.value.count, err.value.limit) == (limit + 1, limit)
            return
        levels, up = _levels(C, limit)
        assert (C._faces is None) == up == (chains < n_faces and chains <= limit)
        assert sum(map(len, levels)) == (chains if C._faces is None else n_faces)

    @pytest.mark.parametrize("name", sorted(TORSION_CASES))
    def test_torsion_cases(self, name):
        contraction_matches_oracle(TORSION_CASES[name][0]())

    @pytest.mark.parametrize("m, r, facets", [(17, 7, 7), (31, 13, 7), (4001, 2, 3)])
    def test_cycle_complexes(self, m, r, facets):
        C = contraction_matches_oracle(neighborhood_complex(make_cycle(m), r))
        assert len(C.facets) == facets

    @pytest.mark.parametrize("G, r, facets", [
        (random_cubic_graph(200, 1), 1, (199, 166)),
        (torus_grid(7), 1, (49, 16)), (torus_grid(7), 2, (49, 9))],
        ids=["cubic 200 r=1", "torus 7 r=1", "torus 7 r=2"])
    def test_sparse_rungs(self, G, r, facets):
        # the cubic graph is the case where 142 merges leave 166 of 199
        # facets; the groups equal the uncleared reduction's and those of the
        # oracle's contracted complex
        K = neighborhood_complex(G, r)
        C = contraction_matches_oracle(K)
        assert (len(K.facets), len(C.facets)) == facets
        h = homology(K)
        assert h == uncleared_homology(K)
        assert h.groups == _level_homology(
            list(oracle._contracted(K).faces().values()), False, K.dim + 1).groups


class TestReach:
    """Complexes that contract to a few facets: known answers within a
    second of CPU time each."""

    @staticmethod
    def timed(K):
        start = time.process_time()
        h = homology(K)
        assert time.process_time() - start < 1.0
        return h

    def test_cycle_31_radius_13(self):
        h = self.timed(neighborhood_complex(make_cycle(31), 13))
        assert h.groups == ((1, ()), (1, ())) + ((0, ()),) * 12

    def test_mycielskian_cubed_is_a_4_sphere(self):
        # N(M^3(C5)) ~ S^4 (Csorba 2008)
        G = make_cycle(5)
        for _ in range(3):
            G = mycielskian(G)
        K = neighborhood_complex(G, 1)
        h = self.timed(K)
        assert h.betti_vector == (1, 0, 0, 0, 1) + (0,) * (K.dim - 4)
        assert not any(t for _, t in h.groups)

    def test_cycle_4001_radius_2(self):
        h = self.timed(neighborhood_complex(make_cycle(4001), 2))
        assert h.groups == ((1, ()), (1, ()), (0, ()))


class TestPairCells:
    """The order complex of a linked-pair poset of G at radius r is reduced
    as N_r(G), which has its homotopy type; the chains of the same complex
    are the reference."""

    @given(small_graphs(), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_cells_match_chains(self, G, r):
        try:
            K = order_complex(pair_poset(G, r, size_guard=300), limit=300)
            chains = chain_model(K)
        except ResourceLimitError:
            return
        assert homology(K).groups == homology(chains).groups

    @given(small_graphs(), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_pair_space_is_the_padded_neighborhood_complex(self, G, r):
        # torsion included; even radii put loops in G_r
        P = pair_poset(G, r, size_guard=10**5)
        width = max((len(a) + len(b) - 1 for a, b in P.elements), default=0)
        groups = homology(neighborhood_complex(G, r)).groups
        assert homology(order_complex(P)).groups == groups + ((0, ()),) * (width - len(groups))

    def test_limit_bounds_the_cells(self):
        # N_3(C7) is reduced on 56 faces or chains, the fewer of its two
        # models; the order complex's faces are never listed
        K = order_complex(pair_poset(make_cycle(7), 3))
        assert homology(K, 56).betti_vector == (1, 1, 0, 0)
        with pytest.raises(ResourceLimitError) as err:
            homology(K, 55)
        assert (err.value.count, err.value.limit) == (56, 55)
        assert "face enumeration" in str(err.value)
        assert K._faces is None

    def test_a_simplex_boundary_passes_any_limit(self):
        # N_3(C5), the boundary of a 4-simplex, is answered from its facets;
        # neither it nor the order complex has a face listed
        K = order_complex(pair_poset(make_cycle(5), 3))
        assert homology(K, 0).betti_vector == (1, 0, 0, 1)
        assert K._faces is None

    def test_kneser_7_2_radius1(self):
        # more than 5,000,000 maximal chains; N_1(K(7,2)) is reduced instead
        K = order_complex(pair_poset(make_kneser(7, 2), 1))
        h = homology(K)
        assert h.betti_vector == (1, 0, 0, 29, 0, 0, 0, 0, 0, 0)
        assert all(t == () for _, t in h.groups)

    @pytest.mark.parametrize("m, r, guard, betti", [
        (5, 3, 200_000, (1, 0, 0, 1)), (7, 3, 200_000, (1, 1, 0, 0)),
        (7, 5, 200_000, (1, 0, 0, 0, 0, 1)), (11, 9, 10**6, (1,) + (0,) * 8 + (1,))],
        ids=["C5 r=3", "C7 r=3", "C7 r=5", "C11 r=9"])
    def test_no_chain_is_listed_and_no_poset_revalidated(self, monkeypatch, m, r, guard, betti):
        # nor is a poset element or cover built
        def refuse(*args, **kwargs):
            raise AssertionError("the pair space's homology reached a spied call")

        monkeypatch.setattr(Poset, "maximal_chains", refuse)
        monkeypatch.setattr(Poset, "__init__", refuse)
        monkeypatch.setattr(complexes, "_linked_pairs", refuse)
        K = order_complex(pair_poset(make_cycle(m), r, size_guard=guard))
        assert homology(K).betti_vector == betti
        with pytest.raises(AssertionError, match="spied"):
            K.facets  # the spy would have caught a chain listing
        with pytest.raises(AssertionError, match="spied"):
            K.vertices  # and the poset's build

    def test_c11_r9_reach(self):
        # 173,052 poset elements and 1,254,044 covers that homology never
        # builds; N_9(C11) is the boundary of a 10-simplex
        start = time.process_time()
        h = homology(order_complex(pair_poset(make_cycle(11), 9)))
        assert time.process_time() - start < 0.5
        assert h.betti_vector == (1,) + (0,) * 8 + (1,)

    def test_c7_r5_reach(self):
        # 1,932 poset elements and 1,468,824 faces of the order complex,
        # reduced as N_5(C7), the boundary of a 6-simplex
        K = order_complex(pair_poset(make_cycle(7), 5, size_guard=10**6))
        start = time.process_time()
        h = homology(K)
        assert time.process_time() - start < 1.0
        assert h.groups == ((1, ()), (0, ()), (0, ()), (0, ()), (0, ()), (1, ()))


@st.composite
def near_simplex_complexes(draw):
    """Complexes on 2..8 vertices, most of whose facets have n - 1 or n - 2
    vertices, with up to two ghost vertices that lie in no facet."""
    n = draw(st.integers(2, 8))
    size = st.one_of(st.just(n - 1), st.just(max(n - 2, 1)), st.integers(1, n))
    faces = draw(st.lists(size.flatmap(
        lambda k: st.sets(st.integers(0, n - 1), min_size=k, max_size=k)), min_size=1, max_size=8))
    K = SimplicialComplex.from_faces(faces)
    ghosts = tuple(("ghost", g) for g in range(draw(st.integers(0, 2))))
    return SimplicialComplex(K.vertices + ghosts, K.facets)


def sphere_groups(d):
    return ((1, ()),) + ((0, ()),) * (d - 1) + ((1, ()),)


def is_simplex_boundary(K):
    """Oracle: whether the faces of ``K`` are exactly the nonempty proper
    subsets of the two or more vertices in its facets.  Reads the faces of a
    copy of ``K``."""
    V = set().union(*map(set, K.facets))
    faces = {frozenset(f) for level in chain_model(K).faces().values() for f in level}
    proper = {frozenset(t) for k in range(1, len(V)) for t in itertools.combinations(V, k)}
    return len(V) > 1 and faces == proper


def is_linear(K):
    """Oracle: whether every two facets of ``K`` share at most one vertex,
    checked on every pair of facets."""
    return all(len(set(f) & set(g)) <= 1 for f, g in itertools.combinations(K.facets, 2))


class TestSimplexBoundary:
    """The boundary of a simplex is answered from its facets, with no face
    read and nothing contracted; the uncleared reduction of its faces and
    ``is_simplex_boundary`` are the references.  A linear complex is too
    (``TestLinear``)."""

    @given(st.one_of(near_simplex_complexes(), st.lists(
        st.sets(st.integers(0, 9), min_size=2, max_size=4), min_size=2, max_size=8).map(
        SimplicialComplex.from_faces)))
    @settings(max_examples=400, deadline=None)
    def test_near_simplices_match_uncleared(self, K):
        # near simplices, and random facet sets some of which share one
        # vertex at most: only a simplex boundary or a linear complex skips
        # the contraction
        contracted = []

        def recording(C):
            contracted.append(C)
            return _contracted(C)

        with mock.patch.object(sys.modules["nbhd.homology"], "_contracted", recording):
            h = homology(K)
        assert (contracted == []) == (is_simplex_boundary(K) or is_linear(K))
        assert K._faces is None or contracted
        assert h == uncleared_homology(K)

    @staticmethod
    def reads_nothing(monkeypatch, K, d):
        # no face is read, nothing is contracted and no matrix is reduced
        def refuse(*args):
            raise AssertionError("a simplex boundary reached a spied call")

        for name in ("_snf_factors", "_contracted", "_levels"):
            monkeypatch.setattr(sys.modules["nbhd.homology"], name, refuse)
        monkeypatch.setattr(sys.modules["nbhd.complexes"], "_face_levels", refuse)
        assert homology(K, 0).groups == sphere_groups(d) and K.dim == d
        assert K._faces is None

    @pytest.mark.parametrize("G, r, d", [
        *((make_cycle(m), m - 2, m - 2) for m in range(3, 32, 2)),
        (make_kneser(5, 2), 3, 8), (make_kneser(7, 3), 5, 33), (make_kneser(9, 4), 7, 124),
    ], ids=[f"C{m} r={m - 2}" for m in range(3, 32, 2)]
       + ["Petersen r=3", "K(7,3) r=5", "K(9,4) r=7"])
    def test_simplex_boundaries_read_nothing(self, monkeypatch, G, r, d):
        self.reads_nothing(monkeypatch, neighborhood_complex(G, r), d)

    def test_a_ghost_vertex_is_not_counted(self, monkeypatch):
        K = SimplicialComplex(range(6), simplex_boundary(4).facets)  # vertex 5 is in no facet
        self.reads_nothing(monkeypatch, K, 3)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_one_facet_short_is_a_disk(self, n):
        # n - 1 of the n facets of the boundary of a simplex: a disk, which
        # the contraction and the faces answer
        K = SimplicialComplex(range(n), simplex_boundary(n - 1).facets[1:])
        assert homology(K) == uncleared_homology(K)
        assert homology(K).betti_vector == (1,) + (0,) * (n - 2)

    def test_a_cone_of_near_facets_is_contracted(self):
        # the facets V - v for v in 0..22 on 46 vertices all hold 23..45:
        # a cone, which the contraction takes to a point from its facets
        k = 23
        K = SimplicialComplex(range(2 * k), [tuple(v for v in range(2 * k) if v != s)
                                             for s in range(k)])
        start = time.process_time()
        assert homology(K).groups == ((1, ()),) + ((0, ()),) * (2 * k - 2)
        assert time.process_time() - start < 0.5

    def test_kneser_7_3_radius_5_in_a_tenth_of_a_second(self):
        start = time.process_time()
        h = homology(neighborhood_complex(make_kneser(7, 3), 5))
        assert time.process_time() - start < 0.1
        assert h.groups == sphere_groups(33)


@st.composite
def linear_complexes(draw):
    """Complexes whose facets pairwise share at most one vertex: up to three
    blocks on disjoint vertex ranges, each of random facet sets on 14
    vertices kept while they meet every set kept before in at most one
    vertex, so single points, edges, empty and disconnected complexes all
    occur."""
    blocks = draw(st.lists(st.lists(st.sets(st.integers(0, 13), min_size=1, max_size=5),
                                    max_size=12), max_size=3))
    faces = []
    for k, block in enumerate(blocks):
        kept = []
        for f in block:
            if all(len(f & g) <= 1 for g in kept):
                kept.append(f)
        faces += [[(k, v) for v in f] for f in kept]
    return SimplicialComplex.from_faces(faces)


def circle_groups(pieces):
    return ((pieces, ()), (pieces, ()))


class TestLinear:
    """A linear complex, in which every two facets share at most one vertex,
    is answered from its facets: it has the homotopy type of its
    vertex-facet incidence graph.  Nothing is contracted and no face or
    chain is read; the face and chain models, the uncleared reduction and
    ``is_linear`` are the references."""

    @given(linear_complexes())
    @settings(max_examples=300, deadline=None)
    def test_random_linear_complexes_match_both_models(self, K):
        assert is_linear(K)
        assert TestLattice.check_models(K) == uncleared_homology(K)

    @given(small_graphs(), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_linear_neighborhood_complexes(self, G, r):
        K = neighborhood_complex(G, r)
        assume(is_linear(K))
        assert TestLattice.check_models(K) == uncleared_homology(K)

    @pytest.mark.parametrize("G, r, groups", [
        (make_cycle(5), 1, circle_groups(1)), (make_cycle(9), 1, circle_groups(1)),
        (make_cycle(6), 1, circle_groups(2)), (make_cycle(4), 1, ((2, ()), (0, ()))),
        (make_kneser(5, 2), 1, ((1, ()), (11, ()), (0, ()))),
        (Graph(range(3), [(0, 1)]), 1, ((2, ()),)),  # two points: 0-dimensional
    ], ids=["C5 r=1", "C9 r=1", "C6 r=1", "C4 r=1", "Petersen r=1", "edge and lone vertex"])
    def test_linear_pair_spaces(self, G, r, groups):
        # reduced as N_r(G), whose closed form is padded to the pair space's
        # dimension, or cut to it
        assert is_linear(neighborhood_complex(G, r))
        P = order_complex(pair_poset(G, r))
        h = homology(P)
        assert h == uncleared_homology(chain_model(P))
        assert h.groups == groups + ((0, ()),) * (P.dim + 1 - len(groups))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_odd_graphs(self, k):
        # N_1(K(2k + 1, k)): b1 = (k - 1) C(2k + 1, k) + 1
        K = neighborhood_complex(make_kneser(2 * k + 1, k), 1)
        b1 = (k - 1) * math.comb(2 * k + 1, k) + 1
        assert homology(K).groups == ((1, ()), (b1, ())) + ((0, ()),) * (k - 1)

    @pytest.mark.parametrize("m", [3, 5, 7, 21, 4001])
    def test_odd_cycles_are_circles(self, m):
        assert homology(neighborhood_complex(make_cycle(m), 1)).groups == circle_groups(1)

    @given(linear_complexes(), linear_complexes())
    @settings(max_examples=100, deadline=None)
    def test_disjoint_pieces_add(self, K, L):
        # the groups of a disjoint union are the sums of the pieces' groups
        U = SimplicialComplex.from_faces([[(0, v) for v in f] for f in K.facet_label_sets()]
                                         + [[(1, v) for v in f] for f in L.facet_label_sets()])
        width = max(K.dim, L.dim) + 1
        assert homology(U).betti_vector == tuple(
            homology(K).betti(d) + homology(L).betti(d) for d in range(width))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_points(self, n):
        K = SimplicialComplex(range(n), [(v,) for v in range(n)])
        assert homology(K, 0).groups == ((n, ()),)

    @pytest.mark.parametrize("K", [
        SimplicialComplex(range(4), [(0, 1), (1, 2), (2, 3)]),
        SimplicialComplex.from_faces([(0, 1, 2), (2, 3, 4), (4, 5, 0), (6,)]),
        neighborhood_complex(make_kneser(9, 4), 1),
        neighborhood_complex(make_cycle(17), 1),
    ], ids=["path", "triangle of triangles and a point", "K(9,4) r=1", "C17 r=1"])
    def test_linear_complexes_read_nothing(self, monkeypatch, K):
        def refuse(*args):
            raise AssertionError("a linear complex reached a spied call")

        expected = uncleared_homology(chain_model(K))
        for name in ("_contracted", "_levels"):
            monkeypatch.setattr(sys.modules["nbhd.homology"], name, refuse)
        monkeypatch.setattr(sys.modules["nbhd.complexes"], "_face_levels", refuse)
        assert homology(K, 0) == expected
        assert K._faces is None

    @pytest.mark.parametrize("K, betti", [
        (neighborhood_complex(make_kneser(6, 2), 1), (1, 0, 19, 0, 0, 0)),
        (SimplicialComplex.from_faces([(0, 1, 2), (1, 2, 3)]), (1, 0, 0)),
        (SimplicialComplex.from_faces([(0, 1, 2), (2, 3, 4), (3, 4, 0)]), (1, 1, 0)),
    ], ids=["K(6,2) r=1", "two triangles on an edge", "a triangle pair closing a cycle"])
    def test_a_shared_pair_takes_the_reduction(self, monkeypatch, K, betti):
        # facets sharing two vertices: the complex is contracted and its
        # model chosen as before
        module, seen = sys.modules["nbhd.homology"], []
        for name in ("_contracted", "_levels"):
            def spy(*args, _call=getattr(module, name), _name=name):
                seen.append(_name)
                return _call(*args)
            monkeypatch.setattr(module, name, spy)
        assert not is_linear(K)
        assert homology(K).betti_vector == betti
        assert seen == ["_contracted", "_levels"]


# the complexes of the homology benchmark workload, unshuffled, with K(7,2);
# the pair spaces reduce N_3(C5) and N_3(C7), and their chain models their faces
UNIT_PASS_CASES = {
    "pair C5 r=3": lambda: order_complex(pair_poset(make_cycle(5), 3)),
    "pair C7 r=3": lambda: order_complex(pair_poset(make_cycle(7), 3)),
    "pair C5 r=3 chains": lambda: chain_model(order_complex(pair_poset(make_cycle(5), 3))),
    "pair C7 r=3 chains": lambda: chain_model(order_complex(pair_poset(make_cycle(7), 3))),
    "N Petersen r=3": lambda: neighborhood_complex(make_kneser(5, 2), 3),
    "N K(9,4) r=1": lambda: neighborhood_complex(make_kneser(9, 4), 1),
    "N K(6,2) r=1": lambda: neighborhood_complex(make_kneser(6, 2), 1),
    "N C17 r=7": lambda: neighborhood_complex(make_cycle(17), 7),
    "N K(7,2) r=1": lambda: neighborhood_complex(make_kneser(7, 2), 1),
}


class TestUnitPass:
    """Unit pivots come in two phases.  Rows holding a single +-1 are
    pivoted first, from a queue, by deleting their column from the other
    rows; a row left single is queued in turn.  On what remains, the unit
    pass pivots the shortest column on its shortest unit row and queues
    again the columns an elimination touched."""

    @pytest.mark.parametrize("K, betti", [
        # each pivot's row is single from the start, in every dimension
        (full_simplex(4), (1, 0, 0, 0, 0)),
        # only the two ends are single; each pivot leaves the next row single
        (SimplicialComplex.from_faces([(k, k + 1) for k in range(6)]), (1, 0)),
    ], ids=["full 4-simplex", "path"])
    def test_free_rows_take_every_pivot(self, monkeypatch, K, betti):
        module = sys.modules["nbhd.homology"]
        eliminate_unit = module._eliminate_unit
        calls = []

        def recording(rows, cols, pi, pj):
            calls.append((pi, pj))
            return eliminate_unit(rows, cols, pi, pj)

        monkeypatch.setattr(module, "_eliminate_unit", recording)
        assert homology(K).betti_vector == betti
        assert calls == []

    def test_touched_column_is_queued_again(self):
        # column 0 holds no unit until the pivot in column 1 leaves 3 - 2 = 1
        pivots = set()
        matrix = {(0, 0): 2, (0, 1): 1, (1, 0): 3, (1, 1): 1}
        assert reduce_sparse(matrix, pivots) == (1, 1)
        assert pivots == {0, 1}

    @staticmethod
    def dense_shapes(monkeypatch, K):
        # (rows, columns) left to the non-unit pass by each reduction
        module = sys.modules["nbhd.homology"]
        non_unit_pass = module._non_unit_pass
        shapes = []

        def recording(rows, cols):
            shapes.append((len(rows), len(cols)))
            return non_unit_pass(rows, cols)

        monkeypatch.setattr(module, "_non_unit_pass", recording)
        h = homology(K)
        monkeypatch.undo()
        return h, shapes

    @pytest.mark.parametrize("name", sorted(UNIT_PASS_CASES))
    def test_no_dense_endgame(self, monkeypatch, name):
        _, shapes = self.dense_shapes(monkeypatch, UNIT_PASS_CASES[name]())
        assert all(rows == 0 for rows, _ in shapes)

    @pytest.mark.parametrize("name", sorted(TORSION_CASES))
    def test_torsion_endgame_is_one_column(self, monkeypatch, name):
        build, groups = TORSION_CASES[name]
        h, shapes = self.dense_shapes(monkeypatch, build())
        assert h.groups == groups
        assert all(cols <= 1 for _, cols in shapes)


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


def full_face_presentation(K, v, limit=None):
    """Oracle: the edge-path presentation read from every face of ``K``
    through ``K.faces``, with each adjacency list sorted after it is built."""
    faces = K.faces(limit)
    root = K.index_of(v)
    edges = faces.get(1, [])
    adj = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for a in adj:
        adj[a].sort()
    seen, tree, queue = {root}, set(), deque([root])
    while queue:
        u = queue.popleft()
        for w in adj.get(u, []):
            if w not in seen:
                seen.add(w)
                tree.add((min(u, w), max(u, w)))
                queue.append(w)
    gens = [e for e in edges if e[0] in seen and e not in tree]
    gen_index = {e: i for i, e in enumerate(gens)}
    relators = []
    for a, b, c in faces.get(2, []):
        if a in seen:
            word = [(gen_index[p], exp) for p, exp in (((a, b), 1), ((b, c), 1), ((a, c), -1))
                    if p in gen_index]
            if word:
                relators.append(tuple(word))
    return Presentation(tuple(f"g({K.vertices[a]},{K.vertices[b]})" for a, b in gens),
                        tuple(relators))


PRESENTED = [simplex_boundary(2), simplex_boundary(3), rp2_complex(),
             neighborhood_complex(make_cycle(7), 2), neighborhood_complex(make_cycle(9), 3)]


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

    @pytest.mark.parametrize("K", PRESENTED + [build() for build, _ in TORSION_CASES.values()])
    def test_equals_the_full_face_read(self, K):
        for v in K.vertices:
            assert edge_path_presentation(K, v) == full_face_presentation(K, v)

    @given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=6),
                    min_size=1, max_size=10), st.integers(0, 7))
    @settings(max_examples=150, deadline=None)
    def test_random_complexes_equal_the_full_face_read(self, faces, v):
        K = SimplicialComplex.from_faces(faces)
        v = K.vertices[v % K.n_vertices]
        assert edge_path_presentation(K, v) == full_face_presentation(K, v)

    def test_reads_only_the_2_skeleton(self):
        # N_1(K(9,3)) has 56,994 faces of dimension at most 2 and millions
        # above; the guard counts only those read, and no cache is filled
        K = neighborhood_complex(make_kneser(9, 3), 1)
        pres = edge_path_presentation(K, K.vertices[0], limit=56_994)
        assert K._faces is None
        assert (len(pres.generators), len(pres.relators)) == (3_403, 53_424)
        with pytest.raises(ResourceLimitError) as err:
            edge_path_presentation(K, K.vertices[0], limit=56_993)
        assert "face enumeration reached 56994 faces" in str(err.value)
        with pytest.raises(ResourceLimitError):
            K.faces(56_994)
        h = homology(K)
        assert abelianize(pres) == (0, ()) == (h.betti(1), h.torsion(1))


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
