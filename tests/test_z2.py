import itertools
import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    antipodal6,
    face_counts,
    hexagon_complex,
    mycielskian,
    octahedron,
    random_connected_graph,
    rp2_complex,
    small_graph_corpus,
)
from nbhd import (
    FreenessError,
    FreenessReport,
    Graph,
    Involution,
    ResourceLimitError,
    SearchOutcome,
    SimplicialComplex,
    check_free_involution,
    height_bounds,
    homology,
    hom_search,
    kneser_certificate,
    make_cycle,
    make_kneser,
    obstruction_check,
    odd_girth,
    order_complex,
    pair_poset,
    pair_space_height,
    pair_swap_involution,
    z2_height,
)
from nbhd import gf2, z2
from nbhd.cli import main
from nbhd.complexes import sorted_labels
from nbhd.graphs import walk_ball
from nbhd.z2 import (
    HeightBound,
    _box_faces,
    _height,
)
import colour_cap_oracle
import height_oracle
from quotient_oracle import (
    CochainZ2,
    QuotientStructureError,
    build_quotient,
    coboundary,
    cup_product,
    is_coboundary,
    monodromy_bits,
    quotient_complex,
    reference_height,
    unit_cochain,
    w1_cocycle,
    zero_cochain,
)


def balls(G, r):
    """The exact-r walk ball of each vertex, as the box-complex helpers take them."""
    return [walk_ball(G, x, r) for x in range(G.n_vertices)]


def mask(face):
    """A face's vertex bits, as the mask path keeps it."""
    return sum(1 << v for v in face)


def vertices(f):
    """The vertex tuple of the face mask ``f``."""
    return tuple(v for v in range(f.bit_length()) if f >> v & 1)


def orbit_masks(K, t):
    """The orbit levels ``z2_height`` reads, as masks."""
    return ([mask(f) for f in level] for level in height_oracle.orbit_levels(K, t))


def swap_complex(G, r):
    K = order_complex(pair_poset(G, r))
    return K, pair_swap_involution(K)


class TestInvolution:
    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            Involution((1, 2, 0))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Involution((0, 0))

    @pytest.mark.parametrize("perm", [(1.7, 0.2), ("1", "0"), (1, 0.0)])
    def test_rejects_non_integer_indices(self, perm):
        # int() would truncate (1.7, 0.2) to the valid swap (1, 0)
        with pytest.raises(ValueError):
            Involution(perm)
        perm = Involution((True, False)).perm
        assert perm == (1, 0) and all(type(i) is int for i in perm)

    def test_make_and_replace_validate(self):
        with pytest.raises(ValueError):
            Involution((1, 0))._replace(perm=(0, 0))
        with pytest.raises(ValueError):
            Involution._make([(2, 2)])
        assert Involution((1, 0))._replace(perm=(0, 1)) == Involution((0, 1))

    def test_identity_is_an_involution_but_not_free(self):
        K = hexagon_complex()
        t = Involution(tuple(range(6)))
        report = check_free_involution(K, t)
        assert not report and report.reason == "fixed vertex"


class TestFreeness:
    def test_hexagon_antipodal_is_free(self):
        K = hexagon_complex()
        assert check_free_involution(K, antipodal6(K))

    def test_pair_swap_is_free(self):
        K, t = swap_complex(make_cycle(3), 1)
        assert check_free_involution(K, t)

    def test_face_meeting_its_image(self):
        K = SimplicialComplex.from_faces([(0, 1)])
        t = Involution.from_label_map(K, {0: 1, 1: 0})
        report = check_free_involution(K, t)
        assert not report and report.reason == "face contains a vertex and its image"

    def test_non_simplicial_reported_with_witness(self):
        # path 0-1-2-3: swapping the ends maps edge (0,1) to the non-face (2,3)...
        K = SimplicialComplex.from_faces([(0, 1), (1, 2), (2, 3)])
        t = Involution.from_label_map(K, {0: 3, 3: 0, 1: 1, 2: 2})
        report = check_free_involution(K, t)
        assert not report and report.reason == "not simplicial"
        assert report.witness is not None


def reference_freeness(K, t):
    """Oracle: the freeness check with every facet image tested by the
    linear face scan."""
    for facet in K.facets:
        img = t.image_face(facet)
        if not K.has_face_indices(img):
            return FreenessReport(
                False, "not simplicial", (K.face_labels(facet), K.face_labels(img)))
    fixed = [i for i in range(K.n_vertices) if t.perm[i] == i]
    if fixed:
        return FreenessReport(False, "fixed vertex", (K.vertices[fixed[0]],))
    for facet in K.facets:
        if any(t.perm[i] in facet for i in facet):
            return FreenessReport(
                False, "face contains a vertex and its image", (K.face_labels(facet),))
    return FreenessReport(True)


@st.composite
def complexes_with_involutions(draw):
    """A complex on vertices 0..n-1 and an involution pairing some of them;
    half the complexes are closed under the involution."""
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    perm = list(range(n))
    for k in range(draw(st.integers(0, n // 2))):
        a, b = order[2 * k], order[2 * k + 1]
        perm[a], perm[b] = b, a
    faces = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
                          max_size=6))
    if draw(st.booleans()):
        faces += [{perm[i] for i in f} for f in faces]
    K = SimplicialComplex.from_faces(faces + [{i} for i in range(n)])
    return K, Involution.from_label_map(K, dict(enumerate(perm)))


class TestFreenessAgainstLinearScan:
    @given(complexes_with_involutions())
    @settings(max_examples=300, deadline=None)
    def test_report_matches_reference(self, case):
        K, t = case
        assert check_free_involution(K, t) == reference_freeness(K, t)


def reference_quotient(K, t):
    """Oracle: the quotient validated on all faces of ``K``.  Every quotient
    face must have exactly two disjoint preimages swapped by ``t``; the
    quotient is the maximal facet images.  Returns None on a failed check,
    else (vertices, facets, edge_bits, sheet, orbit_to_quotient)."""
    n, perm = K.n_vertices, t.perm
    orbit_label = [tuple(sorted_labels([K.vertices[i], K.vertices[perm[i]]]))
                   for i in range(n)]
    q_labels = sorted_labels(set(orbit_label))
    to_q = tuple(q_labels.index(orbit_label[i]) for i in range(n))
    faces = K.faces()
    preimages = {}
    for lst in faces.values():
        for f in lst:
            preimages.setdefault(tuple(sorted(to_q[i] for i in f)), []).append(f)
    for qf, pre in preimages.items():
        if len(qf) != len(set(qf)) or len(pre) != 2:
            return None
        f1, f2 = pre
        if t.image_face(f1) != f2 or set(f1) & set(f2):
            return None
    Q = SimplicialComplex.from_faces(
        [[q_labels[to_q[i]] for i in f] for f in K.facets])
    members = {}
    for i in range(n):
        members.setdefault(to_q[i], []).append(i)
    lifted = monodromy_bits(set(faces.get(1, [])), perm, members,
                            Q.faces().get(1, []), Q.n_vertices)
    if lifted is None:
        return None
    lift, bits = lifted
    sheet = [0] * n
    for lv in lift.values():
        sheet[perm[lv]] = 1
    return Q.vertices, Q.facets, tuple(bits), tuple(sheet), to_q


@st.composite
def free_double_covers(draw):
    """A complex on 0..2m-1 with the free involution i <-> i+m: each facet
    takes one vertex from some orbits and is added together with its image."""
    m = draw(st.integers(1, 5))
    faces = [{i} for i in range(2 * m)]
    for _ in range(draw(st.integers(0, 6))):
        orbits = draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m))
        face = {i + m * draw(st.integers(0, 1)) for i in orbits}
        faces += [face, {(i + m) % (2 * m) for i in face}]
    K = SimplicialComplex.from_faces(faces)
    return K, Involution.from_label_map(K, {i: (i + m) % (2 * m) for i in range(2 * m)})


class TestQuotientAgainstAllFaces:
    @given(free_double_covers())
    @settings(max_examples=300, deadline=None)
    def test_edge_test_matches_all_faces_check(self, case):
        K, t = case
        cov = build_quotient(K, t, None, 0)
        ref = reference_quotient(K, t)
        assert (cov is None) == (ref is None)
        if cov is not None:
            Q = cov.quotient
            assert (Q.vertices, Q.facets, cov.edge_bits, cov.sheet,
                    cov.orbit_to_quotient) == ref


class TestQuotient:
    def test_hexagon_to_triangle(self):
        K = hexagon_complex()
        cov = quotient_complex(K, antipodal6(K))
        assert cov.subdivisions == 0
        assert face_counts(cov.quotient) == (3, 3)

    def test_octahedron_needs_subdivision(self):
        K = octahedron()
        cov = quotient_complex(K, antipodal6(K))
        assert cov.subdivisions >= 1
        h = homology(cov.quotient)
        assert h.groups == ((1, ()), (0, (2,)), (0, ()))

    def test_face_counts_double(self):
        for K, t in [
            (hexagon_complex(), antipodal6(hexagon_complex())),
            swap_complex(make_cycle(3), 1),
        ]:
            cov = quotient_complex(K, t)
            total = face_counts(cov.total)
            quot = face_counts(cov.quotient)
            assert total == tuple(2 * q for q in quot)

    def test_pair_swap_quotient_of_triangle_graph(self):
        K, t = swap_complex(make_cycle(3), 1)
        cov = quotient_complex(K, t)
        h = homology(cov.quotient)
        assert h.betti(0) == 1 and h.betti(1) == 1

    def test_freeness_precondition(self):
        K = hexagon_complex()
        with pytest.raises(FreenessError):
            quotient_complex(K, Involution(tuple(range(6))))

    def test_structural_error_when_subdivision_disallowed(self):
        K = octahedron()
        with pytest.raises(QuotientStructureError):
            quotient_complex(K, antipodal6(K), max_subdivisions=0)

    def test_face_limit_bounds_the_quotient(self):
        # the hexagon has 12 faces, its quotient triangle only 6
        K = hexagon_complex()
        with pytest.raises(ResourceLimitError):
            quotient_complex(K, antipodal6(K), limit=5)
        assert face_counts(quotient_complex(K, antipodal6(K), limit=6).quotient) == (3, 3)

    def test_sheets_partition_orbits(self):
        K = hexagon_complex()
        cov = quotient_complex(K, antipodal6(K))
        for i in range(cov.total.n_vertices):
            j = cov.involution.perm[i]
            assert cov.sheet[i] ^ cov.sheet[j] == 1
            assert cov.orbit_to_quotient[i] == cov.orbit_to_quotient[j]


class TestW1AndCups:
    def test_hexagon_class_is_nontrivial(self):
        K = hexagon_complex()
        cov = quotient_complex(K, antipodal6(K))
        w = w1_cocycle(cov)
        assert sum(w.bits) % 2 == 1  # odd monodromy around the triangle
        assert not is_coboundary(cov.quotient, w)

    def test_disconnected_double_cover_is_trivial(self):
        # two triangles swapped wholesale: the product cover
        K = SimplicialComplex.from_faces([(0, 1, 2), (3, 4, 5)])
        t = Involution.from_label_map(K, {i: (i + 3) % 6 for i in range(6)})
        cov = quotient_complex(K, t)
        w = w1_cocycle(cov)
        assert is_coboundary(cov.quotient, w)

    def test_cocycle_condition(self):
        for K, t in [
            (octahedron(), antipodal6(octahedron())),
            swap_complex(make_cycle(3), 1),
        ]:
            cov = quotient_complex(K, t)
            w = w1_cocycle(cov)
            assert coboundary(cov.quotient, w).is_zero

    def test_forest_choice_shifts_by_coboundary(self):
        K = octahedron()
        cov = quotient_complex(K, antipodal6(K))
        Q = cov.quotient
        w = w1_cocycle(cov)
        edges = Q.faces()[1]
        # a different spanning tree: depth-first instead of breadth-first
        adj = {}
        for a, b in edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        seen = {0}
        forest = []
        stack = [0]
        while stack:
            u = stack.pop()
            for v in sorted(adj.get(u, []), reverse=True):
                if v not in seen:
                    seen.add(v)
                    forest.append((min(u, v), max(u, v)))
                    stack.append(v)
        w2 = w1_cocycle(cov, forest=forest)
        assert is_coboundary(Q, w ^ w2)

    def test_cup_with_unit_is_identity(self):
        K, t = swap_complex(make_cycle(3), 1)
        cov = quotient_complex(K, t)
        Q = cov.quotient
        w = w1_cocycle(cov)
        assert cup_product(Q, unit_cochain(Q), w) == w

    def test_cup_square_on_circle_vanishes(self):
        K = hexagon_complex()
        cov = quotient_complex(K, antipodal6(K))
        Q = cov.quotient
        w = w1_cocycle(cov)
        ww = cup_product(Q, w, w)
        assert ww.bits == ()  # no 2-faces: past the dimension, zero cochain

    def test_cup_square_on_rp2_is_nonzero(self):
        K = octahedron()
        cov = quotient_complex(K, antipodal6(K))
        Q = cov.quotient
        w = w1_cocycle(cov)
        ww = cup_product(Q, w, w)
        assert not is_coboundary(Q, ww)

    @given(st.integers(min_value=0, max_value=2 ** 15 - 1), st.integers(min_value=0, max_value=2 ** 10 - 1))
    @settings(max_examples=60, deadline=None)
    def test_leibniz_rule_on_rp2(self, abits, bbits):
        Q = rp2_complex()
        faces = Q.faces()
        a = CochainZ2(1, tuple((abits >> i) & 1 for i in range(len(faces[1]))))
        b = CochainZ2(0, tuple((bbits >> i) & 1 for i in range(len(faces[0]))))
        lhs = coboundary(Q, cup_product(Q, a, b))
        rhs = cup_product(Q, coboundary(Q, a), b) ^ cup_product(Q, a, coboundary(Q, b))
        assert lhs == rhs

    def test_zero_cochain_is_coboundary(self):
        Q = rp2_complex()
        assert is_coboundary(Q, zero_cochain(Q, 1))
        assert is_coboundary(Q, zero_cochain(Q, 0)) is True


class TestHeights:
    def test_hexagon_height(self):
        K = hexagon_complex()
        assert z2_height(K, antipodal6(K)) == 1

    def test_octahedron_height(self):
        K = octahedron()
        assert z2_height(K, antipodal6(K)) == 2

    def test_pair_swap_height_triangle(self):
        K, t = swap_complex(make_cycle(3), 1)
        assert z2_height(K, t) == 1

    def test_pair_space_height_helper(self):
        assert pair_space_height(make_cycle(3), 1) == 1

    def test_height_at_most_dimension(self):
        for K, t in [
            (hexagon_complex(), antipodal6(hexagon_complex())),
            (octahedron(), antipodal6(octahedron())),
            swap_complex(make_cycle(3), 1),
        ]:
            assert z2_height(K, t) <= K.dim

    def test_face_limit_bounds_the_orbit_faces(self):
        # the hexagon has 12 faces, its orbit complex only 6
        K = hexagon_complex()
        with pytest.raises(ResourceLimitError) as err:
            z2_height(K, antipodal6(K), limit=5)
        assert (err.value.count, err.value.limit) == (6, 5)
        assert "orbit-face" in str(err.value)
        assert z2_height(K, antipodal6(K), limit=6) == 1

    def test_tight_heptagon_at_radius_five(self):
        assert pair_space_height(make_cycle(7), 5) == 5

    def test_petersen_at_radius_three(self):
        assert pair_space_height(make_kneser(5, 2), 3) == 8

    def test_graphs_without_edges_have_height_zero(self):
        assert pair_space_height(Graph([], []), 1) == 0
        assert pair_space_height(Graph(range(4), []), 3) == 0

    def test_ball_guard_names_stage_and_count(self):
        # the face limit is the height's only guard
        with pytest.raises(ResourceLimitError) as err:
            pair_space_height(make_cycle(5), 1, limit=5)
        assert (err.value.count, err.value.limit) == (6, 5)
        assert "orbit-face" in str(err.value)
        assert str(err.value.count) in str(err.value)

    def test_face_limit_bounds_only_the_faces_read(self):
        # the orbit faces of C7 at r=3 number 7/35/63/49/14 by dimension;
        # height 1 is settled on the 2-skeleton, 105 faces
        assert pair_space_height(make_cycle(7), 3, limit=105) == 1
        with pytest.raises(ResourceLimitError) as err:
            pair_space_height(make_cycle(7), 3, limit=104)
        assert (err.value.count, err.value.limit) == (105, 104)


def cross_polytope_sphere(n):
    """Boundary of the n-dimensional cross-polytope, an (n-1)-sphere, with
    the antipodal map (i, s) <-> (i, 1 - s)."""
    K = SimplicialComplex.from_faces(
        [[(i, s) for i, s in enumerate(bits)] for bits in itertools.product((0, 1), repeat=n)])
    return K, Involution.from_label_map(K, {(i, s): (i, 1 - s) for i, s in K.vertices})


@st.composite
def graphs_and_radii(draw):
    """A graph on at most 9 vertices with at most 2n edges, and r = 3 when
    drawn and allowed by the odd girth, else r = 1."""
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else set()
    G = Graph(range(n), edges)
    r = 3 if draw(st.booleans()) and odd_girth(G) > 3 else 1
    return G, r


def reference_pair_height(G, r):
    K = order_complex(pair_poset(G, r, size_guard=2_000), limit=20_000)
    return reference_height(K, pair_swap_involution(K))


class TestOrbitHeightAgainstQuotient:
    @given(free_double_covers())
    @settings(max_examples=300, deadline=None)
    def test_random_free_double_covers(self, case):
        K, t = case
        assert z2_height(K, t) == reference_height(K, t)

    @pytest.mark.parametrize("K,t", [
        (octahedron(), antipodal6(octahedron())),
        cross_polytope_sphere(4),
    ])
    def test_spheres_that_need_a_subdivision(self, K, t):
        assert quotient_complex(K, t).subdivisions >= 1
        assert z2_height(K, t) == reference_height(K, t) == K.dim

    @given(free_double_covers(), st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_truncated_height_is_capped_height(self, case, k):
        K, t = case
        assert _height(orbit_masks(K, t), k) == min(z2_height(K, t), k)


def box_orbit_faces_oracle(G, r):
    """The box complex's faces that start on an even vertex, by dimension and
    in lexicographic order, from the definition: vertex 2i + s is the i-th
    vertex with an exact-r walk from it, on sheet s, and A x {0} + B x {1}
    is a face when every (a, b) in A x B is joined by an exact-r walk and
    the common walk neighbours of A, and those of B, are nonempty."""
    n = G.n_vertices
    walks = {(x, y) for x in range(n) for y in range(n)
             if any(all(w[j + 1] in G.adj[w[j]] for j in range(r))
                    for w in ((x, *mid, y) for mid in itertools.product(range(n), repeat=r - 1)))}
    active = [x for x in range(n) if any((x, y) in walks for y in range(n))]

    def common(side):
        return [y for y in active if all((x, y) in walks for x in side)]

    out = []
    for size in range(1, 2 * len(active) + 1):
        for face in itertools.combinations(range(2 * len(active)), size):
            a = [active[v >> 1] for v in face if not v & 1]
            b = [active[v >> 1] for v in face if v & 1]
            if (face[0] % 2 == 0 and all((x, y) in walks for x in a for y in b)
                    and common(a) and common(b)):
                out.append(face)
    return out


class TestBoxFaces:
    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
                max_size=2 * n) if n else st.just(set()),
        st.integers(1, 3))))
    @settings(max_examples=150, deadline=None)
    def test_against_the_definition(self, case):
        # loops and even radii included: the sheet swap need not be free
        n, edges, r = case
        G = Graph(range(n), edges)
        by_dim = [list(level) for _, level in itertools.groupby(box_orbit_faces_oracle(G, r), len)]
        assert [list(map(vertices, level)) for level in _box_faces(balls(G, r))] == by_dim


class TestBoxHeightAgainstPairSpace:
    @given(graphs_and_radii())
    @settings(max_examples=120, deadline=None)
    def test_random_graphs(self, case):
        G, r = case
        try:
            expected = reference_pair_height(G, r)
        except ResourceLimitError:
            assume(False)
        assert pair_space_height(G, r) == expected

    def test_corpus(self):
        for G in small_graph_corpus():
            for r in (1, 3):
                if odd_girth(G) > r:
                    assert pair_space_height(G, r) == reference_pair_height(G, r), (G, r)

    @given(graphs_and_radii(), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_truncated_height_is_capped_height(self, case, k):
        G, r = case
        assert _height(_box_faces(balls(G, r)), k) == min(pair_space_height(G, r), k)


@st.composite
def graphs_and_odd_radii(draw):
    """A graph on at most 9 vertices, perhaps around an odd cycle through all
    of them, and the largest of r = 1, 3, 5 up to the drawn one that its odd
    girth allows."""
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=n)) if pairs else set()
    if n >= 3 and draw(st.booleans()):
        edges |= {(i, (i + 1) % n) for i in range(n)}
    G = Graph(range(n), edges)
    top = draw(st.sampled_from((1, 3, 5)))
    return G, max(r for r in (1, 3, 5) if r <= top and odd_girth(G) > r)


class TestColourCap:
    @given(graphs_and_odd_radii())
    @settings(max_examples=200, deadline=None)
    def test_the_clique_floor_keeps_the_cap(self, case):
        G, r = case
        bs = balls(G, r)
        assert z2._colour_cap(bs) == colour_cap_oracle.colour_cap(bs)

    def test_no_search_when_a_clique_has_dsatur_count(self, monkeypatch):
        # G_3 of C5 is K5: DSATUR's 5 colours meet a 5-clique, so a search
        # for 4 colours could only fail
        searches = []
        monkeypatch.setattr(z2, "hom_search",
                            lambda G, H, budget: searches.append(H.n_vertices) or
                            hom_search(G, H, budget))
        assert z2._colour_cap(balls(make_cycle(5), 3)) == 3
        assert searches == []
        assert z2._colour_cap(balls(make_kneser(8, 3), 1)) == 2  # a 2-clique; 4 colours found
        assert searches == [4, 3]

    @given(graphs_and_odd_radii())
    @settings(max_examples=150, deadline=None)
    def test_capped_height_is_the_uncapped_height(self, case):
        G, r = case
        assert pair_space_height(G, r) == _height(_box_faces(balls(G, r)))

    @pytest.mark.parametrize("m", range(2, 8))
    def test_complete_graphs(self, m):
        assert pair_space_height(make_kneser(m, 1), 1) == m - 2

    def test_the_level_above_the_cap_is_not_read(self):
        # the Groetzsch graph is 4-chromatic, with height 2 at r=1: its orbit
        # levels 11/55/90 are read, its 55 3-faces are not
        grotzsch = mycielskian(make_cycle(5))
        assert pair_space_height(grotzsch, 1, limit=156) == 2
        with pytest.raises(ResourceLimitError):
            _height(_box_faces(balls(grotzsch, 1), limit=156))

    def test_a_colour_fewer_is_searched_for(self):
        # DSATUR colours K(8,3) with 5 colours; the search finds 4
        assert z2._colour_cap(balls(make_kneser(8, 3), 1)) == 2

    def test_a_cap_one_too_low_is_caught(self, monkeypatch):
        cap = z2._colour_cap
        monkeypatch.setattr(z2, "_colour_cap", lambda bs: cap(bs) - 1)
        for m in range(3, 8):
            assert pair_space_height(make_kneser(m, 1), 1) == m - 3
            assert _height(_box_faces(balls(make_kneser(m, 1), 1))) == m - 2

    def test_each_walk_ball_is_computed_once(self, monkeypatch):
        # the cap and the box faces share one ball per vertex, on the exact
        # source side of obstruction_check too
        calls = []
        monkeypatch.setattr(z2, "walk_ball",
                            lambda G, x, r: calls.append((id(G), x)) or walk_ball(G, x, r))
        grotzsch, edge = mycielskian(make_cycle(5)), Graph(range(2), [(0, 1)])
        assert pair_space_height(grotzsch, 1) == 2
        assert sorted(calls) == [(id(grotzsch), x) for x in range(11)]
        calls.clear()
        assert obstruction_check(grotzsch, edge, 1, exact=True).lhs["bound"] == 1
        assert sorted(calls) == sorted([(id(grotzsch), x) for x in range(11)]
                                       + [(id(edge), x) for x in range(2)])

    def test_an_improper_colouring_gives_no_cap(self, monkeypatch):
        # a search that returns one colour for every vertex: validate_hom
        # rejects it, so the cap stays DSATUR's m - 2 on K_m
        monkeypatch.setattr(z2, "hom_search", lambda G, H, budget: SearchOutcome(
            "found", (0,) * G.n_vertices, 1))
        for m in range(3, 8):
            assert z2._colour_cap(balls(make_kneser(m, 1), 1)) == m - 2
            assert pair_space_height(make_kneser(m, 1), 1) == m - 2
        assert z2._colour_cap(balls(make_kneser(8, 3), 1)) == 3


def reductions(height, levels, cap, face):
    """``height``'s answer on ``levels`` up to ``cap``, and each GF(2)
    reduction it hands to ``gf2.in_column_space``: the columns and the
    right-hand side as sorted rows, in order, the pivot rows' faces as
    vertex tuples (``face`` converts a level's entry) and the answer."""
    read, calls = [], []
    real = gf2.in_column_space

    def spy(columns, rhs, pivot_rows):
        columns = list(columns)
        handed = [sorted(c) for c in columns], sorted(rhs)
        found = real(columns, rhs, pivot_rows)
        upper = read[len(calls) + 1]
        calls.append((*handed, sorted(face(upper[p]) for p in pivot_rows), found))
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "in_column_space", spy)
        got = height((read.append(level) or level for level in levels), cap)
    return got, calls


def same_reductions(new_levels, old_levels):
    """The mask path and the tuple oracle give the same height, capped at
    each k and uncapped, through the same reductions."""
    for cap in (*range(6), math.inf):
        new = reductions(_height, new_levels(), cap, vertices)
        assert new == reductions(height_oracle.height, old_levels(), cap, tuple), cap
    return new


class TestMasksAgainstTuples:
    """The sheet-mask faces against the tuple faces they replaced
    (``tests/height_oracle.py``): the same levels, heights and reductions."""

    @given(st.one_of(graphs_and_radii(), graphs_and_odd_radii()))
    @settings(max_examples=150, deadline=None)
    def test_box_complexes(self, case):
        G, r = case
        bs = balls(G, r)
        assert ([list(map(vertices, level)) for level in _box_faces(bs)]
                == list(height_oracle.box_faces(bs)))
        same_reductions(lambda: _box_faces(bs), lambda: height_oracle.box_faces(bs))

    @given(free_double_covers())
    @settings(max_examples=200, deadline=None)
    def test_free_double_covers(self, case):
        K, t = case
        same_reductions(lambda: orbit_masks(K, t), lambda: height_oracle.orbit_levels(K, t))

    @pytest.mark.parametrize("K,t", [
        (octahedron(), antipodal6(octahedron())),
        cross_polytope_sphere(4),
    ])
    def test_spheres_that_need_a_subdivision(self, K, t):
        height, calls = same_reductions(lambda: orbit_masks(K, t),
                                        lambda: height_oracle.orbit_levels(K, t))
        assert height == K.dim == len(calls)

    @pytest.mark.parametrize("G,r,expected", [
        (make_cycle(5), 3, 3),
        (make_cycle(9), 7, 7),
        (mycielskian(make_cycle(5)), 1, 2),
        (make_kneser(5, 2), 3, 8),
    ])
    def test_the_spy_sees_each_reduction_in_order(self, G, r, expected):
        # one reduction per level read past the vertices, each finding w^k
        # no coboundary until the cap or the first one that is; the columns
        # reach gf2 as the oracle hands them over, row set for row set
        bs = balls(G, r)
        cap = z2._colour_cap(bs)
        height, calls = reductions(_height, _box_faces(bs), cap, vertices)
        assert height == expected == pair_space_height(G, r)
        assert len(calls) == min(expected + 1, cap)
        assert all(columns for columns, *_ in calls)
        assert [found for *_, found in calls] == [False] * expected + [True] * (cap > expected)
        assert (height, calls) == reductions(height_oracle.height, height_oracle.box_faces(bs),
                                             cap, tuple)


def untagged(G):
    return Graph(G.vertices, [(G.vertices[i], G.vertices[j]) for i, j in G.edges()])


class TestExactVerdict:
    def test_cheap_lower_bound_above_the_target_is_kept(self):
        # untagged, no cheap rule is exact on either side: the 9-cycle's
        # height 1 is computed first; Petersen's girth-sphere bound 3 already
        # exceeds it, so its pair space is not built and that bound is reported
        rep = obstruction_check(untagged(make_kneser(5, 2)), untagged(make_cycle(9)), 3,
                                exact=True)
        assert rep.verdict == "NO-MAP"
        assert rep.lhs == {"bound": 3, "rule": "girth-sphere"}
        assert rep.rhs == {"bound": 1, "rule": "cup-power-height"}

    def test_source_height_is_computed_up_to_one_above_the_target(self):
        # the Groetzsch graph has odd girth 5, so no cheap rule bounds it at
        # r=1; its height 2 is computed only up to one above the edge's 0
        grotzsch = mycielskian(make_cycle(5))
        edge = Graph(range(2), [(0, 1)])
        assert pair_space_height(grotzsch, 1) == 2
        rep = obstruction_check(grotzsch, edge, 1, exact=True)
        assert rep.verdict == "NO-MAP"
        assert rep.lhs == {"bound": 1, "rule": "cup-power-height"}
        assert rep.rhs == {"bound": 0, "rule": "cup-power-height"}

    def test_cheap_lower_bound_at_the_target_is_refined(self):
        # C5 at r=3 has the cheap lower bound 3 and exact height 3; untagged
        # C5 as the target has height 3, so the source is computed up to 4
        rep = obstruction_check(untagged(make_cycle(5)), untagged(make_cycle(5)), 3,
                                exact=True)
        assert rep.verdict == "INCONCLUSIVE"
        assert rep.lhs == {"bound": 3, "rule": "cup-power-height"}
        assert rep.rhs == {"bound": 3, "rule": "cup-power-height"}


class TestHeightBounds:
    def test_tight_cycle_exact(self):
        hb = height_bounds(make_cycle(5), 3)
        assert hb.lower == hb.upper == 3
        assert any(b.rule == "cycle-sphere" for b in hb.rules)
        assert any(b.rule == "girth-sphere" for b in hb.rules)

    def test_kneser_closed_form(self):
        hb = height_bounds(make_kneser(5, 2), 3)
        assert hb.lower == hb.upper == 8
        assert any(b.rule == "kneser-sphere" for b in hb.rules)

    def test_odd_cycle_upper(self):
        hb = height_bounds(make_cycle(9), 1)
        assert hb.upper == 1
        assert any(b.rule.startswith("maps-to-odd-cycle") for b in hb.rules)

    def test_untagged_graph_with_tight_girth(self):
        g = Graph(range(5), [(i, (i + 1) % 5) for i in range(5)])  # untagged C5
        hb = height_bounds(g, 3)
        assert hb.lower == 3 and hb.upper is None

    def test_even_radius_rejected(self):
        with pytest.raises(FreenessError):
            height_bounds(make_cycle(5), 2)

    def test_small_girth_rejected(self):
        with pytest.raises(FreenessError):
            height_bounds(make_cycle(3), 3)

    def test_scan_stops_at_first_unreachable_cycle(self, monkeypatch):
        targets = []

        def counting_search(G, H, budget):
            targets.append(H.n_vertices)
            return hom_search(G, H, budget)

        monkeypatch.setattr(z2, "hom_search", counting_search)
        hb = height_bounds(Graph(range(4), itertools.combinations(range(4), 2)), 1)
        assert targets == [3]
        assert hb.lower == 1 and hb.upper is None

    def test_memoized_per_radius_scan_and_budget(self, monkeypatch):
        searches = []

        def counting_search(G, H, budget):
            searches.append((H.n_vertices, budget))
            return hom_search(G, H, budget)

        monkeypatch.setattr(z2, "hom_search", counting_search)
        g = make_cycle(9)
        hb = height_bounds(g, 1)
        assert searches == [(3, 10_000_000)] and hb.upper == 1
        assert height_bounds(g, 1) is hb
        assert searches == [(3, 10_000_000)]  # no second scan search
        height_bounds(g, 3)
        height_bounds(g, 1, budget=1_000)
        assert searches[1:] == [(7, 10_000_000), (3, 1_000)]
        height_bounds(g, 1, budget=1_000)
        assert len(searches) == 3
        fresh = make_cycle(9)
        assert g == fresh and hash(g) == hash(fresh)

    def test_one_search_when_the_budget_runs_out(self, monkeypatch):
        # untagged K(7,3) has odd girth 7: no rule is exact at r=3, and C7 is
        # not reached within the budget; a longer odd cycle maps onto C7, so
        # no second target is tried
        targets = []

        def counting_search(G, H, budget):
            targets.append(H.n_vertices)
            return hom_search(G, H, budget)

        monkeypatch.setattr(z2, "hom_search", counting_search)
        hb = height_bounds(untagged(make_kneser(7, 3)), 3, budget=1_000)
        assert targets == [7]
        assert hb.lower is None and hb.upper is None

    @pytest.mark.parametrize("n", range(3, 8))
    def test_complete_graph_is_a_kneser_sphere(self, n):
        # K(n, 1) = K_n: k - 1 = 0 = 0 * (n - 2), so radius 1 gives S^(n - 2)
        hb = height_bounds(make_kneser(n, 1), 1)
        assert HeightBound("exact", n - 2, "kneser-sphere") in hb.rules
        assert hb.lower == hb.upper == n - 2

    @given(st.integers(3, 9), st.sampled_from([0.25, 0.5]), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1, 3]))
    @settings(max_examples=60, deadline=None)
    def test_rules_match_full_scan(self, n, p, seed, r):
        G = random_connected_graph(n, p, random.Random(seed))
        g0 = odd_girth(G)
        assume(g0 > r)
        rules = [HeightBound("lower", r, "girth-sphere")] if g0 == r + 2 else []
        for m in range(2 * r + 1, 16, 2):
            if hom_search(G, make_cycle(m)).found:
                rules.append(HeightBound("upper", 1, f"maps-to-odd-cycle-C{m}"))
                break
        assert height_bounds(G, r).rules == tuple(rules)


class TestObstruction:
    def test_kneser_to_pentagon_blocked(self):
        rep = obstruction_check(make_kneser(5, 2), make_cycle(5), 3)
        assert rep.verdict == "NO-MAP"
        assert rep.lhs["bound"] == 8 and rep.rhs["bound"] == 3
        assert rep.convention == "sup-height"

    def test_self_map_inconclusive(self):
        g = make_cycle(5)
        rep = obstruction_check(g, g, 3)
        assert rep.verdict == "INCONCLUSIVE"
        # ties at 3 break by rule name: max for the lower bound, min for the upper
        assert rep.lhs == {"bound": 3, "rule": "girth-sphere"}
        assert rep.rhs == {"bound": 3, "rule": "cycle-sphere"}

    def test_pentagon_to_kneser_inconclusive_and_map_exists(self):
        rep = obstruction_check(make_cycle(5), make_kneser(5, 2), 3)
        assert rep.verdict == "INCONCLUSIVE"
        assert hom_search(make_cycle(5), make_kneser(5, 2)).found

    def test_square_to_triangle(self):
        rep = obstruction_check(make_cycle(4), make_cycle(3), 1)
        assert rep.verdict == "INCONCLUSIVE"
        assert hom_search(make_cycle(4), make_cycle(3)).found

    def test_exact_path_fills_missing_bound(self):
        # untagged K4: no cheap rule gives the exact height 2; the cup-power
        # fallback does, and 2 > 1 blocks maps onto the pentagon
        g = Graph(range(4), [e for e in itertools.combinations(range(4), 2)])
        rep = obstruction_check(g, make_cycle(5), 1, exact=True)
        assert rep.verdict == "NO-MAP"
        assert rep.lhs == {"bound": 2, "rule": "cup-power-height"}
        assert hom_search(g, make_cycle(5)).status == "none"

    def test_precondition_violation(self):
        with pytest.raises(FreenessError):
            obstruction_check(make_cycle(5), make_cycle(5), 2)
        with pytest.raises(FreenessError):
            obstruction_check(make_cycle(3), make_cycle(5), 3)


class TestKneserCertificate:
    def test_pentagon_target_blocked(self):
        rep = kneser_certificate(5, 2, make_cycle(5))
        assert rep.verdict == "NO-MAP" and rep.rule == "vertex-count"

    def test_self_target_inconclusive(self):
        rep = kneser_certificate(5, 2, make_kneser(5, 2))
        assert rep.verdict == "INCONCLUSIVE"

    def test_7_3_parameters_admit_r2(self):
        # k - 1 = 2 = 2 * (7 - 6): the parameter check passes with r = 2 and
        # the 7-cycle target (odd girth 7 > 5, 7 < 35 vertices) is blocked
        rep = kneser_certificate(7, 3, make_cycle(7))
        assert rep.detail["r"] == 2
        assert rep.verdict == "NO-MAP" and rep.rule == "vertex-count"

    def test_parameter_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kneser_certificate(6, 2, make_cycle(5))  # k-1=1 not divisible by 2
        with pytest.raises(ValueError):
            kneser_certificate(4, 2, make_cycle(5))  # n = 2k

    def test_height_upper_clause(self):
        # 9-cycle target: 9 >= 10 fails the count clause, but it maps to C_9
        # so its height upper bound 1 < 8 still blocks
        g = Graph(range(9), [(i, (i + 1) % 9) for i in range(9)])
        rep = kneser_certificate(5, 2, g)
        assert rep.verdict == "NO-MAP" and rep.rule == "vertex-count"
        big = Graph(range(11), [(i, (i + 1) % 11) for i in range(11)])
        rep2 = kneser_certificate(5, 2, big)
        assert rep2.verdict == "NO-MAP" and rep2.rule == "height-upper"
        assert rep2.detail["height_upper"] == 1


class TestKneserSphereCondition:
    def test_rule_certificate_and_table_agree_on_the_grid(self, capsys):
        # the pair space of K(n, k) at radius 2r + 1 is a sphere exactly when
        # k - 1 = r(n - 2k) with r >= 0; the certificate needs r >= 1
        assert main(["kneser-table", "1", "11", "1", "5", "--json"]) == 0
        rows = {(row["n"], row["k"]): row
                for row in json.loads(capsys.readouterr().out)["result"]["rows"]}
        target = make_cycle(25)  # odd girth above every 2r + 1 on the grid
        for n in range(1, 12):
            for k in range(1, min(n, 5) + 1):
                spheres = [r for r in range(k) if n > 2 * k and k - 1 == r * (n - 2 * k)]
                G = make_kneser(n, k)
                g0 = odd_girth(G)
                for r in range(1, min(g0, 12), 2):
                    rules = height_bounds(G, r, budget=1).rules
                    assert ((r // 2 in spheres)
                            == any(b.rule == "kneser-sphere" for b in rules)), (n, k, r)
                row = rows[(n, k)]
                assert row["r"] == (spheres[0] if spheres else None), (n, k)
                assert row["certificate"] == (spheres not in ([], [0])), (n, k)
                if n <= 2 * k:
                    with pytest.raises(ValueError, match="requires n > 2k"):
                        kneser_certificate(n, k, target)
                elif spheres in ([], [0]):
                    with pytest.raises(ValueError, match="positive integer multiple"):
                        kneser_certificate(n, k, target)
                else:
                    rep = kneser_certificate(n, k, target)
                    assert rep.verdict == "NO-MAP" and rep.detail["r"] == spheres[0]


class TestSwapSanity:
    @pytest.mark.parametrize("g,r", [(make_cycle(5), 1), (make_cycle(7), 3)])
    def test_no_chain_meets_its_swap(self, g, r):
        K = order_complex(pair_poset(g, r))
        t = pair_swap_involution(K)
        perm = t.perm
        for facet in K.facets:
            fs = set(facet)
            assert not any(perm[i] in fs for i in facet)
