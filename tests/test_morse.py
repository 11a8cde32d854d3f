import functools
import itertools
import operator
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collapse_oracle
from collapse_oracle import verify_acyclic, verify_matching
from conftest import all_faces_label_set
from nbhd import (
    CollapseError,
    MorseMatching,
    ResourceLimitError,
    SimplicialComplex,
    collapse_cycle_tower,
    cycle_matching,
    homology,
    make_cycle,
    neighborhood_complex,
)
from nbhd.complexes import _bits
from nbhd.morse import _collapse, _relabelled, _tower


def collapse(K, matching, limit=None):
    """The tower's ``_collapse`` on a matching of label tuples: each face
    becomes a vertex mask over K's indices, and the result gets K's labels
    back.  Labels that are not K's, that are out of K's index order, or that
    are none at all name no face of K (:class:`ValueError`), as does a face
    named twice."""
    def mask(labels):
        idx = [K._index.get(v, -1) for v in labels]
        if not idx or idx[0] < 0 or any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"matching mentions a face outside the complex: {labels}")
        return sum(1 << i for i in idx)
    pairs = [(mask(a), mask(b)) for a, b in matching.pairs]
    named = [f for pair in pairs for f in pair]
    if len(set(named)) < len(named):
        twice = Counter(named).most_common(1)[0][0]
        raise ValueError(f"matching names a face twice: {K.face_labels(_bits(twice))}")
    return _relabelled(K, _collapse(K, pairs, limit))


def radius_difference_faces(m, r):
    """Oracle: faces of the radius-r cycle complex absent at radius r-1."""
    big = all_faces_label_set(neighborhood_complex(make_cycle(m), r))
    small = all_faces_label_set(neighborhood_complex(make_cycle(m), r - 1))
    return big - small


def window_gap(m, x, r, sigma):
    """Largest even offset 2i (i in 1..r) with x+2i missing from sigma."""
    missing = [
        2 * i for i in range(1, r + 1) if (x + 2 * i) % m not in set(sigma)
    ]
    return max(missing) if missing else None


# every odd m <= 31 with every radius 2 <= r, 2r < m
ODD_CYCLE_RADII = [(m, r) for m in range(5, 32, 2) for r in range(2, (m + 1) // 2)]
# those with m <= 25 whose top stage matches at most 4,096 faces, for the
# face-listing oracle tower
TOWER_CASES = [(m, r) for m, r in ODD_CYCLE_RADII if m <= 25 and m << (r - 1) <= 4096]


class TestCycleMatching:
    @pytest.mark.parametrize("m,r", [(7, 2), (9, 2), (9, 3), (11, 4)])
    def test_domain_is_radius_difference(self, m, r):
        matching = cycle_matching(m, r)
        assert matching.domain == frozenset(radius_difference_faces(m, r))

    @pytest.mark.parametrize("m,r", [(7, 2), (9, 2), (9, 3), (11, 4)])
    def test_perfect_on_domain(self, m, r):
        matching = cycle_matching(m, r)
        K = neighborhood_complex(make_cycle(m), r)
        report = verify_matching(all_faces_label_set(K), matching)
        assert report.perfect

    def test_strata_partition_by_count(self):
        # each window stratum has 2^(r-1) faces and they are pairwise disjoint
        for m, r in [(7, 2), (9, 3), (11, 4)]:
            matching = cycle_matching(m, r)
            assert len(matching.domain) == m * 2 ** (r - 1)

    @pytest.mark.parametrize("m,r", ODD_CYCLE_RADII)
    def test_matches_oracle(self, m, r):
        got, want = cycle_matching(m, r), collapse_oracle.cycle_matching(m, r)
        assert got.pairs == want.pairs
        assert got.domain == want.domain

    @pytest.mark.parametrize("m,r", [(9, 3), (11, 4)])
    def test_gap_statistic_properties(self, m, r):
        # within a stratum: the gap never drops along inclusions, and matched
        # pairs share it
        matching = cycle_matching(m, r)
        for x in range(m):
            window = {(x + 2 * i) % m for i in range(r + 1)}
            stratum = [
                f for f in matching.domain
                if set(f) <= window and {x, (x + 2 * r) % m} <= set(f)
            ]
            full = tuple(sorted(window))
            for tau, sigma in matching.pairs:
                if tau in stratum and sigma in stratum and sigma != full:
                    assert window_gap(m, x, r, tau) == window_gap(m, x, r, sigma)
            for small in stratum:
                for big in stratum:
                    if set(small) < set(big) and big != full:
                        assert window_gap(m, x, r, small) >= window_gap(m, x, r, big)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            cycle_matching(5, 3)  # m <= 2r
        with pytest.raises(ValueError):
            cycle_matching(6, 2)  # even m
        with pytest.raises(ValueError):
            cycle_matching(9, 1)  # r < 2


class TestVerifyMatching:
    def test_empty_matching_is_all_critical(self):
        domain = frozenset({(0, 1), (0, 1, 2)})
        matching = MorseMatching((), domain)
        report = verify_matching({(0, 1), (0, 1, 2), (0,)}, matching)
        assert report.well_formed and not report.perfect
        assert set(report.critical) == set(domain)

    def test_corrupted_pair_reported(self):
        matching = cycle_matching(7, 2)
        dropped = matching.pairs[0][0]
        broken = MorseMatching(matching.pairs[1:], matching.domain)
        K = neighborhood_complex(make_cycle(7), 2)
        report = verify_matching(all_faces_label_set(K), broken)
        assert dropped in report.critical

    def test_non_cofacet_pair_reported(self):
        matching = MorseMatching((((0,), (1, 2)),), frozenset({(0,), (1, 2)}))
        report = verify_matching({(0,), (1, 2)}, matching)
        assert matching.pairs[0] in report.bad_pairs

    def test_missing_face_reported(self):
        matching = MorseMatching((((9,), (9, 10)),), frozenset())
        report = verify_matching({(0,)}, matching)
        assert len(report.missing) == 2


class TestVerifyAcyclic:
    @pytest.mark.parametrize("m,r", [(7, 2), (9, 2), (9, 3), (11, 4)])
    def test_cycle_matchings_are_acyclic(self, m, r):
        assert verify_acyclic(cycle_matching(m, r))

    def test_square_rim_cycle_detected(self):
        # match every vertex of a 4-cycle into its clockwise edge: the
        # gradient path loops all the way around
        pairs = tuple(
            ((i,), tuple(sorted((i, (i + 1) % 4)))) for i in range(4)
        )
        matching = MorseMatching(pairs, frozenset(f for p in pairs for f in p))
        report = verify_acyclic(matching)
        assert not report
        assert report.cycle is not None and len(report.cycle) >= 4

    def test_empty_matching_acyclic(self):
        assert verify_acyclic(MorseMatching((), frozenset()))


class TestCollapse:
    def test_radius2_heptagon_collapses_to_rim(self):
        K = neighborhood_complex(make_cycle(7), 2)
        final = collapse(K, cycle_matching(7, 2))
        expected = frozenset(
            frozenset(((v - 1) % 7, (v + 1) % 7)) for v in range(7)
        )
        assert final.facet_label_sets() == expected

    def test_cone_matching_collapses_simplex_to_vertex(self):
        K = SimplicialComplex.from_faces([(0, 1, 2)])
        pairs = []
        for f in [(1,), (2,), (1, 2)]:
            pairs.append((f, tuple(sorted((0,) + f))))
        matching = MorseMatching(tuple(pairs), frozenset(
            f for p in pairs for f in p))
        final = collapse(K, matching)
        assert final.facet_label_sets() == frozenset({frozenset({0})})

    def test_stuck_matching_raises(self):
        # the cyclic rim matching has no free face to start from
        K = SimplicialComplex.from_faces([(i, (i + 1) % 4) for i in range(4)])
        pairs = tuple(
            ((i,), tuple(sorted((i, (i + 1) % 4)))) for i in range(4)
        )
        matching = MorseMatching(pairs, frozenset(f for p in pairs for f in p))
        with pytest.raises(CollapseError):
            collapse(K, matching)

    def test_foreign_face_rejected(self):
        K = SimplicialComplex.from_faces([(0, 1)])
        matching = MorseMatching((((7,), (7, 8)),), frozenset({(7,), (7, 8)}))
        with pytest.raises(ValueError):
            collapse(K, matching)

    def test_cofacet_outside_the_complex_rejected(self):
        # the lower face is present and the upper one is its cofacet in
        # index order, but no facet holds it
        K = SimplicialComplex.from_faces([(0, 1), (1, 2)])
        matching = MorseMatching((((0, 1), (0, 1, 2)),), frozenset())
        with pytest.raises(ValueError, match=r"outside the complex: \(0, 1, 2\)"):
            collapse(K, matching)

    def test_lower_face_with_two_cofacets_in_one_facet_is_stuck(self):
        # once the triangle goes, vertex 0 still has the edges 01 and 02: it
        # lies in one facet but is not free
        K = SimplicialComplex.from_faces([(0, 1, 2)])
        pairs = (((1, 2), (0, 1, 2)), ((0,), (0, 1)))
        with pytest.raises(CollapseError, match="2 matched faces"):
            collapse(K, MorseMatching(pairs, frozenset()))

    def test_face_named_twice_rejected(self):
        # a partner map would keep only the last pair of (0, 1) and collapse
        # the path 0-1-2 to the vertex 2
        K = SimplicialComplex.from_faces([(0, 1), (1, 2)])
        pairs = (((0,), (0, 1)), ((1,), (0, 1)), ((1,), (1, 2)))
        matching = MorseMatching(pairs, frozenset(f for p in pairs for f in p))
        with pytest.raises(ValueError, match=r"twice: \(0, 1\)"):
            collapse(K, matching)

    @pytest.mark.parametrize("face", [("d", "b"), ("a", "a"), ()])
    def test_label_tuple_out_of_index_order_is_foreign(self, face):
        # indices follow c, a, b, d: ("d", "b") is (3, 2), not a face tuple
        K = SimplicialComplex(("c", "a", "b", "d"), [(0, 1, 2), (2, 3)])
        matching = MorseMatching(((face, ("c", "a", "b")),), frozenset())
        with pytest.raises(ValueError, match="outside the complex"):
            collapse(K, matching)

    def test_one_span_union_per_holding_set(self, monkeypatch):
        # the 544 lower faces of the C17 r=7 matching lie in only 17 distinct
        # sets of facets; a lower face's link is united once per set
        module = sys.modules["nbhd.morse"]
        unions = []

        def recording(fn, *args):
            if fn is operator.or_:
                unions.append(args)
            return functools.reduce(fn, *args)

        K = neighborhood_complex(make_cycle(17), 7)
        matching = cycle_matching(17, 7)
        facets = K.facet_label_sets()
        holding = {frozenset(F for F in facets if set(tau) <= F) for tau, _ in matching.pairs}
        assert (len(matching.pairs), len(holding)) == (544, 17)
        monkeypatch.setattr(module, "reduce", recording)
        assert collapse(K, matching) == neighborhood_complex(make_cycle(17), 6)
        assert len(unions) == len(holding)

    def test_limit_bounds_the_matched_faces(self):
        K = neighborhood_complex(make_cycle(9), 3)
        matching = cycle_matching(9, 3)
        assert collapse(K, matching, limit=36) == collapse(K, matching)
        with pytest.raises(ResourceLimitError, match="collapse matching") as err:
            collapse(K, matching, limit=35)
        assert (err.value.count, err.value.limit) == (36, 35)

    def test_string_labels_out_of_index_order(self):
        # vertex indices follow c, a, b, d, not the label order; the result
        # is re-indexed in sorted label order
        K = SimplicialComplex(("c", "a", "b", "d"), [(0, 1, 2), (2, 3)])
        pairs = ((("a", "b"), ("c", "a", "b")), (("d",), ("b", "d")))
        matching = MorseMatching(pairs, frozenset(f for p in pairs for f in p))
        final = collapse(K, matching)
        assert final.vertices == ("a", "b", "c")
        assert final.facet_label_sets() == frozenset(
            {frozenset({"c", "a"}), frozenset({"c", "b"})})


class TestTower:
    @pytest.mark.parametrize("m,r", [(9, 3), (11, 2)])
    def test_tower_reaches_the_rim(self, m, r):
        final, stages = collapse_cycle_tower(m, r)
        assert len(stages) == r - 1
        expected = frozenset(
            frozenset(((v - 1) % m, (v + 1) % m)) for v in range(m)
        )
        assert final.facet_label_sets() == expected
        assert homology(final).betti_vector == (1, 1)

    @pytest.mark.parametrize("m,r", [(9, 3), (11, 4), (17, 7)])
    def test_stage_reports_match_a_check_against_all_faces(self, m, r):
        _, stages = collapse_cycle_tower(m, r)
        assert len(stages) == r - 1
        K = neighborhood_complex(make_cycle(m), r)
        for stage, rr in zip(stages, range(r, 1, -1)):
            matching = cycle_matching(m, rr)
            expected = verify_matching(all_faces_label_set(K), matching)
            assert stage["verification"] == expected.to_json_obj()
            K = collapse(K, matching)

    @pytest.mark.parametrize("m,r", [(9, 3), (11, 4), (17, 7)])
    def test_each_stage_leaves_the_next_radius_complex(self, m, r):
        stages = list(_tower(m, r, None))
        assert [stage["radius"] for _, stage, _ in stages] == list(range(r, 1, -1))
        for _, stage, K in stages:
            assert K == neighborhood_complex(make_cycle(m), stage["radius"] - 1)

    def test_cycle_31_radius_13_reaches_the_rim(self):
        # 31 * 2^12 matched faces at the top stage, of which window 0 holds
        # 2^12
        start = time.process_time()
        final, stages = collapse_cycle_tower(31, 13)
        assert time.process_time() - start < 1.0
        assert final == neighborhood_complex(make_cycle(31), 1)
        assert [s["pairs"] for s in stages] == [31 << (r - 2) for r in range(13, 1, -1)]

    def test_collapse_preserves_homology(self):
        # same groups in every dimension (the start complex has trivial
        # homology above the circle)
        K = neighborhood_complex(make_cycle(9), 3)
        final, _ = collapse_cycle_tower(9, 3)
        ha, hb = homology(K), homology(final)
        for d in range(max(K.dim, final.dim) + 1):
            assert ha.betti(d) == hb.betti(d)
            assert ha.torsion(d) == hb.torsion(d)
        assert hb.betti_vector == (1, 1)


@st.composite
def elementary_collapses(draw):
    """A complex whose index order differs from its label order, its faces,
    a random run of elementary collapses on it as pairs, some reversed, and
    the random source that drew them."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 6))
    sets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
                         min_size=1, max_size=6))
    K = SimplicialComplex(draw(st.permutations("abcdef"[:n])),
                          SimplicialComplex.from_faces(sets).facets)
    faces = sorted(all_faces_label_set(K), key=lambda f: (len(f), f))
    live, pairs = set(faces), []
    for _ in range(draw(st.integers(1, len(faces)))):
        free = [(t, s) for t in sorted(live) for s in faces
                if s in live and len(s) == len(t) + 1 and set(t) < set(s)
                and sum(1 for c in live if len(c) == len(t) + 1 and set(t) < set(c)) == 1]
        if not free:
            break
        tau, sigma = rnd.choice(free)
        live -= {tau, sigma}
        pairs.append((sigma, tau) if rnd.random() < 0.2 else (tau, sigma))
    return K, faces, pairs, rnd


@st.composite
def complexes_with_matchings(draw):
    """A complex whose index order differs from its label order, and a
    matching on it: a run from ``elementary_collapses``, then pairs that may
    get stuck or cycle (cofacet pairs of unused faces), non-cofacet pairs, a
    face named twice, and faces outside the complex (unknown labels, labels
    out of index order, a repeated label, the empty tuple)."""
    K, faces, pairs, rnd = draw(elementary_collapses())
    unused = [f for f in faces if not any(f in p for p in pairs)]
    for kind in draw(st.lists(st.sampled_from(["cofacet", "cofacet", "any", "twice", "none"]),
                              min_size=1, max_size=2)):
        if kind == "none":
            continue
        if kind == "twice" and pairs:
            unused.append(rnd.choice(rnd.choice(pairs)))
        sigma = rnd.choice(unused or faces)
        subs = [sigma[:i] + sigma[i + 1:] for i in range(len(sigma))] if len(sigma) > 1 else []
        if kind == "cofacet" and subs:
            tau = rnd.choice([t for t in subs if t in unused] or subs)
        else:
            tau = rnd.choice(unused or faces)
        if tau != sigma:
            pairs.append((tau, sigma))
            unused = [f for f in unused if f not in (tau, sigma)]
    f = rnd.choice(unused or faces)
    foreign = draw(st.sampled_from(["none"] * 4 + ["unknown", "order", "repeat", "empty"]))
    if foreign == "order":  # a named face gets its labels out of index order
        f = rnd.choice([g for p in pairs for g in p if len(g) > 1] or [f])
        pairs = [tuple(g[::-1] if g == f else g for g in p) for p in pairs]
    elif foreign != "none":
        pairs.append({"unknown": (("z",), ("z",) + f), "repeat": (f[:1] * 2, f),
                      "empty": ((), f)}[foreign])
    rnd.shuffle(pairs)
    return K, MorseMatching(tuple(pairs), frozenset())


def outcome(run, K, matching):
    try:
        L = run(K, matching)
    except (ValueError, CollapseError) as exc:
        return type(exc)
    return L.vertices, L.facets


class TestAgainstFaceListingOracle:
    @given(complexes_with_matchings())
    @settings(max_examples=400, deadline=None)
    def test_collapse_matches_oracle(self, case):
        K, matching = case
        named = list(itertools.chain.from_iterable(matching.pairs))
        got = outcome(collapse, K, matching)
        if len(set(named)) < len(named):
            assert got is ValueError
        else:
            assert got == outcome(collapse_oracle.collapse, K, matching)

    @given(complexes_with_matchings())
    @settings(max_examples=400, deadline=None)
    def test_complete_collapse_certifies_presence_and_acyclicity(self, case):
        # the tower checks neither presence nor acyclicity apart from collapse
        K, matching = case
        try:
            collapse(K, matching)
        except (ValueError, CollapseError):
            return
        pairs = tuple(tuple(sorted(p, key=len)) for p in matching.pairs)
        oriented = MorseMatching(pairs, matching.domain)
        assert verify_matching(all_faces_label_set(K), oriented).well_formed
        assert verify_acyclic(oriented)

    @given(elementary_collapses())
    @settings(max_examples=400, deadline=None)
    def test_complete_collapses_match_oracle(self, case):
        # every run collapses; only removed upper faces record the faces that
        # may become facets, while the oracle reads the maximal faces of
        # everything left
        K, _, pairs, _ = case
        matching = MorseMatching(tuple(pairs), frozenset())
        got = outcome(collapse, K, matching)
        assert got == outcome(collapse_oracle.collapse, K, matching)
        assert not isinstance(got, type)

    @pytest.mark.parametrize("m,r", TOWER_CASES)
    def test_tower_matches_oracle_tower(self, m, r):
        final, stages = collapse_cycle_tower(m, r)
        want_final, want_stages = collapse_oracle.tower(m, r)
        assert stages == want_stages
        assert (final.vertices, final.facets) == (want_final.vertices, want_final.facets)


class TestTowerGuards:
    def test_stage_limit_trips_before_the_matching_is_built(self):
        # C31 at r=14 names 31 * 2^13 matched faces; building them would take
        # seconds
        with pytest.raises(ResourceLimitError, match=r"stage r=14 matching") as err:
            collapse_cycle_tower(31, 14, limit=100)
        assert (err.value.count, err.value.limit) == (31 * 2 ** 13, 100)

    def test_limit_at_the_top_stage_count_passes(self):
        final, stages = collapse_cycle_tower(9, 3, limit=9 * 4)
        assert len(stages) == 2 and len(final.facets) == 9

    @pytest.mark.parametrize("m,r", [(7, 1), (8, 3), (7, 4)])
    def test_parameters_refused_up_front(self, m, r):
        with pytest.raises(ValueError):
            collapse_cycle_tower(m, r, limit=0)


def patch_stage(monkeypatch, stage, mutate):
    """Make ``_window_pairs`` hand the tower ``mutate(pairs, domain)`` of
    window 0's masks at radius ``stage`` and the true masks at every other
    radius."""
    module = sys.modules["nbhd.morse"]
    plain = module._window_pairs

    def patched(m, r):
        pairs, domain = plain(m, r)
        return mutate(list(pairs), list(domain)) if r == stage else (pairs, domain)

    monkeypatch.setattr(module, "_window_pairs", patched)


def swap_partners(pairs, domain):
    # window 0's last pair and the first whose lower face neither upper face
    # holds trade upper faces; at r=2 the window has one pair, which is
    # turned round
    if len(pairs) == 1:
        return [pairs[0][::-1]], domain
    t1, s1 = pairs[-1]
    i = next(i for i, (t, s) in enumerate(pairs) if t & s1 != t and t1 & s != t1)
    return pairs[:i] + [(pairs[i][0], s1)] + pairs[i + 1:-1] + [(t1, pairs[i][1])], domain


def add_vertex_1(pairs, domain):
    # window 0 is {0, 2, ..., 2r}; with vertex 1, its first pair names two
    # faces no window holds, and the domain follows
    (tau, sigma), rest = pairs[0], pairs[1:]
    domain = [f for f in domain if f not in (tau, sigma)] + [tau | 2, sigma | 2]
    return [(tau | 2, sigma | 2)] + rest, domain


def patch_top(monkeypatch, mutate):
    """Make the tower start from the complex whose facets are
    ``mutate(facets, m, r)`` of the radius-r complex of the m-cycle, on
    the same vertices."""
    module = sys.modules["nbhd.morse"]
    plain = module.neighborhood_complex

    def patched(G, r):
        K = plain(G, r)
        return SimplicialComplex(K.vertices, mutate(list(K.facets), K.n_vertices, r))

    monkeypatch.setattr(module, "neighborhood_complex", patched)


def hinge_facets(facets, m, r):
    # the rotations of {0, 1, 2r} join the windows: window 0's bottom face
    # {0, 2r} lies in its top face, in {0, 1, 2r} and, when 2r + 1 = m, in
    # {2r - 1, 2r, 0}
    return facets + [sorted({x, (x + 1) % m, (x + 2 * r) % m}) for x in range(m)]


class TestTowerMutations:
    """The tower checks window 0's masks it is handed and the stage complex's
    symmetry, and collapses window 0 alone; a broken stage is refused with
    its radius named."""

    @pytest.mark.parametrize("stage", [5, 2])
    @pytest.mark.parametrize("mutate", [
        lambda p, d: (p[1:], d),  # a pair dropped: its faces are critical
        lambda p, d: (p + p[:1], d),  # a pair named twice
        swap_partners,  # pairs that are not codimension-1 containments
    ], ids=["drop", "twice", "non-cofacet"])
    def test_malformed_stage_is_not_perfect(self, monkeypatch, stage, mutate):
        patch_stage(monkeypatch, stage, mutate)
        with pytest.raises(CollapseError, match=rf"^stage r={stage}: matching not perfect$"):
            collapse_cycle_tower(11, 5)

    @pytest.mark.parametrize("stage", [5, 2])
    def test_face_outside_the_complex_names_the_stage(self, monkeypatch, stage):
        patch_stage(monkeypatch, stage, add_vertex_1)
        with pytest.raises(ValueError, match=rf"^stage r={stage}: matching mentions a face "
                                             r"outside the complex"):
            collapse_cycle_tower(11, 5)

    @pytest.mark.parametrize("stage", [5, 2])
    def test_faces_off_the_bottom_face_are_refused(self, monkeypatch, stage):
        # without vertex 0 every face is still named once, in cofacet pairs,
        # but the faces may have cofacets in other windows
        patch_stage(monkeypatch, stage, lambda p, d: ([(t ^ 1, s ^ 1) for t, s in p],
                                                      [f ^ 1 for f in d]))
        with pytest.raises(CollapseError, match=rf"^stage r={stage}: a matched face misses "
                                                r"window 0's bottom face$"):
            collapse_cycle_tower(11, 5)

    @pytest.mark.parametrize("r", [5, 2])
    def test_stage_not_closed_under_rotation_is_refused(self, monkeypatch, r):
        patch_top(monkeypatch, lambda facets, m, r: facets[1:])  # one window's facet gone
        with pytest.raises(CollapseError, match=rf"^stage r={r}: facets not closed under "
                                                r"rotation$"):
            collapse_cycle_tower(11, r)

    @pytest.mark.parametrize("r", [5, 2])
    def test_bottom_face_in_two_facets_is_refused(self, monkeypatch, r):
        patch_top(monkeypatch, hinge_facets)
        with pytest.raises(CollapseError, match=rf"^stage r={r}: window 0's bottom face lies in "
                                                r"[23] facets, not in its top face alone$"):
            collapse_cycle_tower(11, r)
