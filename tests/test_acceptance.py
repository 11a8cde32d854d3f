"""Acceptance suite.

One test per criterion (parametrized where a criterion quantifies over
instances); every test prints a pass/fail line, and the final test checks the
accumulated per-criterion runtime budgets.  All numeric assertions are exact:
the underlying arithmetic is integer or GF(2) linear algebra.
"""

import functools
import math
import time
from collections import defaultdict

import pytest

from collapse_oracle import verify_acyclic, verify_matching
from conftest import (
    all_faces_label_set,
    antipodal6,
    hexagon_complex,
    lemma_suite_random_graphs,
    nine_cycle_chord,
    octahedron,
    small_graph_corpus,
    two_pentagons,
    walk_neighborhood,
)
from nbhd import (
    FreenessError,
    abelianize,
    collapse_cycle_tower,
    cycle_matching,
    edge_path_presentation,
    h1_summand_certificate,
    hom_search,
    homology,
    kneser_walk_test,
    make_cycle,
    make_kneser,
    neighborhood_complex,
    obstruction_check,
    odd_girth,
    order_complex,
    pair_poset,
    pair_swap_involution,
    z2_height,
)

_TIMES = defaultdict(float)
_BUDGETS = {
    1: 5.0,
    2: 60.0,
    3: 60.0,
    4: 60.0,
    5: 120.0,
    6: 600.0,
    7: 600.0,
    8: 60.0,
    9: 60.0,
    10: 600.0,
}


def criterion(num, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                _TIMES[num] += time.perf_counter() - t0
                print(f"[criterion {num:2d}] FAIL  {description}")
                raise
            _TIMES[num] += time.perf_counter() - t0
            print(f"[criterion {num:2d}] PASS  {description}")

        return wrapper

    return deco


TOWER_SET = [(7, 2), (9, 2), (9, 3), (11, 2), (11, 4), (13, 5)]
KNESER_SET = [(5, 2), (6, 2), (7, 2), (7, 3)]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_criterion_1_tight_cycle_spheres(r):
    @criterion(1, f"tight cycle r={r}: simplex boundary with sphere homology")
    def check():
        m = r + 2
        K = neighborhood_complex(make_cycle(m), r)
        expected = frozenset(
            frozenset(v for v in range(m) if v != drop) for drop in range(m)
        )
        assert K.facet_label_sets() == expected
        h = homology(K)
        want = [0] * (r + 1)
        want[0] = want[r] = 1
        assert h.betti_vector == tuple(want)
        assert all(t == () for _, t in h.groups)

    check()


@pytest.mark.parametrize("m,r", TOWER_SET)
def test_criterion_2_matching_and_collapse(m, r):
    @criterion(2, f"(m={m}, r={r}): perfect acyclic matching, collapse to rim")
    def check():
        big = all_faces_label_set(neighborhood_complex(make_cycle(m), r))
        small = all_faces_label_set(neighborhood_complex(make_cycle(m), r - 1))
        matching = cycle_matching(m, r)
        assert matching.domain == frozenset(big - small)
        report = verify_matching(big, matching)
        assert report.perfect
        assert verify_acyclic(matching)
        final, stages = collapse_cycle_tower(m, r)
        assert len(stages) == r - 1
        rim = frozenset(frozenset(((v - 1) % m, (v + 1) % m)) for v in range(m))
        assert final.facet_label_sets() == rim
        h = homology(final)
        assert h.betti(0) == 1 and h.betti(1) == 1
        assert all(h.betti(d) == 0 for d in range(2, 5))
        assert all(t == () for _, t in h.groups)

    check()


@pytest.mark.parametrize("n,k", KNESER_SET)
def test_criterion_3_walk_test_agrees_with_search(n, k):
    @criterion(3, f"K({n},{k}): set-difference walk test matches walk balls, s<=4")
    def check():
        g = make_kneser(n, k)
        mismatches = 0
        for s in range(1, 5):
            balls = {a: set(walk_neighborhood(g, a, 2 * s)) for a in g.vertices}
            for a in g.vertices:
                for b in g.vertices:
                    lhs = kneser_walk_test(n, k, a, b, s)
                    rhs = g.index_of(b) in balls[a]
                    mismatches += lhs != rhs
        assert mismatches == 0

    check()


@pytest.mark.parametrize("n,k", KNESER_SET)
def test_criterion_4_odd_girth_formula(n, k):
    @criterion(4, f"K({n},{k}): odd-girth formula equals search")
    def check():
        expected = 2 * math.ceil(k / (n - 2 * k)) + 1
        assert odd_girth(make_kneser(n, k)) == expected
        if (n, k) == (6, 2):
            assert expected == 3
        if (n, k) == (5, 2):
            assert expected == 5

    check()


@criterion(5, "K(5,2): radius-3 balls miss only the center; S^8 homology")
def test_criterion_5_petersen_sphere():
    g = make_kneser(5, 2)
    for a in g.vertices:
        ball = walk_neighborhood(g, a, 3)
        assert ball == tuple(i for i in range(10) if i != g.index_of(a))
    h = homology(neighborhood_complex(g, 3))
    assert h.betti_vector == (1, 0, 0, 0, 0, 0, 0, 0, 1)
    assert all(t == () for _, t in h.groups)


def _lemma_suite():
    suite = [
        (make_cycle(5), 1),
        (make_cycle(5), 2),
        (make_cycle(5), 3),
        (make_cycle(7), 1),
        (make_kneser(4, 1), 1),
    ]
    suite.extend((g, 1) for g in lemma_suite_random_graphs())
    return suite


@pytest.mark.parametrize("idx", range(15))
def test_criterion_6_pair_poset_betti_equality(idx):
    g, r = _lemma_suite()[idx]
    name = f"{g!r} r={r}" if idx >= 5 else ["C5 r=1", "C5 r=2", "C5 r=3", "C7 r=1", "K4 r=1"][idx]

    @criterion(6, f"pair-poset order complex matches neighborhood Betti: {name}")
    def check():
        lhs = homology(order_complex(pair_poset(g, r)))
        rhs = homology(neighborhood_complex(g, r))
        top = max(len(lhs.groups), len(rhs.groups))
        assert [lhs.betti(d) for d in range(top)] == [rhs.betti(d) for d in range(top)]

    check()


@criterion(7, "swap heights: pair spaces 1 and 3; antipodal controls 1 and 2")
def test_criterion_7_heights():
    K1 = order_complex(pair_poset(make_cycle(3), 1))
    assert z2_height(K1, pair_swap_involution(K1)) == 1
    K3 = order_complex(pair_poset(make_cycle(5), 3))
    assert z2_height(K3, pair_swap_involution(K3)) == 3
    hexa = hexagon_complex()
    assert z2_height(hexa, antipodal6(hexa)) == 1
    octa = octahedron()
    assert z2_height(octa, antipodal6(octa)) == 2


@criterion(8, "K(5,2) blocked: heights 8 > 3 and exhaustive search agrees")
def test_criterion_8_main_obstruction():
    petersen = make_kneser(5, 2)
    rep = obstruction_check(petersen, make_cycle(5), 3)
    assert rep.verdict == "NO-MAP"
    assert rep.lhs["bound"] == 8 and rep.rhs["bound"] == 3
    assert hom_search(petersen, make_cycle(5)).status == "none"
    for g in (nine_cycle_chord(), two_pentagons()):
        assert g.n_vertices == 9 and odd_girth(g) == 5
        assert hom_search(petersen, g).status == "none"


@criterion(9, "first homology certificates: free rank one on towers; bipartite skipped")
def test_criterion_9_h1_certificates():
    for m, r in TOWER_SET:
        K = neighborhood_complex(make_cycle(m), r)
        pres = edge_path_presentation(K, K.vertices[0])
        assert abelianize(pres) == (1, ())
        h = homology(K)
        assert (h.betti(1), h.torsion(1)) == (1, ())
    report = h1_summand_certificate(make_cycle(6), 2)
    assert report["applicable"] is False
    assert report["odd_girth"] == "infinite"
    assert report["radii"] == []


@criterion(10, "cross-oracle sweep: no NO-MAP ever contradicts a found map")
def test_criterion_10_soundness_sweep():
    corpus = small_graph_corpus()
    violations = 0
    checked = 0
    for r in (1, 3):
        for g in corpus:
            for h in corpus:
                try:
                    rep = obstruction_check(g, h, r)
                except FreenessError:
                    continue
                checked += 1
                if rep.verdict == "NO-MAP":
                    assert hom_search(g, h).status == "none"
                    violations += hom_search(g, h).found
    assert violations == 0
    assert checked > 100  # the sweep must actually exercise verdicts


def test_zz_runtime_budgets():
    for num in sorted(_BUDGETS):
        spent = _TIMES.get(num, 0.0)
        print(f"[criterion {num:2d}] runtime {spent:8.2f}s of {_BUDGETS[num]:7.1f}s budget")
        assert spent < _BUDGETS[num]
