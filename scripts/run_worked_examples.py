#!/usr/bin/env python3
"""Drive the library end to end on the worked desk-scale examples and print a
compact report: sphere complexes from tight odd cycles, the Kneser sphere,
Kneser and cycle spheres answered from their facets,
matching/collapse towers (one window per stage), edge contraction before
homology, swap heights (box-complex heights read up to a
colouring's cap), pair-space homology (reduced as the r-neighborhood complex)
and Kneser-complex homology (on facet-intersection lattices, with the
edge-path group read from the 2-skeleton alone), and obstruction
verdicts with the exhaustive search as the cross-oracle."""

import time

from nbhd import (
    abelianize,
    collapse_cycle_tower,
    edge_path_presentation,
    hom_search,
    homology,
    homology_connectivity,
    kneser_certificate,
    make_cycle,
    make_kneser,
    neighborhood_complex,
    obstruction_check,
    odd_girth,
    order_complex,
    pair_poset,
    pair_space_height,
    pair_swap_involution,
    z2_height,
)
from nbhd.complexes import _above, _bits, _closure, _sizes
from nbhd.graphs import walk_ball
from nbhd.homology import _contracted
from nbhd.z2 import _box_faces, _colour_cap, _height


def lattice_sizes(K):
    """|L|, the chains of L's order complex and the faces of ``K``, where L is
    the lattice of ``K``'s facet intersections."""
    spans = [sum(1 << v for v in f) for f in K.facets]
    found = set(spans)
    for _ in _closure(spans, found):
        pass
    lattice = sorted(found, key=int.bit_count)
    return (len(lattice),) + _sizes(lattice, [list(_bits(a)) for a in _above(lattice, K.n_vertices)])


def section(title):
    print()
    print(f"== {title} ==")


def main():
    t0 = time.perf_counter()

    section("tight odd cycles: radius-r complex of C_{r+2}")
    for r in (1, 3, 5):
        K = neighborhood_complex(make_cycle(r + 2), r)
        h = homology(K)
        print(f"  r={r}: {len(K.facets)} facets, betti {h.betti_vector}")

    section("the (5,2) Kneser graph at radius 3")
    petersen = make_kneser(5, 2)
    K = neighborhood_complex(petersen, 3)
    h = homology(K)
    print(f"  odd girth {odd_girth(petersen)}, complex {K}")
    print(f"  betti {h.betti_vector}, homological connectivity {homology_connectivity(K)}")

    section("Kneser and cycle spheres as boundaries of simplices")
    # each is the boundary of a simplex: n facets of n - 1 vertices on n
    # vertices, so homology reads none of the complex's faces
    for name, g, r, d in (("K(7,3)", make_kneser(7, 3), 5, 33),
                          ("K(9,4)", make_kneser(9, 4), 7, 124),
                          ("C_9", make_cycle(9), 7, 7), ("C_31", make_cycle(31), 29, 29)):
        K = neighborhood_complex(g, r)
        t = time.perf_counter()
        h = homology(K)
        elapsed = time.perf_counter() - t
        dims = [i for i, b in enumerate(h.betti_vector) if b]
        print(f"  N_{r}({name}): {len(K.facets)} facets, betti 1 in dimensions {dims}, "
              f"S^{d} in {elapsed:.4f}s")
        assert h.groups == ((1, ()),) + ((0, ()),) * (d - 1) + ((1, ()),)
        assert K._faces is None

    section("matching and collapse towers")
    for m, r in ((7, 2), (9, 3), (11, 4), (13, 5)):
        final, stages = collapse_cycle_tower(m, r)
        print(
            f"  C_{m} r={r}: {len(stages)} stages -> {len(final.facets)}-gon rim, "
            f"betti {homology(final).betti_vector}"
        )
    # C17 r=7 is the homology benchmark's tower; each stage collapses window 0
    # alone and rotates it onto the other windows
    for m, r in ((17, 7), (29, 12), (31, 13)):
        t = time.perf_counter()
        final, stages = collapse_cycle_tower(m, r)
        print(f"  C_{m} r={r}: {len(stages)} stages -> {len(final.facets)}-gon rim "
              f"in {time.perf_counter() - t:.3f}s")

    section("edge contraction before homology")
    # every edge that meets the link condition is contracted first, on facets
    for m, r in ((17, 7), (31, 13), (4001, 2)):
        K = neighborhood_complex(make_cycle(m), r)
        t = time.perf_counter()
        h = homology(K)
        elapsed = time.perf_counter() - t
        print(f"  N_{r}(C_{m}): {len(K.facets)} facets contract to {len(_contracted(K).facets)}; "
              f"betti {h.betti_vector[:3]} in {elapsed:.3f}s")

    section("swap heights of pair spaces")
    for g, r in ((make_cycle(3), 1), (make_cycle(5), 3)):
        K = order_complex(pair_poset(g, r))
        print(f"  {g!r} r={r}: height {z2_height(K, pair_swap_involution(K))}")

    section("swap heights on the box complex")
    for name, g, r in (("K(7,2)", make_kneser(7, 2), 1), ("K(8,3)", make_kneser(8, 3), 1),
                       ("Petersen", petersen, 3)):
        t = time.perf_counter()
        h = pair_space_height(g, r)
        elapsed = time.perf_counter() - t
        balls = [walk_ball(g, x, r) for x in range(g.n_vertices)]
        cap = _colour_cap(balls)
        read = []  # orbit faces per level, as far as the capped height reads
        _height((read.append(len(level)) or level for level in _box_faces(balls)), cap)
        print(f"  {name} r={r}: height {h} in {elapsed:.3f}s; {cap + 2} colours cap it "
              f"at {cap}; orbit faces read per level {read}")

    section("pair-space homology, reduced as the r-neighborhood complex")
    # the order complex of the linked-pair poset has the homotopy type of
    # N_r(G), which homology reduces on its faces or its lattice's chains,
    # whichever are fewer; the order complex's maximal chains are never
    # listed, nor the poset's elements built: C7 r=5 has 161,280 chains, C9
    # r=7 and K(7,2) r=1 too many for 3 GB, and C11 r=9 173,052 elements
    for name, g, r in (("C5", make_cycle(5), 3), ("C7", make_cycle(7), 5),
                       ("C9", make_cycle(9), 7), ("C11", make_cycle(11), 9),
                       ("K(7,2)", make_kneser(7, 2), 1)):
        t = time.perf_counter()
        h = homology(order_complex(pair_poset(g, r, size_guard=10**6)))
        elapsed = time.perf_counter() - t
        _, chains, faces = lattice_sizes(_contracted(neighborhood_complex(g, r)))
        model = f"{chains} lattice chains" if chains < faces else f"{faces} faces"
        print(f"  {name} r={r}: pair space of dimension {len(h.betti_vector) - 1}; "
              f"N_{r} reduced on {model}, betti {h.betti_vector} in {elapsed:.3f}s")

    section("Kneser complexes on their facet-intersection lattice")
    # the order complex of L, the facets' nonempty intersections, has the
    # complex's homotopy type, and homology reduces it when it has fewer
    # faces; N_1(K(9,3)) has more than 5,000,000
    for n, k in ((7, 2), (8, 3), (9, 3)):
        K = neighborhood_complex(make_kneser(n, k), 1)
        t = time.perf_counter()
        h = homology(K)
        elapsed = time.perf_counter() - t
        size, chains, faces = lattice_sizes(K)
        model = "its faces" if K._faces is not None else "the lattice"
        print(f"  N_1(K({n},{k})): betti {h.betti_vector} in {elapsed:.3f}s on {model}; "
              f"|L| {size}, {chains} chains against {faces} faces")
    # the edge-path group reads only the 2-skeleton, 56,994 faces here
    t = time.perf_counter()
    pres = edge_path_presentation(K, K.vertices[0])
    ab = abelianize(pres)
    print(f"  N_1(K(9,3)) edge paths: {len(pres.generators)} generators, "
          f"{len(pres.relators)} relators, abelianization {ab} in "
          f"{time.perf_counter() - t:.3f}s")
    assert ab == (h.betti(1), h.torsion(1))

    section("obstruction verdicts vs exhaustive search")
    cases = [
        (petersen, make_cycle(5), 3),
        (make_cycle(5), petersen, 3),
        (make_cycle(5), make_cycle(7), 3),
    ]
    for g, h_, r in cases:
        rep = obstruction_check(g, h_, r)
        search = hom_search(g, h_)
        print(
            f"  {g!r} -> {h_!r} at r={r}: {rep.verdict} "
            f"(lhs {rep.lhs['bound']}, rhs {rep.rhs['bound']}); search: {search.status}"
        )
        assert not (rep.verdict == "NO-MAP" and search.found)

    section("sphere certificates for Kneser sources")
    for target in (make_cycle(5), make_cycle(9), petersen):
        rep = kneser_certificate(5, 2, target)
        print(f"  K(5,2) -> {target!r}: {rep.verdict} ({rep.rule})")

    print(f"\nall examples reproduced in {time.perf_counter() - t0:.2f}s")


if __name__ == "__main__":
    main()
