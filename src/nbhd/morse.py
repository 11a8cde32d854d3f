"""Discrete Morse matchings on the walk-neighborhood complexes of odd cycles:
construction of the radius-shrinking matching, its well-formedness check,
and collapse execution down to the radius-1 rim.

The radius-r matching lives on m windows that the rotation v -> v + 1
carries onto one another, so ``_window_pairs`` builds window 0's alone.
Each tower stage checks those vertex masks and that the stage complex is
symmetric enough for the rotation to carry window 0's collapse onto every
window, then collapses window 0 alone in ``_collapse``, which reads only the
matched faces against per-vertex facet masks; its return proves the
matching acyclic and present, and only facets pass between stages.
``cycle_matching`` is the label view of the same masks.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import reduce

from .complexes import (DEFAULT_FACE_LIMIT, SimplicialComplex, _held,
                        neighborhood_complex, sorted_labels)
from .errors import CollapseError, ResourceLimitError
from .graphs import _bits, make_cycle

__all__ = [
    "MorseMatching",
    "cycle_matching",
    "collapse_cycle_tower",
]


class MorseMatching(namedtuple("MorseMatching", "pairs domain")):
    """Pairs ``(tau, sigma)`` with ``tau`` a codimension-1 face of ``sigma``;
    ``domain`` is the frozenset of faces the matching is supposed to cover."""

    __slots__ = ()

    def to_json_obj(self):
        return [[list(tau), list(sigma)] for tau, sigma in self.pairs]


def _window_pairs(m, r):
    """The pairs and the domain of the radius-r matching on window 0 of the
    m-cycle, ``{0, 2, ..., 2r}``, as vertex masks (vertex i is bit i); the
    rotation v -> v + x carries them onto window x.

    A face lost when the radius shrinks by one lives in the window
    ``{x, x+2, ..., x+2r}`` for a unique x and contains both endpoints
    (positions 0 and r).  ``faces[t]`` is the face whose inner positions
    1..r-1 are the set bits of ``t << 1``; it is the face without its lowest
    inner position plus that vertex.  The face missing only ``2`` pairs with
    the full window; any other face pairs across membership of the
    predecessor of its largest missing entry: ``gap`` is its highest clear
    inner position, and its partner flips position gap-1.  The result is a
    perfect matching on the window."""
    _check_cycle(m, r)
    full = (1 << r - 1) - 1  # every inner position
    bit = [1 << 2 * i for i in range(r + 1)]  # 2r < m, so no wrap
    faces = [bit[0] | bit[r]]
    for t in range(1, full + 1):
        low = t & -t
        faces.append(faces[t ^ low] | bit[low.bit_length()])
    pairs = [(faces[full ^ 1], faces[full])]  # drop 2
    for t in range(full - 1):  # the rest, below those two
        gap = (full & ~t).bit_length()
        if t << 1 >> gap - 1 & 1:
            pairs.append((faces[t ^ 1 << gap - 2], faces[t]))
    return pairs, faces


def _rotate(x, k, m):
    # vertex mask x over the m-cycle turned by v -> v + k, for 0 <= k < m
    return (x << k | x >> m - k) & (1 << m) - 1


def cycle_matching(m, r):
    """Matching on the faces of the radius-r complex of the m-cycle that span
    a full diameter window (the faces lost when the radius shrinks by one),
    as sorted label tuples with the pairs sorted; see ``_window_pairs``."""
    # window 0's masks, rotated onto every window
    def labels(x, k):
        return tuple(_bits(_rotate(x, k, m)))
    pairs, domain = _window_pairs(m, r)
    pairs = sorted((labels(t, k), labels(s, k)) for t, s in pairs for k in range(m))
    return MorseMatching(tuple(pairs), frozenset(labels(x, k) for x in domain for k in range(m)))


def _relabelled(K, facets):
    # the complex of vertex masks facets over K's indices, maximal and
    # distinct, on the labels they hold in sorted order
    facets = [[K.vertices[i] for i in _bits(x)] for x in facets]
    vertices = sorted_labels({v for f in facets for v in f})
    new = {v: i for i, v in enumerate(vertices)}
    return SimplicialComplex._from_indexed(vertices, (sorted(map(new.get, f)) for f in facets))


def _maximal(faces, n):
    # the maximal ones among vertex masks over n vertices, each once; a face
    # is first tried against the kept face that held the last one dropped
    kept, inside, last = [], [0] * n, 0  # inside: the kept faces holding each vertex
    for x in sorted(faces, key=int.bit_count, reverse=True):
        if x & last == x:
            continue
        holders = reduce(operator.and_, map(inside.__getitem__, _bits(x)))
        if holders:
            last = kept[holders.bit_length() - 1]
            continue
        for i in _bits(x):
            inside[i] |= 1 << len(kept)
        kept.append(x)
    return kept


def _collapse(K, pairs, limit):
    """Remove matched pairs whose lower face is free, in any order (the
    result is the same), until only unmatched faces remain; ``pairs`` are
    vertex masks over K's indices, either way round and none named twice,
    and ``limit`` bounds the matched faces.  Returns the new facets as
    vertex masks.  Raises :class:`ValueError` for a face outside K and
    :class:`CollapseError` if the matching gets stuck.  A lower face's
    holding mask is the AND of its vertices' facet masks, its partner's that
    AND with one more; its link is the union of its holding facets' spans,
    less itself, formed once per holding set.

    A return proves the matching acyclic (Forman 1998, "Morse theory for cell
    complexes"): a pair (tau, sigma) goes only when sigma is tau's one live
    cofacet, so sigma is maximal then.  On a gradient path tau0 < sigma0 >
    tau1 < sigma1 ..., sigma_i's facet tau_(i+1) is present when (tau_i,
    sigma_i) goes, and being matched it goes later; removal times rise along
    the path, so none closes.

    The new facets are the maximal faces among the surviving old facets and
    the unmatched facets that each removed upper face records.  Every new
    facet y that is no old facet is recorded.  y has cofacets, all of which
    went, so they were matched; and y, which stays, is not.  Were they all
    lower faces, take one, tau0 = y + a0, with partner sigma0 = tau0 + u0:
    y + u0 = sigma0 - a0 is another cofacet of y, a lower face tau1 with
    partner tau1 + u1, and so on.  That is a gradient path, which cannot
    close, so among finitely many faces some y + u_k is an upper face; it
    recorded y."""
    cap = DEFAULT_FACE_LIMIT if limit is None else limit
    if 2 * len(pairs) > cap:
        raise ResourceLimitError("collapse matching", 2 * len(pairs), "faces", cap)
    held, every = _held(K.facets, K.n_vertices), (1 << len(K.facets)) - 1
    spans = [sum(1 << v for v in f) for f in K.facets]
    up, live, unions = {}, {}, {}  # lower face -> its partner, its live cofacets

    def holding(face, start):  # the facets in start holding face
        return reduce(operator.and_, map(held.__getitem__, _bits(face)), start)
    for a, b in pairs:
        tau, sigma = (a, b) if a < b else (b, a)  # a face's mask is below its cofacets'
        hold = holding(tau, every)
        cofacet = tau & sigma == tau and (sigma ^ tau).bit_count() == 1
        top = holding(sigma ^ tau, hold) if cofacet else holding(sigma, every)
        if not (hold and top):
            outside = K.face_labels(_bits(sigma if hold else tau))
            raise ValueError(f"matching mentions a face outside the complex: {outside}")
        if cofacet:
            if hold not in unions:  # the spans of a holding set, united once
                unions[hold] = reduce(operator.or_, map(spans.__getitem__, _bits(hold)))
            up[tau], live[tau] = sigma, (unions[hold] & ~tau).bit_count()  # tau's link
    free = [tau for tau, n in live.items() if n == 1]
    gone, lost = set(), set()  # removed faces; faces a removed upper face recorded
    while free:
        tau = free.pop()
        for g, upper in ((up[tau], True), (tau, False)):
            gone.add(g)
            rest = g if g & (g - 1) else 0  # a vertex has no boundary
            while rest:
                low = rest & -rest
                rest ^= low
                sub = g ^ low
                if sub in live:
                    live[sub] -= 1
                    if live[sub] == 1:
                        free.append(sub)
                elif upper:
                    lost.add(sub)
    if len(gone) < 2 * len(pairs):
        raise CollapseError(f"{2 * len(pairs) - len(gone)} matched faces could not be collapsed")
    return _maximal([s for s in spans if s not in gone] + list(lost - gone), K.n_vertices)


def _check_cycle(m, r):
    if r < 2:
        raise ValueError("radius must be at least 2")
    if m % 2 == 0 or m <= 2 * r:
        raise ValueError("m must be odd and larger than 2r")


def _tower(m, r, limit):
    """``collapse_cycle_tower`` one stage at a time: window 0's (pairs,
    domain) as vertex masks, the stage's report, and the complex after.

    A stage at radius r' collapses window 0 alone and rotates what is left.
    It checks that window 0's pairs are perfect on its domain, every face of
    which holds the bottom face {0, 2r'}; that the stage complex's facets
    are closed under the rotation v -> v + 1; and that the bottom face lies
    in one facet only, window 0's top face {0, 2, ..., 2r'}.  Then:

    - every face of the domain lies in the top face only, as every facet
      holding it holds the bottom face; so do its cofacets, which hold it
      too, and they are in the domain: the domain is closed under cofacets;
    - the rotations permute the facets, so they are automorphisms of the
      stage complex, and rotation by x carries window 0's domain, pairs,
      bottom and top faces onto window x's;
    - two windows' domains are disjoint: a face in both would have both top
      faces as its only facet, and top faces of distinct windows differ
      (halving mod m turns them into arcs of r' + 1 < m vertices with
      distinct starts).

    A face of window x's domain thus has the same cofacets as its rotation
    to window 0, in the stage complex and in the one-facet complex of the
    top face alike, and removals in other windows touch none of them: the
    stage collapses if and only if window 0 collapses on that one-facet
    complex, and leaves the faces outside every domain.  Their facets are
    the maximal faces among the rotations of window 0's surviving facets
    and the stage facets in no domain, those that are no top face (a facet
    in window x's domain holds x's bottom face, so it is x's top face)."""
    _check_cycle(m, r)
    cap = DEFAULT_FACE_LIMIT if limit is None else limit
    current = neighborhood_complex(make_cycle(m), r)
    for rr in range(r, 1, -1):
        named = m << (rr - 1)  # a perfect matching on the radius difference
        if named > cap:
            raise ResourceLimitError(f"stage r={rr} matching", named, "faces", cap)
        pairs, domain = _window_pairs(m, rr)
        faces = [f for pair in pairs for f in pair]
        distinct = set(faces)
        if (len(distinct) < len(faces) or distinct != set(domain)
                or not all(t & s == t and (s ^ t).bit_count() == 1 for t, s in pairs)):
            raise CollapseError(f"stage r={rr}: matching not perfect")
        bottom, top = 1 | 1 << 2 * rr, sum(1 << 2 * i for i in range(rr + 1))
        if any(f & bottom != bottom for f in distinct):
            raise CollapseError(f"stage r={rr}: a matched face misses window 0's bottom face")
        if current.vertices != tuple(range(m)):  # so that labels are indices
            raise CollapseError(f"stage r={rr}: vertices are not 0..{m - 1}")
        spans = {sum(1 << v for v in f) for f in current.facets}
        if {_rotate(x, 1, m) for x in spans} != spans:
            raise CollapseError(f"stage r={rr}: facets not closed under rotation")
        holding = [x for x in spans if x & bottom == bottom]
        if holding != [top]:
            raise CollapseError(f"stage r={rr}: window 0's bottom face lies in "
                                f"{len(holding)} facets, not in its top face alone")
        window = SimplicialComplex._from_indexed(current.vertices, [tuple(_bits(top))])
        try:
            left = _collapse(window, pairs, limit)  # certifies acyclic and present
        except (ValueError, CollapseError) as exc:
            raise type(exc)(f"stage r={rr}: {exc}") from None
        tops = {_rotate(top, k, m) for k in range(m)}
        current = _relabelled(current, _maximal(
            [_rotate(x, k, m) for x in left for k in range(m)] + list(spans - tops), m))
        report = {"duplicates": [], "bad_pairs": [], "missing": [], "critical": [],
                  "well_formed": True, "perfect": True}  # what the checks proved
        yield (pairs, domain), {"radius": rr, "pairs": m * len(pairs), "acyclic": True,
                                "verification": report}, current


def collapse_cycle_tower(m, r, limit=None):
    """Collapse the radius-r complex of the m-cycle down the radius tower to
    radius 1.  Each stage's window-0 masks must name every face of window
    0's domain once, in codimension-1 pairs, and window 0's complete
    collapse proves the matching acyclic and present; the rotations carry
    it onto the other windows, which are never built (``_tower``), and only
    facets pass between stages.  ``limit`` bounds each stage's matched faces
    on all windows, checked before window 0's are built.  Returns the final
    complex and one report dict per stage, each carrying its matching's
    (perfect) verification report."""
    stages = []
    for _, stage, final in _tower(m, r, limit):
        stages.append(stage)
    return final, stages
