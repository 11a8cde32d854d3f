"""Discrete Morse matchings on the walk-neighborhood complexes of odd cycles:
construction of the radius-shrinking matching, its well-formedness check,
and collapse execution down to the radius-1 rim.

The tower checks each stage's vertex masks from ``_window_pairs`` itself
and collapses on them in ``_collapse``, which reads only the matched faces
against per-vertex facet masks; its return proves the matching acyclic and
present, and only facets pass between stages.  ``cycle_matching`` and
``collapse`` are the label views of the same masks and the same core.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from functools import reduce

from .complexes import (DEFAULT_FACE_LIMIT, SimplicialComplex, _bits, _held,
                        neighborhood_complex, sorted_labels)
from .errors import CollapseError, ResourceLimitError
from .graphs import make_cycle

__all__ = [
    "MorseMatching",
    "MatchingReport",
    "cycle_matching",
    "verify_matching",
    "collapse",
    "collapse_cycle_tower",
]


@dataclass(frozen=True)
class MorseMatching:
    """Pairs ``(tau, sigma)`` with ``tau`` a codimension-1 face of ``sigma``;
    ``domain`` is the face set the matching is supposed to cover."""

    pairs: tuple
    domain: frozenset

    def to_json_obj(self):
        return [[list(tau), list(sigma)] for tau, sigma in self.pairs]


def _window_pairs(m, r):
    """The pairs and the domain of the radius-r matching on the m-cycle, as
    vertex masks (vertex i is bit i), window by window.

    A face lost when the radius shrinks by one lives in the window
    ``{x, x+2, ..., x+2r}`` for a unique x and contains both endpoints
    (positions 0 and r).  ``faces[t]`` is the face whose inner positions
    1..r-1 are the set bits of ``t << 1``; it is the face without its lowest
    inner position plus that vertex.  The face missing only ``x+2`` pairs
    with the full window; any other face pairs across membership of the
    predecessor of its largest missing entry: ``gap`` is its highest clear
    inner position, and its partner flips position gap-1.  The result is a
    perfect matching per window."""
    _check_cycle(m, r)
    full = (1 << r - 1) - 1  # every inner position
    pairs, domain = [], []
    for x in range(m):
        bit = [1 << (x + 2 * i) % m for i in range(r + 1)]
        faces = [bit[0] | bit[r]]
        for t in range(1, full + 1):
            low = t & -t
            faces.append(faces[t ^ low] | bit[low.bit_length()])
        domain += faces
        pairs.append((faces[full ^ 1], faces[full]))  # drop x+2
        for t in range(full - 1):  # the rest, below those two
            gap = (full & ~t).bit_length()
            if t << 1 >> gap - 1 & 1:
                pairs.append((faces[t ^ 1 << gap - 2], faces[t]))
    return pairs, domain


def _as_matching(pairs, domain):
    # masks over the cycle's vertices 0..m-1 as sorted label tuples
    pairs = sorted((tuple(_bits(t)), tuple(_bits(s))) for t, s in pairs)
    return MorseMatching(tuple(pairs), frozenset(tuple(_bits(x)) for x in domain))


def cycle_matching(m, r):
    """Matching on the faces of the radius-r complex of the m-cycle that span
    a full diameter window (the faces lost when the radius shrinks by one),
    as sorted label tuples with the pairs sorted; see ``_window_pairs``."""
    return _as_matching(*_window_pairs(m, r))


@dataclass(frozen=True)
class MatchingReport:
    duplicates: tuple  # faces appearing in more than one pair
    bad_pairs: tuple  # pairs that are not codimension-1 containments
    missing: tuple  # matched faces absent from the ambient face set
    critical: tuple  # domain faces in no pair

    @property
    def well_formed(self):
        return not (self.duplicates or self.bad_pairs or self.missing)

    @property
    def perfect(self):
        return self.well_formed and not self.critical

    def to_json_obj(self):
        return {
            "duplicates": [list(f) for f in self.duplicates],
            "bad_pairs": [[list(t), list(s)] for t, s in self.bad_pairs],
            "missing": [list(f) for f in self.missing],
            "critical": [list(f) for f in self.critical],
            "well_formed": self.well_formed,
            "perfect": self.perfect,
        }


def verify_matching(faces, matching):
    """Diagnostic report: duplicates, non-cofacet pairs, faces outside the
    ambient set, and the critical (unmatched) part of the domain."""
    faces, named = set(faces), list(itertools.chain.from_iterable(matching.pairs))
    count = Counter(named)
    dup = sorted(f for f, c in count.items() if c > 1)
    bad = [(t, s) for t, s in matching.pairs if len(s) != len(t) + 1 or not set(t) < set(s)]
    missing = sorted(f for f in named if f not in faces)
    critical = sorted(matching.domain - set(count))
    return MatchingReport(tuple(dup), tuple(bad), tuple(missing), tuple(critical))


def _matched(K, matching):
    # the pairs as vertex masks; labels that are not K's, that are out of K's
    # index order, or that are none at all name no face of K
    def mask(labels):
        idx = [K._index.get(v, -1) for v in labels]
        if not idx or idx[0] < 0 or any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"matching mentions a face outside the complex: {labels}")
        return sum(1 << i for i in idx)
    return [(mask(a), mask(b)) for a, b in matching.pairs]


def collapse(K, matching, limit=None):
    """Remove matched pairs whose lower face is free, in any order (the
    result is the same), until only unmatched faces remain; ``limit`` bounds
    the matched faces.  Raises :class:`ValueError` for a face outside K or
    named twice, and :class:`CollapseError` if the matching gets stuck.  The
    faces become vertex masks for ``_collapse``, which orients pairs by size
    (``verify_matching`` reports a reversed one)."""
    pairs = _matched(K, matching)
    named = [f for pair in pairs for f in pair]
    if len(set(named)) < len(named):
        twice = Counter(named).most_common(1)[0][0]
        raise ValueError(f"matching names a face twice: {K.face_labels(_bits(twice))}")
    return _collapse(K, pairs, limit)


def _collapse(K, pairs, limit):
    """``collapse`` on pairs of vertex masks over K's indices, none named
    twice.  A lower face's holding mask is the AND of its vertices' facet
    masks, its partner's that AND with one more; its link is the union of its
    holding facets' spans, less itself, formed once per holding set.

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
    facets, inside = [], [0] * K.n_vertices  # new facets; those holding each vertex
    for x in sorted([s for s in spans if s not in gone] + list(lost - gone),
                    key=int.bit_count, reverse=True):
        if not reduce(operator.and_, map(inside.__getitem__, _bits(x))):
            for i in _bits(x):
                inside[i] |= 1 << len(facets)
            facets.append(x)
    facets = [[K.vertices[i] for i in _bits(x)] for x in facets]
    vertices = sorted_labels({v for f in facets for v in f})
    new = {v: i for i, v in enumerate(vertices)}
    return SimplicialComplex._from_indexed(vertices, (sorted(map(new.get, f)) for f in facets))


def _check_cycle(m, r):
    if r < 2:
        raise ValueError("radius must be at least 2")
    if m % 2 == 0 or m <= 2 * r:
        raise ValueError("m must be odd and larger than 2r")


def _tower(m, r, limit):
    # collapse_cycle_tower one stage at a time: ((pairs, domain) as vertex
    # masks, report, complex after)
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
        if current.vertices != tuple(range(m)):  # so that labels are indices
            raise CollapseError(f"stage r={rr}: vertices are not 0..{m - 1}")
        try:
            current = _collapse(current, pairs, limit)  # certifies acyclic and present
        except (ValueError, CollapseError) as exc:
            raise type(exc)(f"stage r={rr}: {exc}") from None
        report = MatchingReport((), (), (), ()).to_json_obj()  # what the checks proved
        yield (pairs, domain), {"radius": rr, "pairs": len(pairs), "acyclic": True,
                                "verification": report}, current


def collapse_cycle_tower(m, r, limit=None):
    """Collapse the radius-r complex of the m-cycle down the radius tower to
    radius 1.  Each stage's window masks must name every face of the
    stage's domain once, in codimension-1 pairs, and its complete collapse
    proves the matching acyclic and present; only facets pass between
    stages.  ``limit`` bounds each stage's matched faces, checked before its
    matching is built.  Returns the final complex and one report dict per
    stage, each carrying its matching's (perfect) verification report."""
    stages = []
    for _, stage, final in _tower(m, r, limit):
        stages.append(stage)
    return final, stages
