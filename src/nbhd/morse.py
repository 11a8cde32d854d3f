"""Discrete Morse matchings on the walk-neighborhood complexes of odd cycles:
construction of the radius-shrinking matching, its well-formedness check,
and collapse execution down to the radius-1 rim.

Matchings name faces as sorted tuples of vertex labels, which
``cycle_matching`` reads from window position masks.  ``collapse`` reads only
the matched faces, as vertex masks against per-vertex facet masks; its
return proves the matching acyclic and present, so a tower stage adds only
``verify_matching``, and only facets pass between stages.
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


def cycle_matching(m, r):
    """Matching on the faces of the radius-r complex of the m-cycle that span
    a full diameter window (the faces lost when the radius shrinks by one).

    Such a face lives in the window ``{x, x+2, ..., x+2r}`` for a unique x and
    contains both endpoints.  The face missing only ``x+2`` pairs with the
    full window; any other face pairs across membership of the predecessor of
    its largest missing entry.  The result is a perfect matching per stratum.
    Each face is a mask over window positions 0..r, read once in label order;
    ``gap`` is its highest clear inner bit, and its partner flips bit gap-1.
    """
    _check_cycle(m, r)
    ends, inner = 1 | 1 << r, (1 << r) - 2  # positions 0 and r; positions 1..r-1
    pairs, domain = [], []
    for x in range(m):
        window = [(x + 2 * i) % m for i in range(r + 1)]
        order = sorted(range(r + 1), key=window.__getitem__)
        # faces[s >> 1] is the face with inner mask s
        faces = [tuple([window[p] for p in order if s >> p & 1])
                 for s in range(ends, ends + inner + 1, 2)]
        domain += faces
        pairs.append((faces[inner - 2 >> 1], faces[inner >> 1]))  # drop x+2
        for s in range(0, inner - 2, 2):  # the rest, below those two masks
            gap = (inner & ~s).bit_length() - 1
            if s >> gap - 1 & 1:
                pairs.append((faces[s >> 1 ^ 1 << gap - 2], faces[s >> 1]))
    return MorseMatching(tuple(sorted(pairs)), frozenset(domain))


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
    # each face the matching names, as (vertex mask, mask of the facets
    # holding it); a face no facet holds (a label outside K, labels out of
    # K's order, no labels) is refused
    held, every, out = _held(K.facets, K.n_vertices), (1 << len(K.facets)) - 1, {}
    for labels in itertools.chain.from_iterable(matching.pairs):
        mask, hold, last = 0, every, -1
        for v in labels:
            i = K._index.get(v, -1)
            if i <= last:
                hold = 0
                break
            mask, hold, last = mask | 1 << i, hold & held[i], i
        if not (mask and hold):
            raise ValueError(f"matching mentions a face outside the complex: {labels}")
        out[labels] = (mask, hold)
    return out


def collapse(K, matching, limit=None):
    """Remove matched pairs whose lower face is free, in any order (the
    result is the same), until only unmatched faces remain.  Faces are vertex
    masks read against per-vertex facet masks, so only the matched faces and
    the boundaries of removed ones are visited; ``limit`` bounds the matched
    faces.  Raises :class:`ValueError` for a face outside K or named twice,
    and :class:`CollapseError` if the matching gets stuck.

    A return proves the matching acyclic (Forman 1998, "Morse theory for cell
    complexes"): a pair (tau, sigma) goes only when sigma is tau's one live
    cofacet, so sigma is maximal then.  On a gradient path tau0 < sigma0 >
    tau1 < sigma1 ..., sigma_i's facet tau_(i+1) is present when (tau_i,
    sigma_i) goes, and being matched it goes later; removal times rise along
    the path, so none closes.  Pairs are oriented by size here:
    ``verify_matching`` reports a reversed one.

    A lower face's link is the union of its holding facets' spans, less
    itself, formed once per holding set.  A present face lies in a maximal
    one: a surviving old facet, or a face that lost a cofacet and is not gone
    (a matched lower face still present keeps its partner).  So the new
    facets are the maximal faces of those kinds, read largest first."""
    named = list(itertools.chain.from_iterable(matching.pairs))
    cap = DEFAULT_FACE_LIMIT if limit is None else limit
    if len(named) > cap:
        raise ResourceLimitError("collapse matching", len(named), "faces", cap)
    faces = _matched(K, matching)
    if len(faces) < len(named):
        raise ValueError(f"matching names a face twice: {Counter(named).most_common(1)[0][0]}")
    spans = [sum(1 << v for v in f) for f in K.facets]
    up, live, unions = {}, {}, {}  # lower face -> its partner, its live cofacets
    for a, b in matching.pairs:
        (tau, hold), (sigma, _) = sorted((faces[a], faces[b]))  # a face's mask is the lesser
        if tau & sigma == tau and sigma.bit_count() == tau.bit_count() + 1:
            if hold not in unions:  # the spans of a holding set, united once
                unions[hold] = reduce(operator.or_, map(spans.__getitem__, _bits(hold)))
            up[tau], live[tau] = sigma, (unions[hold] & ~tau).bit_count()  # tau's link
    free = [tau for tau, n in live.items() if n == 1]
    gone, lost = set(), set()  # removed faces; other faces that lost a cofacet
    while free:
        tau = free.pop()
        for g in (up[tau], tau):
            gone.add(g)
            rest = g if g & (g - 1) else 0  # a vertex has no boundary
            while rest:
                low = rest & -rest
                rest ^= low
                sub = g ^ low
                if sub not in live:
                    lost.add(sub)
                else:
                    live[sub] -= 1
                    if live[sub] == 1:
                        free.append(sub)
    if len(gone) < len(faces):
        raise CollapseError(f"{len(faces) - len(gone)} matched faces could not be collapsed")
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
    # collapse_cycle_tower one stage at a time: (matching, report, complex after)
    _check_cycle(m, r)
    cap = DEFAULT_FACE_LIMIT if limit is None else limit
    current = neighborhood_complex(make_cycle(m), r)
    for rr in range(r, 1, -1):
        named = m << (rr - 1)  # a perfect matching on the radius difference
        if named > cap:
            raise ResourceLimitError(f"stage r={rr} matching", named, "faces", cap)
        matching = cycle_matching(m, rr)
        report = verify_matching(matching.domain, matching)  # collapse checks presence
        if not report.perfect:
            raise CollapseError(f"stage r={rr}: matching not perfect")
        current = collapse(current, matching, limit)  # certifies acyclic and present
        yield matching, {"radius": rr, "pairs": len(matching.pairs), "acyclic": True,
                         "verification": report.to_json_obj()}, current


def collapse_cycle_tower(m, r, limit=None):
    """Collapse the radius-r complex of the m-cycle down the radius tower to
    radius 1.  Each stage's matching must be perfect by ``verify_matching``,
    and its complete collapse proves it acyclic and present; only facets pass
    between stages.  ``limit`` bounds each stage's matched faces, checked
    before its matching is built.  Returns the final complex and one report
    dict per stage, each carrying its matching's verification report."""
    stages = []
    for _, stage, final in _tower(m, r, limit):
        stages.append(stage)
    return final, stages
