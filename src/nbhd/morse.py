"""Discrete Morse matchings on the walk-neighborhood complexes of odd cycles:
construction of the radius-shrinking matching, well-formedness and acyclicity
checks, and collapse execution down to the radius-1 rim.

Faces are handled as sorted tuples of vertex labels throughout; ``collapse``
works on the complex's index tuples inside.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .complexes import SimplicialComplex, neighborhood_complex, sorted_labels
from .errors import CollapseError
from .graphs import make_cycle

__all__ = [
    "MorseMatching",
    "MatchingReport",
    "AcyclicityReport",
    "cycle_matching",
    "verify_matching",
    "verify_acyclic",
    "collapse",
    "collapse_cycle_tower",
]


@dataclass(frozen=True)
class MorseMatching:
    """Pairs ``(tau, sigma)`` with ``tau`` a codimension-1 face of ``sigma``;
    ``domain`` is the face set the matching is supposed to cover."""

    pairs: tuple
    domain: frozenset

    def partner(self):
        out = {}
        for tau, sigma in self.pairs:
            out[tau] = sigma
            out[sigma] = tau
        return out

    def to_json_obj(self):
        return [[list(tau), list(sigma)] for tau, sigma in self.pairs]


def cycle_matching(m, r):
    """Matching on the faces of the radius-r complex of the m-cycle that span
    a full diameter window (the faces lost when the radius shrinks by one).

    Such a face lives in the window ``{x, x+2, ..., x+2r}`` for a unique x and
    contains both endpoints.  The face missing only ``x+2`` pairs with the
    full window; any other face pairs across membership of the predecessor of
    its largest missing entry.  The result is a perfect matching per stratum.
    """
    if r < 2:
        raise ValueError("radius must be at least 2")
    if m % 2 == 0 or m <= 2 * r:
        raise ValueError("m must be odd and larger than 2r")
    pairs = []
    domain = set()
    for x in range(m):
        window = [(x + 2 * i) % m for i in range(r + 1)]
        full = tuple(sorted(window))
        special = tuple(sorted(window[:1] + window[2:]))  # drop x+2
        pairs.append((special, full))
        domain.add(full)
        domain.add(special)
        for size in range(r):
            for chosen in itertools.combinations(range(1, r), size):
                members = {0, r} | set(chosen)
                sigma = tuple(sorted(window[i] for i in members))
                if sigma == full or sigma == special:
                    continue
                domain.add(sigma)
                gap = max(i for i in range(1, r) if i not in members)
                if gap - 1 in members:
                    tau = tuple(sorted(set(sigma) - {window[gap - 1]}))
                    pairs.append((tau, sigma))
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
    faces = set(faces)
    count = {}
    bad = []
    missing = []
    for tau, sigma in matching.pairs:
        for f in (tau, sigma):
            count[f] = count.get(f, 0) + 1
            if f not in faces:
                missing.append(f)
        if len(sigma) != len(tau) + 1 or not set(tau) < set(sigma):
            bad.append((tau, sigma))
    dup = sorted(f for f, c in count.items() if c > 1)
    critical = sorted(matching.domain - set(count))
    return MatchingReport(tuple(dup), tuple(bad), tuple(sorted(missing)), tuple(critical))


@dataclass(frozen=True)
class AcyclicityReport:
    acyclic: bool
    cycle: tuple | None = None  # witness: faces along a directed cycle

    def __bool__(self):
        return self.acyclic


def verify_acyclic(matching):
    """Cycle detection on the modified Hasse digraph of the matched faces:
    matched edges point up, every other codimension-1 incidence points down."""
    partner = matching.partner()
    nodes = set(partner)
    succ = {f: [] for f in nodes}
    for tau, sigma in matching.pairs:
        succ[tau].append(sigma)
        for i in range(len(sigma)):
            sub = sigma[:i] + sigma[i + 1:]
            if sub in nodes and sub != tau:
                succ[sigma].append(sub)
    for f in succ:
        succ[f].sort()
    color = dict.fromkeys(nodes, 0)  # 0 new, 1 active, 2 done
    for start in sorted(nodes):
        if color[start]:
            continue
        color[start] = 1
        stack = [(start, iter(succ[start]))]
        path = [start]
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[node] = 2
                stack.pop()
                path.pop()
                continue
            if color[nxt] == 1:
                i = path.index(nxt)
                return AcyclicityReport(False, tuple(path[i:] + [nxt]))
            if color[nxt] == 0:
                color[nxt] = 1
                stack.append((nxt, iter(succ[nxt])))
                path.append(nxt)
    return AcyclicityReport(True)


def _indexed(K, matching, limit):
    # K's index faces, and each matched label face as an index tuple (a label
    # outside K maps to -1, so its tuple is no face)
    faces = {f for lst in K.faces(limit).values() for f in lst}
    index = {f: tuple([K._index.get(v, -1) for v in f])
             for pair in matching.pairs for f in pair}
    return faces, index


def collapse(K, matching, limit=None):
    """Run elementary collapses: repeatedly remove a matched pair whose lower
    face is free, in lexicographic face order, until only unmatched faces
    remain.  Raises :class:`CollapseError` if the matching gets stuck."""
    faces, index = _indexed(K, matching, limit)
    for labels, f in index.items():
        if f not in faces:
            raise ValueError(f"matching mentions a face outside the complex: {labels}")
    partner = {index[f]: index[g] for f, g in matching.partner().items()}
    up = {f: s for f, s in partner.items() if len(s) == len(f) + 1 and set(f) < set(s)}
    cofacets = dict.fromkeys(faces, 0)  # live cofacets of each face
    for f in faces:
        if len(f) >= 2:
            for i in range(len(f)):
                cofacets[f[:i] + f[i + 1:]] += 1

    def free_tau(f):
        return cofacets[f] == 1 and up.get(f) in faces

    heap = [f for f in partner if free_tau(f)]
    heapq.heapify(heap)
    while heap:
        tau = heapq.heappop(heap)
        if tau not in faces or not free_tau(tau):
            continue
        for g in (up[tau], tau):
            faces.discard(g)
            if len(g) >= 2:
                for i in range(len(g)):
                    sub = g[:i] + g[i + 1:]
                    cofacets[sub] -= 1
                    if sub in faces and free_tau(sub):
                        heapq.heappush(heap, sub)
    leftovers = sum(1 for f in partner if f in faces)
    if leftovers:
        raise CollapseError(f"{leftovers} matched faces could not be collapsed")
    facets = [f for f in faces if not cofacets[f]]
    labels = K.vertices
    vertices = sorted_labels({labels[i] for f in facets for i in f})
    new = {v: i for i, v in enumerate(vertices)}
    return SimplicialComplex._from_indexed(
        vertices, (sorted(new[labels[i]] for i in f) for f in facets))


def collapse_cycle_tower(m, r, limit=None):
    """Collapse the radius-r complex of the m-cycle down the radius tower to
    radius 1.  Each stage's matching is verified (perfect and acyclic) before
    collapsing.  Returns the final complex and one report dict per stage,
    each carrying its matching's verification report."""
    current = neighborhood_complex(make_cycle(m), r)
    stages = []
    for rr in range(r, 1, -1):
        matching = cycle_matching(m, rr)
        # the matched faces present in the complex stand in for all its faces:
        # verify_matching only tests the matched ones for membership
        faces, index = _indexed(current, matching, limit)
        report = verify_matching([f for f, i in index.items() if i in faces], matching)
        acyclic = verify_acyclic(matching)
        if not (report.perfect and acyclic):
            raise CollapseError(f"stage r={rr}: matching not perfect/acyclic")
        current = collapse(current, matching, limit)
        stages.append({"radius": rr, "pairs": len(matching.pairs), "acyclic": True,
                       "verification": report.to_json_obj()})
    return current, stages
