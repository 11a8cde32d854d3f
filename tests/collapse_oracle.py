"""Reference oracle: discrete Morse collapse over the complex's full face list.

``collapse`` lists every face of the complex, counts the cofacets of each,
and removes free matched pairs in lexicographic order of their index tuples;
``cycle_matching`` builds each window's faces as sorted label tuples from
sets of chosen positions; ``verify_matching`` reports a matching's
duplicate, non-cofacet, missing and unmatched faces against a face list;
``verify_acyclic`` looks for a directed cycle in the modified Hasse digraph
of a matching; ``tower`` runs the radius tower of an odd cycle on these,
checking presence of the matched faces against the face list.  The library
reads only the matched faces, through per-vertex facet masks, builds its
matchings from position masks, checks each tower stage's report in place of
``verify_matching``, and lets a complete collapse certify acyclicity
instead; the tests compare the two.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass

from nbhd import (CollapseError, MorseMatching, SimplicialComplex, make_cycle,
                  neighborhood_complex)
from nbhd.complexes import sorted_labels


def cycle_matching(m, r):
    """The radius-shrinking matching on the faces of the radius-r complex of
    the m-cycle that span a full window ``{x, x+2, ..., x+2r}``: the face
    missing only ``x+2`` pairs with the full window; any other face pairs
    across membership of the predecessor of its largest missing entry."""
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
    faces, named = set(faces), list(itertools.chain.from_iterable(matching.pairs))
    count = Counter(named)
    dup = sorted(f for f, c in count.items() if c > 1)
    bad = [(t, s) for t, s in matching.pairs if len(s) != len(t) + 1 or not set(t) < set(s)]
    missing = sorted(f for f in named if f not in faces)
    critical = sorted(matching.domain - set(count))
    return MatchingReport(tuple(dup), tuple(bad), tuple(missing), tuple(critical))


@dataclass(frozen=True)
class AcyclicityReport:
    acyclic: bool
    cycle: tuple | None = None  # witness: faces along a directed cycle

    def __bool__(self):
        return self.acyclic


def verify_acyclic(matching):
    """Cycle detection on the modified Hasse digraph of the matched faces:
    matched edges point up, every other codimension-1 incidence points down."""
    nodes = set(itertools.chain.from_iterable(matching.pairs))
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
    partner = {}  # both ways; a face named twice keeps its last pair
    for tau, sigma in matching.pairs:
        partner[index[tau]], partner[index[sigma]] = index[sigma], index[tau]
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


def tower(m, r, limit=None):
    """The radius tower of the m-cycle from r down to 1 on the face-listing
    collapse: the final complex and one report dict per stage."""
    current = neighborhood_complex(make_cycle(m), r)
    stages = []
    for rr in range(r, 1, -1):
        matching = cycle_matching(m, rr)
        faces, index = _indexed(current, matching, limit)
        report = verify_matching([f for f, i in index.items() if i in faces], matching)
        if not (report.perfect and verify_acyclic(matching)):
            raise CollapseError(f"stage r={rr}: matching not perfect/acyclic")
        current = collapse(current, matching, limit)
        stages.append({"radius": rr, "pairs": len(matching.pairs), "acyclic": True,
                       "verification": report.to_json_obj()})
    return current, stages
