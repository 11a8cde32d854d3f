"""Per-layer self time and counts, recorded from outside the program.

``Tracer.install()`` wraps every public function of nbhd's modules, plus the
``SimplicialComplex.faces``, ``has_face_indices`` and ``from_faces`` methods.
A function imported by name into another module (``z2.hom_search``,
``cli.homology``, ``morse.neighborhood_complex``, ...) is a separate
reference to the same object, so every reference to a wrapped function in
every ``nbhd`` module is replaced, found by identity.  Modules come from
``sys.modules``: ``nbhd.homology`` as an attribute is the function.

A wrapper's span is its call; its self time is the span minus the spans of
the wrapped calls made inside it.  Counters are read from arguments and
results at the same boundaries.  The process is single-threaded, so one
stack of open spans suffices, and no layer waits on another.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = ("graphs", "complexes", "homology", "z2", "gf2", "morse", "cli")


class Tracer:
    """Self time, calls and counters per layer of one process."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = [0.0]  # time covered by child spans, per open span

    def take(self):
        """What was recorded since the last take, as plain dicts; then reset."""
        snap = {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return snap

    def wrap(self, name, fn, after=None, before=None):
        """``fn`` recorded as layer ``name``.  ``after(counts, args, result,
        state)`` reads its result, with ``state = before(args)`` taken ahead of
        the call."""
        stack = self._stack
        clock = time.perf_counter
        self_s, calls, counts = self.self_s, self.calls, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                self_s[name] += span - stack.pop()
                stack[-1] += span
                calls[name] += 1
            if after:
                after(counts, args, result, state)
            return result

        return traced

    def install(self):
        mods = {m: sys.modules["nbhd." + m] for m in MODULES}
        SC = mods["complexes"].SimplicialComplex
        if "_faces" not in SC.__slots__:
            raise RuntimeError("SimplicialComplex no longer caches faces in _faces; "
                               "update the faces counters in tracer.py")
        plain_faces = SC.faces

        def count_quotient(counts, args, cov, state):
            counts["z2.quotient.faces"] += sum(
                len(v) for v in plain_faces(cov.quotient).values())
            counts["z2.quotient.subdivisions"] += cov.subdivisions

        after = dict(AFTER, **{"z2.quotient_complex": count_quotient})
        replaced = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                layer = f"{short}.{attr}"
                replaced[fn] = self.wrap(layer, fn, after.get(layer))
        for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "nbhd"]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

        SC.faces = self.wrap("complexes.faces", plain_faces, _count_faces,
                             lambda args: args[0]._faces is None)
        SC.has_face_indices = self.wrap("complexes.has_face", SC.has_face_indices)
        from_faces = SC.__dict__["from_faces"].__func__

        def counted_from_faces(cls, faces):
            faces = list(faces)
            self.counts["complexes.from_faces.input_faces"] += len(faces)
            return from_faces(cls, faces)

        SC.from_faces = classmethod(self.wrap("complexes.from_faces", counted_from_faces))


def metric_value(snap, metric):
    """A per-layer metric from a snapshot: ``<layer>.self_s``,
    ``<layer>.calls`` or a counter name; zero when nothing was recorded."""
    layer, _, kind = metric.rpartition(".")
    if kind in ("self_s", "calls"):
        return snap[kind].get(layer, 0)
    return snap["counts"].get(metric, 0)


def _count_faces(counts, args, result, enumerated):
    if enumerated:
        counts["complexes.faces.enumerations"] += 1
        counts["complexes.faces.count"] += sum(len(v) for v in result.values())


def _count_search(counts, args, outcome, state):
    counts["graphs.hom_search.expansions"] += outcome.expansions
    counts["graphs.hom_search.budget_exceeded"] += outcome.status == "budget-exceeded"


def _count_poset(counts, args, P, state):
    counts["complexes.pair_poset.elements"] += P.n_elements


def _count_order_complex(counts, args, K, state):
    counts["complexes.order_complex.facets"] += len(K.facets)


def _count_boundary(counts, args, mats, state):
    counts["homology.boundary.nnz"] += sum(len(m.entries) for m in mats)


def _count_snf(counts, args, result, state):
    counts["homology.snf.rank_sum"] += result[1]


def _count_rank(counts, args, result, state):
    m, n_cols = args[0], args[1]
    counts["gf2.rank.bytes_computed"] += m.shape[0] * ((n_cols + 63) // 64) * 8


def _count_collapse(counts, args, result, state):
    counts["morse.collapse.pairs"] += len(args[1].pairs)


def _count_exit(counts, args, code, state):
    counts["cli.exit_nonzero"] += code != 0


# counters read after a layer's call returns, by layer
AFTER = {
    "graphs.hom_search": _count_search,
    "complexes.pair_poset": _count_poset,
    "complexes.order_complex": _count_order_complex,
    "homology.boundary_matrices": _count_boundary,
    "homology.smith_normal_form": _count_snf,
    "gf2.rank": _count_rank,
    "morse.collapse": _count_collapse,
    "cli.main": _count_exit,
}
