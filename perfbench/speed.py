"""The machine's speed at the moment, read off a fixed reference loop.

On a shared machine other tenants slow every program down, by up to a half
and in spells of seconds to minutes, so two runs of the same code a few
minutes apart can differ by more than any bound worth setting.  A spell
slows this pure-Python loop as much as it slows nbhd, so the loop's fastest
time over a short window, taken next to a measurement, tells how fast the
machine was during it.  A time ``t`` measured while the loop took ``r``
reads ``t * REFERENCE_S / r`` at reference speed: ``REFERENCE_S`` is the
loop's fastest time on a quiet 2-vCPU x86-64 VM, so on such a machine a
scaled time is close to the wall time.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.00085
WINDOW_S = 0.1


def _loop():
    s = 0
    for i in range(15_000):
        s += i * i % 7
    return s


def reference(window=WINDOW_S):
    """Fastest time of the reference loop over ``window`` seconds."""
    clock = time.perf_counter
    end = clock() + window
    best = float("inf")
    while True:
        t = clock()
        _loop()
        now = clock()
        best = min(best, now - t)
        if now >= end:
            return best


def scaled(seconds, ref):
    """``seconds`` measured while the loop took ``ref``, at reference speed."""
    return seconds * REFERENCE_S / ref
