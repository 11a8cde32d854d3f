#!/usr/bin/env python3
"""nbhd benchmark: time to exact answers on one workload.

    python3 perfbench/run.py --workload {homology,height,verdict} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in its own process
(``worker.py``), one operation after the previous answer, so peak memory and
set-up time belong to that workload alone.  The plain run is split into
``SEGMENTS`` workers, each after ``PROBES_PER_SEGMENT`` workers that only set
up, and ``setup_s`` is the median of all their set-ups.  The workers share a
fixed number of passes, sized from ``PASS_S`` so that the run measures about
``S`` seconds: every commit then takes its fastest times over the same
number of samples, whether it is faster or slower.
Every answer is checked; a wrong one makes this command exit 1.

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``.  Their times are scaled to reference speed
(``speed.py``): each time is multiplied by ``REFERENCE_S`` over the
reference loop's time taken next to it, so that a spell of contention from
other tenants, which slows the loop as much as the program, cancels out.
Both timings start from each instance's fastest scaled time over the
passes: ``wall_s`` is their sum, one pass over the workload's instances,
and ``slowest_s`` their maximum, the longest instance.  Then come the
workers' ``peak_rss_mb`` and ``setup_s``, the median scaled set-up.  The
fastest time leaves out the short stalls a whole pass meets.  The summary
also prints the plain wall times: the sum of the fastest unscaled times and
the median and quartiles of whole passes.  With ``--trace 1`` the result
holds the per-layer metrics, unscaled: medians over traced passes, and
``trace.overhead_s``, the fastest traced pass minus the fastest plain pass
of the same process.

The human summary comes first; the last line of standard output is the JSON
result.  ``perfbench/ladder.json`` records why each workload was chosen,
which end-to-end metric each layer metric should move, and the rungs that
are out of reach today.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import speed
from tracer import metric_value

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEGMENTS = 3
PROBES_PER_SEGMENT = 3
# Typical seconds of one plain pass of each workload on a shared 2-vCPU
# x86-64 VM.
PASS_S = {"homology": 4.2, "height": 2.8, "verdict": 2.8}
# The run gives up after twice the time it should measure, plus this much
# for each worker's start-up, set-up and speed readings, plus a margin.
SETUP_ALLOWANCE_S = 2.0
MARGIN_S = 30.0


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def spawn(args, deadline):
    """Run the worker and return its JSON report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"worker {' '.join(args)} did not finish before the deadline", 3)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker {' '.join(args)} exited with {proc.returncode}", 3)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(name, values, unit):
    lo, hi = quartiles(values)
    return (f"  {name:<12} median {statistics.median(values):.4f} {unit}"
            f"  (quartiles {lo:.4f}-{hi:.4f}, {len(values)} passes)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "nbhd", "__init__.py")):
        fail(f"no nbhd sources under {os.path.join(ROOT, 'src')}", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # The plain run is split into segments, each in a fresh worker after a
    # few set-up-only probes, so that neither the timings nor the set-ups
    # all fall into one spell of contention from other tenants.
    segments = 1 if args.trace else SEGMENTS
    probes = 0 if args.trace else PROBES_PER_SEGMENT
    # with tracing, one worker runs this many plain passes and as many traced
    n_passes = max(segments, round(args.seconds / (2 if args.trace else 1)
                                   / PASS_S[args.workload]))
    deadline = (start + 2 * args.seconds + MARGIN_S
                + segments * (probes + 1) * SETUP_ALLOWANCE_S)
    setups = []
    reports = []
    for segment in range(segments):
        for probe in range(probes + 1):
            worker = ["--setup-only"]
            if probe == probes:
                share = n_passes // segments + (segment < n_passes % segments)
                worker = ["--passes", str(share), "--trace", str(args.trace)]
            ref = speed.reference()
            begun = time.monotonic()
            report = spawn(common + worker, deadline)
            setups.append(speed.scaled(report["ready"] - begun,
                                       (ref + report["ref_s"]) / 2))
        reports.append(report)

    labels = reports[0]["labels"]
    plain = [p for r in reports for p in r["plain"]]
    passes = plain + reports[0].get("traced", [])
    attempted = len(passes) * len(labels)
    failures = [f for p in passes for f in p["failed"]]
    wrong = [w for p in passes for w in p["wrong"]]
    plain_wall = [p["wall_s"] for p in plain]

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(labels)} operations, closed loop, one caller")
    if args.trace:
        traced = reports[0]["traced"]
        traced_wall = [p["wall_s"] for p in traced]
        values = {m: statistics.median_low(metric_value(p["layers"], m) for p in traced)
                  for m in units if m != "trace.overhead_s"}
        values["trace.overhead_s"] = min(traced_wall) - min(plain_wall)
        print(describe("plain pass", plain_wall, "s"))
        print(describe("traced pass", traced_wall, "s"))
        print("  self time by layer (median over traced passes):")
        layers = {k for p in traced for k in p["layers"]["self_s"]}
        self_s = {k: statistics.median(metric_value(p["layers"], k + ".self_s") for p in traced)
                  for k in layers}
        for k, v in sorted(self_s.items(), key=lambda kv: -kv[1]):
            if v >= 1e-4:
                print(f"    {k:<36} {v:.4f} s")
    else:
        fastest_op = [min(speed.scaled(t, p["ref_s"]) for t, p in zip(times, plain))
                      for times in zip(*(p["op_s"] for p in plain))]
        fastest_raw = [min(times) for times in zip(*(p["op_s"] for p in plain))]
        values = {
            "wall_s": sum(fastest_op),
            "slowest_s": max(fastest_op),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
            "setup_s": statistics.median(setups),
        }
        print(f"  {'wall_s':<12} {values['wall_s']:.4f} s at reference speed, "
              f"{sum(fastest_raw):.4f} s unscaled")
        print(describe("pass", plain_wall, "s"))
        refs = [p["ref_s"] / speed.REFERENCE_S for p in plain]
        print(describe("slowdown", refs, "x reference"))
        slowest = labels[fastest_op.index(values["slowest_s"])]
        print(f"  {'slowest_s':<12} {values['slowest_s']:.4f} s ({slowest})")
        print(f"  {'peak_rss_mb':<12} {values['peak_rss_mb']:.1f} MB")
        print(f"  {'setup_s':<12} median {values['setup_s']:.4f} s over {len(setups)} set-ups")
    print(f"  fail_ratio   {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    for line in failures[:10] + wrong[:10]:
        print(f"  ! {line}", file=sys.stderr)

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
