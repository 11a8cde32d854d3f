"""One workload in its own process, so its peak memory and set-up time are
its own.

    python3 perfbench/worker.py --workload NAME --seed N [--passes P]
                                [--trace 0|1] [--setup-only]

Set-up (importing nbhd, generating the seeded inputs, writing the graph
files) ends at the ``ready`` time in the report, a ``time.monotonic()``
reading that the parent compares with the moment it started this process;
``ref_s`` is the reference loop's time (see ``speed.py``) right after it.
Then ``P`` passes run back to back, one operation after another, each with
the reference loop's time around it.  With ``--trace 1``, ``P`` plain passes
are followed by ``P`` traced ones.  The last line of standard output is a
JSON report.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_pass(ops, workloads):
    """Run every operation once; the pass's wall time, the time of each
    operation, failures and wrong answers."""
    gc.collect()
    op_s = []
    failed = []
    wrong = []
    clock = time.perf_counter
    start = clock()
    for label, op in ops:
        t = clock()
        try:
            op()
        except workloads.WrongAnswer as exc:
            wrong.append(str(exc))
        except workloads.FAILURES as exc:
            failed.append(f"{label}: {type(exc).__name__}: {exc}")
        op_s.append(clock() - t)
    return {"wall_s": clock() - start, "op_s": op_s, "failed": failed, "wrong": wrong}


def run_passes(ops, count, workloads, tracer=None):
    """``count`` passes, each with ``ref_s``, the mean of the reference
    loop's times just before and just after it; with a tracer, each pass
    also carries what the tracer recorded during it."""
    passes = []
    before = speed.reference()
    for _ in range(count):
        p = run_pass(ops, workloads)
        if tracer:
            p["layers"] = tracer.take()
        after = speed.reference()
        p["ref_s"] = (before + after) / 2
        before = after
        passes.append(p)
    return passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    scratch = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        report = {"ready": time.monotonic(), "labels": [label for label, _ in ops]}
        report["ref_s"] = speed.reference()
        if not args.setup_only:
            if args.trace:
                from tracer import Tracer

                report["plain"] = run_passes(ops, args.passes, workloads)
                tracer = Tracer()
                tracer.install()
                report["traced"] = run_passes(ops, args.passes, workloads, tracer)
            else:
                report["plain"] = run_passes(ops, args.passes, workloads)
            report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
