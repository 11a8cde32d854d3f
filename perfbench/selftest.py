#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs each workload for one short pass, plain and traced, and checks that:
every declared metric is reported; every answer is right and none failed;
each per-layer metric reads nonzero on the workloads ``ladder.json`` maps it
to, and zero where it lists a ``zero_on``; and, without the nbhd sources,
``run.py`` exits non-zero without printing a result.  Prints every broken
expectation and exits 1 if there is any.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload, trace):
    proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace)])
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run.py --workload {workload} --trace {trace} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "ladder.json"), encoding="utf-8") as fh:
        ladder = json.load(fh)
    problems = []

    predicted = {m for p in ladder["predictions"] for m in p["metrics"]}
    declared = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    if predicted != declared:
        problems.append(f"predictions and per_layer differ: {sorted(predicted ^ declared)}")

    workloads = [w["name"] for w in spec["workloads"]]
    layers = {}
    for w in workloads:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            r = result(w, trace)
            names = [m["name"] for m in spec[kind]]
            if sorted(r["metrics"]) != sorted(names):
                problems.append(f"{w} trace={trace}: metrics {sorted(r['metrics'])}")
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                problems.append(f"{w} trace={trace}: correct={r['correct']} "
                                f"failed={r['failed']} attempted={r['attempted']}")
            if trace == 0:
                for name in names:
                    if not r["metrics"][name]["value"] > 0:
                        problems.append(f"{w}: {name} is not positive")
            else:
                layers[w] = {k: v["value"] for k, v in r["metrics"].items()}
        print(f"ran {w}", flush=True)

    for p in ladder["predictions"]:
        for m in p["metrics"]:
            for w in p["on"]:
                if not layers[w][m]:
                    problems.append(f"{m} reads zero on {w}, the workload it is mapped to")
    for m, ws in ladder["zero_on"].items():
        for w in ws:
            if layers[w][m]:
                problems.append(f"{m} reads {layers[w][m]} on {w}; expected zero")

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", workloads[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without the nbhd sources run.py must exit non-zero "
                            "and print no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for line in problems:
        print(f"FAIL {line}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
