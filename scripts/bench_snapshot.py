#!/usr/bin/env python3
"""Write a benchmark snapshot: exact per-layer counts and end-to-end medians.

Runs ``bench/run.py`` on every workload of ``BENCHMARK.json``, each in its
own process, and writes one JSON file with two sections:

* ``counts``: the per-layer metrics of one traced pass per workload that
  repeat exactly (calls, work counters, bits, bytes and their ratios;
  every self time and the tracing overhead are left out), with the
  traced run's failed items.  Two snapshots of one commit
  have identical count sections, so a later change can gate on them.
* ``end_to_end``: per workload and metric, the median and the quartiles
  of untraced runs, one per seed and each ``run_seconds`` long (from
  ``BENCHMARK.json``), with every run's value, the seeds and the length.
  These are timings: a trend, not a gate.

Every run starts with no bytecode cache: ``src/zgdual/__pycache__`` is
removed before each ``bench/run.py`` process, since ``setup_s`` times the
import of ``zgdual`` and reads lower when a cache is left over.

Usage, from anywhere in the checkout:

    python3 scripts/bench_snapshot.py BENCH_6.json

Only the standard library is used; the metrics and their units are the
ones ``bench/run.py`` prints (see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the traced pass's metrics that are timings, not counts
TIMED_UNITS = ("s",)
TIMED_NAMES = ("trace.items_per_s_ratio",)
# the traced pass is the same whatever the warm-up before it
TRACE_SECONDS = 2
TRACE_SEED = 1
SEEDS = (1, 2, 3)


def pycache(checkout: str) -> str:
    """The bytecode cache of ``checkout``'s zgdual sources."""
    return os.path.join(checkout, "src", "zgdual", "__pycache__")


def run_bench(workload: str, seed: int, seconds: float, trace: int, checkout: str = ROOT, caches=None) -> dict:
    """The result object (last stdout line) of one bench/run.py process in
    ``checkout``, started with every directory of ``caches`` removed
    (by default the checkout's own bytecode cache), with the report line's
    per-item breakdown (label -> median ms) added as ``per_item_ms``."""
    cmd = [sys.executable, os.path.join(checkout, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    for cache in caches if caches is not None else [pycache(checkout)]:
        shutil.rmtree(cache, ignore_errors=True)
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode:
        raise SystemExit(f"error: {' '.join(cmd[1:])} exited {done.returncode}:\n{done.stderr}")
    *_, report, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    result["per_item_ms"] = json.loads(report)["report"]["per_item_ms"]
    return result


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def counts(workload: str) -> dict:
    result = run_bench(workload, TRACE_SEED, TRACE_SECONDS, trace=1)
    exact = {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] not in TIMED_UNITS and name not in TIMED_NAMES
    }
    return {"seed": TRACE_SEED, "failed": result["failed"], "metrics": exact}


def end_to_end(workload: str, seconds: float) -> dict:
    runs = [run_bench(workload, seed, seconds, trace=0) for seed in SEEDS]
    summary = {}
    for name, metric in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = quartiles(values)
        summary[name] = {
            "unit": metric["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "runs": values,
        }
    return {
        "seeds": list(SEEDS),
        "seconds": seconds,
        "failed": [r["failed"] for r in runs],
        "attempted": [r["attempted"] for r in runs],
        "metrics": summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="the snapshot file to write, e.g. BENCH_6.json")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    snapshot = {
        "counts": {w: counts(w) for w in workloads},
        "end_to_end": {w: end_to_end(w, spec["run_seconds"]) for w in workloads},
    }
    with open(args.output, "w") as f:
        json.dump(snapshot, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
