#!/usr/bin/env python3
"""zgdual benchmark: closed-loop workloads with every verdict checked.

Usage, from the repository root:

    python3 bench/run.py --workload lens_sweep --seed 1 --seconds 35 --trace 0

Workloads: lens_sweep, assembly_search, nonabelian_cli (see bench/README.md).

One client in one process: the next item starts only after the previous
verdict has been checked.  A pass runs every item of the workload once;
passes repeat until ``--seconds`` have elapsed, and only whole passes count.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time, then exactly one traced pass, and prints the
per-layer metrics of that pass (so their counts repeat exactly) together
with the traced/untraced items-per-second ratio; spans are written to
``.bench_out/``.

Times are in reference seconds, corrected for the host's speed (see
REF_PROBE_S); the report also gives the raw wall-clock figures.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it is a report
with the per-item breakdown (label -> median ms).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 3
TAIL_PERCENTILE = 90
MAX_REPORTED_FAILURES = 20

# Host-speed correction.  Other tenants of the host change how fast this
# process runs by up to ~40%, in phases of well under a second to minutes,
# so raw wall times of identical work differ that much between runs.  A
# fixed pure-Python probe runs between every two items; each item's wall
# time is scaled by REF_PROBE_S / (mean time of the probes just before and
# just after it).  Timings are therefore in reference seconds: the probe
# takes REF_PROBE_S of them by definition, which is about its wall time in
# a tight loop on the baseline machine (2-core x86-64 container, Python
# 3.11) at a quiet moment.
REF_PROBE_S = 0.008


def _probe_kernel():
    """Integer matrix products of three shapes, like the library's own work.

    Small and medium dense products stress the interpreter; the 100x100
    tuple grid adds allocation and a working set near that of the largest
    expansions.  No zgdual code runs here.
    """
    acc = 0
    for size, reps, cols in ((20, 4, 20), (40, 1, 40), (100, 1, 3)):
        a = tuple(tuple((i * 7 + j * 3) % 11 - 5 for j in range(size)) for i in range(size))
        bt = tuple(zip(*a))[:cols]
        for _ in range(reps):
            c = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)
            acc += c[1][2]
    return acc


def probe():
    """Wall seconds taken by the fixed probe kernel right now."""
    t0 = perf_counter()
    _probe_kernel()
    return perf_counter() - t0


def to_reference(raw, probe_before, probe_after):
    """Wall seconds -> reference seconds, given the probes around them."""
    return raw * 2 * REF_PROBE_S / (probe_before + probe_after)


def scaled(fn):
    """Run fn(); return (its result, raw wall seconds, reference seconds)."""
    before = probe()
    t0 = perf_counter()
    result = fn()
    raw = perf_counter() - t0
    return result, raw, to_reference(raw, before, probe())


def _load_library():
    """Import zgdual from this checkout's sources, and the workload modules."""
    if not os.path.isfile(os.path.join(SRC, "zgdual", "__init__.py")):
        raise SystemExit(f"error: no zgdual sources at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import zgdual

    if os.path.dirname(os.path.dirname(os.path.abspath(zgdual.__file__))) != SRC:
        raise SystemExit(f"error: zgdual was imported from {zgdual.__file__}, not from {SRC}")
    import workloads

    return workloads


def nearest_rank(values, percentile):
    """The smallest sample with at least ``percentile``% of samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1]


def run_pass(items, failures, on_item=None):
    """Run every item once; per-item (raw wall seconds, reference seconds).

    A probe runs before the first item and after every item, outside the
    items' timed regions.
    """
    gc.collect()
    raw, probes = [], [probe()]
    for index, item in enumerate(items):
        if on_item is not None:
            on_item(index)
        t0 = perf_counter()
        try:
            body = item.run()
        except (Exception, SystemExit) as exc:  # a raising item is a failed item
            raw.append(perf_counter() - t0)
            failures.append((item.label, f"raised {type(exc).__name__}: {exc}"))
        else:
            raw.append(perf_counter() - t0)
            problems = item.check(body)
            if problems:
                failures.append((item.label, "; ".join(problems)))
        probes.append(probe())
    ref = [to_reference(r, probes[i], probes[i + 1]) for i, r in enumerate(raw)]
    return raw, ref


def run_passes(items, seconds, failures):
    """Whole passes until ``seconds`` have elapsed (at least one).

    Returns per-item lists of raw and of reference-second samples.
    """
    raw, ref = [[] for _ in items], [[] for _ in items]
    start = perf_counter()
    while True:
        pass_raw, pass_ref = run_pass(items, failures)
        for samples, value in zip(raw, pass_raw):
            samples.append(value)
        for samples, value in zip(ref, pass_ref):
            samples.append(value)
        if perf_counter() - start >= seconds:
            return raw, ref


def typical_pass(per_item):
    """Seconds of a typical pass: the sum of every item's median sample."""
    return sum(statistics.median(samples) for samples in per_item)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads, import_raw, import_ref = scaled(_load_library)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    setup = workloads.WORKLOADS[args.workload]

    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}")
    try:
        setup_raw, setup_ref = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            items, raw, ref = scaled(lambda: setup(args.seed, workdir))
            setup_raw.append(raw)
            setup_ref.append(ref)
        setup_s = {
            "ref_s": import_ref + statistics.median(setup_ref),
            "raw_s": import_raw + statistics.median(setup_raw),
            "import_raw_s": import_raw,
        }
        if args.trace:
            result, report = _traced(args, items)
        else:
            result, report = _untraced(args, items, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report.update(workload=args.workload, seed=args.seed, items_per_pass=len(items))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


def _result(failures, attempted, metrics):
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def _latency_summary(items, per_item):
    """items/s, p50 and tail (seconds) over whole passes of per-item samples."""
    samples = [v for s in per_item for v in s]
    tail = nearest_rank(samples, TAIL_PERCENTILE)
    return {
        "items_per_s": len(items) / typical_pass(per_item),
        "p50_s": statistics.median(samples),
        "tail_s": tail,
        "samples": len(samples),
        "tail_samples_beyond": sum(1 for v in samples if v > tail),
    }


def _untraced(args, items, setup_s):
    failures = []
    raw, ref = run_passes(items, args.seconds, failures)
    summary = _latency_summary(items, ref)
    metrics = {
        "items_per_s": _metric(summary["items_per_s"], "1/s"),
        "item_ms_p50": _metric(summary["p50_s"] * 1000, "ms"),
        "item_ms_tail": _metric(summary["tail_s"] * 1000, "ms"),
        "setup_s": _metric(setup_s["ref_s"], "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    report = {
        "passes": len(raw[0]),
        "samples": summary["samples"],
        "tail_percentile": TAIL_PERCENTILE,
        "tail_samples_beyond": summary["tail_samples_beyond"],
        "per_item_ms": {it.label: round(statistics.median(s) * 1000, 3) for it, s in zip(items, ref)},
        "raw_wall": dict(_latency_summary(items, raw), setup_s=setup_s["raw_s"], import_s=setup_s["import_raw_s"]),
        "failures": failures[:MAX_REPORTED_FAILURES],
    }
    return _result(failures, summary["samples"], metrics), report


def _traced(args, items):
    import spans

    failures = []
    _, ref = run_passes(items, args.seconds / 2, failures)
    untraced_pass = typical_pass(ref)

    tracer = spans.Tracer()
    tracer.install()
    try:
        _, traced = run_pass(items, failures, on_item=lambda i: setattr(tracer, "item", i))
    finally:
        tracer.remove()

    values = tracer.metrics()
    values[spans.OVERHEAD_METRIC] = untraced_pass / sum(traced)
    metrics = {name: _metric(values[name], unit) for name, unit in spans.metric_specs()}

    os.makedirs(OUT, exist_ok=True)
    span_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
    tracer.write_spans(span_path)
    report = {
        "untraced_passes": len(ref[0]),
        "spans": len(tracer.span_start),
        "spans_file": os.path.relpath(span_path, ROOT),
        "per_item_ms": {it.label: round(v * 1000, 3) for it, v in zip(items, traced)},
        "failures": failures[:MAX_REPORTED_FAILURES],
    }
    return _result(failures, len(items) * (len(ref[0]) + 1), metrics), report


if __name__ == "__main__":
    sys.exit(main())
