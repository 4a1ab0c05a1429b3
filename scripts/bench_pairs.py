#!/usr/bin/env python3
"""Compare two checkouts on the benchmark by alternating, paired runs.

For each workload, runs ``bench/run.py`` untraced in the parent checkout
and in the change's checkout, one pair per seed, alternating which side
goes first; every run is ``run_seconds`` of ``BENCHMARK.json`` long, the
length the benchmark itself uses.  Before every run both ``src/zgdual/__pycache__`` directories
are removed, since ``setup_s`` times the import of ``zgdual`` and reads
lower when a bytecode cache is left over.  Seeds run from ``--first-seed``
on; pick ones not used while writing the change.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, how many pairs the change won (by the metric's
``better``), and whether the gain rule holds: the change wins at least
nine pairs in ten, and its median is better than the parent's by more
than the parent's interquartile range.

Usage, from anywhere:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload assembly_search --pairs 10 --first-seed 501

Only the standard library is used; the runs go through
``bench_snapshot.run_bench``, next to this script.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from bench_snapshot import ROOT, pycache, quartiles, run_bench

# the gain rule: wins in at least WIN_SHARE of the pairs
WIN_SHARE = 0.9


def summarize(parent, change, better: str) -> dict:
    """The comparison of one metric over paired runs: parent[i] and
    change[i] are pair i.  ``better`` is "higher" or "lower"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent run and one change run per pair")
    sign = {"higher": 1, "lower": -1}[better]
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    return {
        "parent": {"q1": p1, "median": pm, "q3": p3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "pairs": len(parent),
        "wins": wins,
        "gain": gain,
        "parent_iqr": p3 - p1,
        "rule_holds": wins >= WIN_SHARE * len(parent) and gain > p3 - p1,
    }


def _row(name: str, s: dict) -> str:
    p, c = s["parent"], s["change"]
    return (f"  {name:<14} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
            f"  wins {s['wins']}/{s['pairs']}  gain {s['gain']:+.4g} (parent IQR {s['parent_iqr']:.4g})"
            f"  rule {'holds' if s['rule_holds'] else 'fails'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", action="append", help="a workload (repeatable); default: every one")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True, help="seed of the first pair; one seed per pair")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    caches = [pycache(d) for d in sides.values()]

    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_bench(workload, seed, seconds, 0, sides[side], caches))
        failed = {side: [r["failed"] for r in rs] for side, rs in runs.items()}
        print(f"{workload}: {args.pairs} pairs of {seconds:g} s, seeds {args.first_seed}-"
              f"{args.first_seed + args.pairs - 1}, failed items {failed}")
        for metric in spec["end_to_end"]:
            values = {side: [r["metrics"][metric["name"]]["value"] for r in rs] for side, rs in runs.items()}
            print(_row(metric["name"], summarize(values["parent"], values["change"], metric["better"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
