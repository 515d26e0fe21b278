#!/usr/bin/env python3
"""Steadiness check and comparator for sets of benchmark runs.

Usage, from the root of a checkout:

    python3 perfbench/compare.py A_DIR            # one set: spread check
    python3 perfbench/compare.py A_DIR B_DIR      # two sets: A is the base

Each directory holds `<workload>/*.out` files, the standard output of one
run each (as `perfbench/steady.py` writes them); the last line of each is
the run's JSON result. For every workload x metric it prints the median
and quartiles (Python's `statistics.quantiles(values, n=4)`) of each set
and the spread, the quartile distance as a share of the median.

One set: `ok` when the spread is within the metric's bound from
`BENCHMARK.json`, `steady` when it is below a third of it. Every bounded
metric is checked, `setup_s` included.

Two sets: `agree` when B's median is not worse than A's by more than the
bound, `worse` when it is, and `unresolved` when either set's spread
exceeds the bound, unless every run of B reads better than every run of
A (then `better`). Metrics without a bound are listed without a verdict.

Exits 1 if any run was incorrect or any verdict is not ok / agree /
better.
"""

import argparse
import glob
import json
import os
import statistics
import sys

BENCHMARK = "BENCHMARK.json"


def load(directory):
    """{workload: {metric: [values]}} plus the count of incorrect runs."""
    sets, incorrect = {}, 0
    for path in sorted(glob.glob(os.path.join(directory, "*", "*.out"))):
        workload = os.path.basename(os.path.dirname(path))
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines or not lines[-1].startswith("{"):
            print(f"{path}: no result line", file=sys.stderr)
            incorrect += 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"{path}: run was incorrect", file=sys.stderr)
            incorrect += 1
        for name, m in result["metrics"].items():
            sets.setdefault(workload, {}).setdefault(name, []).append(m["value"])
    return sets, incorrect


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("other", nargs="?")
    args = ap.parse_args()

    with open(BENCHMARK) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    a, bad = load(args.base)
    b, bad_b = (load(args.other) if args.other else ({}, 0))
    bad += bad_b
    failed = bad > 0

    if args.other:
        print(f"{'workload':<15} {'metric':<31} {'A median':>12} {'A q1..q3':>25}"
              f" {'B median':>12} {'B q1..q3':>25} {'B vs A':>8} {'bound':>6}  verdict")
    else:
        print(f"{'workload':<15} {'metric':<31} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'n':>3} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(a) | set(b)):
        metrics = a.get(workload, {})
        for name in sorted(set(metrics) | set(b.get(workload, {}))):
            spec = specs.get(name, {})
            bound = spec.get("bound")
            va = metrics.get(name, [])
            if not va:
                continue
            med_a, q1_a, q3_a, spread_a = summary(va)
            bound_txt = f"{bound:.3f}" if bound is not None else "-"
            if not args.other:
                verdict = "-"
                if bound is not None:
                    if spread_a <= bound / 3:
                        verdict = "steady"
                    elif spread_a <= bound:
                        verdict = "ok"
                    else:
                        verdict = "TOO-NOISY"
                        failed = True
                print(f"{workload:<15} {name:<31} {med_a:>12.6g} {q1_a:>12.6g} {q3_a:>12.6g}"
                      f" {len(va):>3} {spread_a:>7.3f} {bound_txt:>6}  {verdict}")
                continue
            vb = b.get(workload, {}).get(name, [])
            if not vb:
                print(f"{workload:<15} {name:<31} missing in B")
                failed = True
                continue
            med_b, q1_b, q3_b, spread_b = summary(vb)
            lower = spec.get("better", "lower") == "lower"
            change = (med_b - med_a) / abs(med_a) if med_a else 0.0
            worse_by = change if lower else -change
            verdict = "-"
            if bound is not None:
                spread = max(spread_a, spread_b)
                all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
                if spread > bound:
                    verdict = "better" if all_better else "UNRESOLVED"
                elif worse_by > bound:
                    verdict = "WORSE"
                else:
                    verdict = "agree"
                failed |= verdict in ("UNRESOLVED", "WORSE")
            print(f"{workload:<15} {name:<31} {med_a:>12.6g} {f'{q1_a:.5g}..{q3_a:.5g}':>25}"
                  f" {med_b:>12.6g} {f'{q1_b:.5g}..{q3_b:.5g}':>25} {change:>+8.3f}"
                  f" {bound_txt:>6}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
