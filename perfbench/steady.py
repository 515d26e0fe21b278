#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep every run's output.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --out DIR [--seeds 1-10] [--workloads serve-warm,...]
        [--trace 0|1]

Writes `DIR/<workload>/seed-<n>.out` (the run's standard output) for each
workload and seed, seeds in the inner loop. Every run lasts `run_seconds`
from `BENCHMARK.json`, so any two sets are comparable. Compare or check two such
directories with `perfbench/compare.py`.
"""

import argparse
import json
import os
import subprocess
import sys


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    failures = 0
    for workload in args.workloads.split(","):
        os.makedirs(os.path.join(args.out, workload), exist_ok=True)
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            path = os.path.join(args.out, workload, f"seed-{seed}.out")
            with open(path, "w") as f:
                f.write(run.stdout)
            status = "ok" if run.returncode == 0 else f"exit {run.returncode}"
            print(f"{workload} seed {seed}: {status}", flush=True)
            failures += run.returncode != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
