#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 15 --trace 0

Builds the real `served` daemon (workspace package `lowband-served`) and
the benchmark harness (`perfbench/harness`, a package of its own) in
release mode into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs
the harness. The harness prints a reproducibility header and, as its last
line, one JSON object with the run's result; see `perfbench/README.md`.
Run artifacts (span traces, daemon snapshots, scratch plan stores) go to
`.perfbench/`.

Exit codes: 0 success, 1 a wrong answer, 2 no workspace / build or
harness error, 3 the harness timed out.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("serve-warm", "serve-churn", "plan-lifecycle")
# Per-run ceiling on the harness itself (the build is not included).
HARNESS_TIMEOUT_S = 170
OUT_DIR = ".perfbench"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr)


def build(env):
    steps = (
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "lowband-served", "--bin", "served"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "perfbench/harness/Cargo.toml"],
    )
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isfile("crates/served/Cargo.toml")):
        log("no lowband workspace here; run from the root of a checkout")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(env):
        return 2

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench-harness"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--served", os.path.join(release, "served"),
        "--out", OUT_DIR,
    ]
    # Own process group, so a timeout also takes down any daemon the
    # harness started.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"harness exceeded {HARNESS_TIMEOUT_S} s and was killed")
        return 3
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
