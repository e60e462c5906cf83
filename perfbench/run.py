#!/usr/bin/env python3
"""Build the release `tybec` binary and the benchmark, then run the benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <dse|oneshot|serve> --seed N --seconds S --trace <0|1>

Builds go to $CARGO_TARGET_DIR (default `.bench_build`); generated designs
go to `.bench_build/perfbench-work`. Build output goes to stderr. The last
line of stdout is the benchmark's JSON result. Exits non-zero, printing no
result, when either build or the run fails.
"""

import argparse
import os
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["dse", "oneshot", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "tytra-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1

    bench = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--tybec", os.path.join(target, "release", "tybec"),
        "--work", os.path.join(target, "perfbench-work"),
    ]
    return subprocess.run(bench, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
