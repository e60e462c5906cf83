#!/usr/bin/env python3
"""Run perfbench on two revisions in alternating pairs and compare them.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --base <rev> --change <rev> \
        --workload dse[,oneshot,serve] --seeds 101,102,103 \
        [--record BENCH_perfbench.jsonl]

Each revision is cloned into its own temporary directory, so both sides
run committed files only, each with its own build directory. For every
workload and seed the two sides run `python3 perfbench/run.py --workload
W --seed S --seconds N --trace 0` one after the other, the first side
alternating from seed to seed. N is BENCHMARK.json's `run_seconds`, the
benchmark's own run length, so every recorded line is comparable. Any
run whose result is not `"correct": true, "failed": 0` stops the tool
with exit status 1.

For each workload and end-to-end metric of BENCHMARK.json the tool
prints both sides' median, first and third quartile, in how many pairs
the change read better (ties count for neither side), and the change
median's relative change against the base median. A metric whose change
median is worse than the base median by more than the metric's `bound`
is flagged `WORSE`. A metric whose base runs spread wider than its
bound (interquartile range over median) is flagged `UNRESOLVED`, unless
every change run beats every base run: the pairs cannot tell such a
metric unchanged from changed. Each workload's table ends with the
worse and the unresolved metrics, so both can be read off the tables.
With `--record FILE` it appends one JSON line per workload: both
commits, the seeds and both sides' medians. Uses the Python standard
library only.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile


def git(*args, cwd=None):
    out = subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True)
    return out.stdout.strip()


def checkout(repo, rev, into):
    """A clone of `repo` at `rev` in directory `into`; returns the commit."""
    subprocess.run(["git", "clone", "--quiet", repo, into], check=True)
    git("checkout", "--quiet", rev, cwd=into)
    return git("rev-parse", "HEAD", cwd=into)


def run_once(tree, workload, seed, seconds):
    """One perfbench run in `tree`; returns its parsed result line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: run failed in {tree} (seed {seed}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit(f"bench_pairs: incorrect run in {tree} (seed {seed}): {lines[-1]}")
    return result


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3


def relative(base, change):
    """`change` against `base` as a fraction of `base` (infinite when
    `base` is 0 and `change` is not)."""
    if base == 0:
        return 0.0 if change == 0 else math.copysign(math.inf, change)
    return (change - base) / abs(base)


def compare(workload, seeds, seconds, commits, runs, metrics):
    """Print one workload's table; returns both sides' medians."""
    print(f"workload {workload}, {len(seeds)} pairs, {seconds} s per run")
    print(f"base   {commits['base']}\nchange {commits['change']}")
    print(
        f"{'metric':<14} {'base med [q1, q3]':>32} {'change med [q1, q3]':>32} {'won':>6}"
        f" {'change':>8}  bound"
    )
    medians = {"base": {}, "change": {}}
    flagged = []
    unresolved = []
    for m in metrics:
        name = m["name"]
        if not all(name in r for side in runs for r in runs[side]):
            continue
        vals = {side: [r[name]["value"] for r in runs[side]] for side in runs}
        better = (lambda c, b: c < b) if m["better"] == "lower" else (lambda c, b: c > b)
        won = sum(better(c, b) for b, c in zip(vals["base"], vals["change"]))
        cells = []
        for side in ("base", "change"):
            med, q1, q3 = quartiles(vals[side])
            medians[side][name] = med
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            if side == "base":
                base_spread = relative(med, med + (q3 - q1))
        base, change = medians["base"][name], medians["change"][name]
        rel = relative(base, change)
        worse = (rel if m["better"] == "lower" else -rel) > m["bound"]
        if worse:
            flagged.append(name)
        separated = all(better(c, b) for b in vals["base"] for c in vals["change"])
        unsure = base_spread > m["bound"] and not separated
        if unsure:
            unresolved.append(name)
        flags = ("  WORSE" if worse else "") + ("  UNRESOLVED" if unsure else "")
        print(
            f"{name:<14} {cells[0]:>32} {cells[1]:>32} {won:>3}/{len(seeds)}"
            f" {rel:>+8.1%}  {m['bound']:.0%}{flags}"
        )
    if flagged:
        print(f"worse than their bound on {workload}: {', '.join(flagged)}")
    else:
        print(f"no metric worse than its bound on {workload}")
    if unresolved:
        names = ", ".join(unresolved)
        print(f"unresolved on {workload} (base spread wider than the bound): {names}")
    else:
        print(f"no metric unresolved on {workload}")
    print()
    return medians


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="parent revision")
    ap.add_argument("--change", required=True, help="revision under test")
    ap.add_argument("--workload", required=True, help="comma-separated: dse, oneshot, serve")
    ap.add_argument("--seeds", required=True, help="comma-separated seed list")
    ap.add_argument("--record", help="append the medians as one JSON line per workload")
    args = ap.parse_args()
    workloads = args.workload.split(",")
    if not set(workloads) <= {"dse", "oneshot", "serve"}:
        sys.exit(f"bench_pairs: unknown workload in {args.workload}")
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 2:
        sys.exit("bench_pairs: give at least two seeds")

    repo = git("rev-parse", "--show-toplevel")
    with open(os.path.join(repo, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {}
        commits = {}
        for side, rev in (("base", args.base), ("change", args.change)):
            trees[side] = os.path.join(tmp, side)
            commits[side] = checkout(repo, rev, trees[side])
        for workload in workloads:
            runs = {"base": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    r = run_once(trees[side], workload, seed, seconds)
                    runs[side].append(r["metrics"])
                    p50 = r["metrics"].get("op_ms_p50", {}).get("value")
                    print(f"{workload} seed {seed} {side}: op_ms_p50 {p50}", file=sys.stderr)
            medians = compare(workload, seeds, seconds, commits, runs, metrics)
            if args.record:
                line = {
                    "workload": workload,
                    "base": commits["base"],
                    "change": commits["change"],
                    "seeds": seeds,
                    "seconds": seconds,
                    "base_medians": medians["base"],
                    "change_medians": medians["change"],
                }
                with open(args.record, "a") as f:
                    f.write(json.dumps(line) + "\n")


if __name__ == "__main__":
    main()
