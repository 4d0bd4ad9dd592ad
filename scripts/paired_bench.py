#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts: per-pair change and medians.

Usage: python scripts/paired_bench.py TREE_A TREE_B --workload W [--seeds 1-10]
       [--seconds 30] [--json PATH] [--dry-run]

For each seed, both trees run `perfbench/run.py --trace 0` with that seed,
one after the other; the tree that runs first alternates from seed to
seed, and every `__pycache__` directory in both trees is deleted before
every run.  The script prints, for each end-to-end metric, every pair's
change from A to B and the median of each tree.  It only reads what
`perfbench/run.py` prints; `--dry-run` prints the schedule and runs nothing.
Each run's line shows whether every answer matched the recorded ones, and
the run's peak RSS in MB and per attempted case in KB, so a peak that grows
with the case count shows; the script exits 1, after printing and writing
everything, if any run's answers did not match.

`--json PATH` also writes the workload's figures into PATH under the
workload's name, keeping the other workloads already there: each run's
seed, tree, attempted and failed counts and correctness, and per metric
its unit, both trees' values in pair order, both medians, the per-pair
changes and tree A's quartile spread.  Tree A is read as the parent.
With `--json`, each tree also makes one traced run (`--trace 1`) at seed 1,
and PATH gets both trees' `count`-unit layer metrics and the names of
those that differ, which the script prints with both values.

For each end-to-end metric that tree A's `BENCHMARK.json` lists, the
script also prints, and writes, how many pairs B won (ties count for
neither tree) and a no-regression verdict against the metric's bound:
`unresolved` when A's quartile spread exceeds the bound relative to A's
median and not every B run beats every A run, else `worse than bound`
when B's median is worse than A's by more than the bound, else `within
bound`.  It also prints, and writes, a gain verdict: `gain shown` when B
won at least 9 in 10 of the pairs and B's median is better than A's by
more than A's quartile spread, else `gain not shown`.  The verdicts do
not change the exit code.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text):
    """Seeds from "1-10", "3,5,8" or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def schedule(seeds):
    """(seed, first tree, second tree) per pair; "A" runs first on even pairs."""
    return [(seed, *(("A", "B") if n % 2 == 0 else ("B", "A"))) for n, seed in enumerate(seeds)]


def clear_pycache(tree):
    for path in sorted(tree.rglob("__pycache__")):
        shutil.rmtree(path, ignore_errors=True)


def run_once(tree, workload, seed, seconds, trace=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def change(a, b):
    return f"{(b - a) / a:+.1%}" if a else "n/a"


def spread(values):
    """The distance between the quartiles (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(a, b, better, bound):
    """(pairs B won, verdict) for one metric's A and B values in pair order."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    ma, mb = statistics.median(a), statistics.median(b)
    if spread(a) > bound * abs(ma) and not all(sign * (y - x) > 0 for x in a for y in b):
        return wins, "unresolved"
    return wins, "worse than bound" if sign * (ma - mb) > bound * abs(ma) else "within bound"


def gain(a, b, better, wins):
    """`gain shown` when B won (`wins`) at least 9 in 10 of the pairs and its
    median beats A's by more than A's quartile spread."""
    sign = 1 if better == "higher" else -1
    past = sign * (statistics.median(b) - statistics.median(a)) > spread(a)
    return "gain shown" if 10 * wins >= 9 * len(a) and past else "gain not shown"


def traced_counts(trees, workload, seconds):
    """Both trees' `count`-unit layer metrics of one traced seed-1 run, and
    the names that differ, in the order the runs report them."""
    counts, correct = {}, {}
    for side, tree in trees.items():
        for each in trees.values():
            clear_pycache(each)
        result = run_once(tree, workload, 1, seconds, trace=1)
        counts[side] = {name: m["value"] for name, m in result["metrics"].items()
                        if m["unit"] == "count"}
        correct[side] = result["correct"]
    a, b = counts["A"], counts["B"]
    differ = [name for name in dict.fromkeys([*a, *b]) if a.get(name) != b.get(name)]
    print(f"\ntraced seed 1: {len(differ)} of {len(a)} count readings differ")
    for name in differ:
        print(f"  {name} {a.get(name)} -> {b.get(name)}")
    return {"seed": 1, "A": a, "B": b, "differ": differ, "correct": correct}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--json", type=Path, metavar="PATH")
    parser.add_argument("--dry-run", action="store_true")
    args = parser.parse_args(argv)
    trees = {"A": args.tree_a.resolve(), "B": args.tree_b.resolve()}

    plan = schedule(args.seeds)
    for seed, first, second in plan:
        print(f"seed {seed}: {first} then {second}")
    if args.dry_run:
        return 0

    results = {"A": [], "B": []}
    runs = []
    for seed, *order in plan:
        for side in order:
            for tree in trees.values():
                clear_pycache(tree)
            result = run_once(trees[side], args.workload, seed, args.seconds)
            results[side].append(result)
            runs.append({"seed": seed, "tree": side, "attempted": result["attempted"],
                         "failed": result["failed"], "correct": result["correct"]})
            rss = result["metrics"]["peak_rss_mb"]["value"]
            print(f"seed {seed} {side}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']} "
                  f"peak_rss_mb {rss:.1f} ({1024 * rss / result['attempted']:.2f} KB"
                  f" per attempted case)", flush=True)

    print(f"\n{args.workload}: A = {trees['A']}, B = {trees['B']}")
    spec = trees["A"] / "BENCHMARK.json"  # a tree without one gets no verdicts
    listed = json.loads(spec.read_text())["end_to_end"] if spec.exists() else []
    bounds = {m["name"]: m for m in listed}
    metrics = {}
    for name, first in results["A"][0]["metrics"].items():
        a = [r["metrics"][name]["value"] for r in results["A"]]
        b = [r["metrics"][name]["value"] for r in results["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        pairs = list(map(change, a, b))
        print(f"{name:14s} median {ma:.6g} -> {mb:.6g} ({change(ma, mb)}),"
              f" A quartile spread {spread(a):.3g}")
        print(f"{'':14s} per pair {' '.join(pairs)}")
        metrics[name] = {"unit": first["unit"], "A": a, "B": b, "median_A": ma, "median_B": mb,
                         "change": change(ma, mb), "per_pair": pairs, "spread_A": spread(a)}
        if name in bounds:
            better, bound = bounds[name]["better"], bounds[name]["bound"]
            wins, says = verdict(a, b, better, bound)
            shown = gain(a, b, better, wins)
            print(f"{'':14s} B won {wins} of {len(a)} pairs; {says} ({better} is better,"
                  f" bound {bound:g})")
            print(f"{'':14s} {shown}")
            metrics[name].update(better=better, bound=bound, wins_B=wins, verdict=says, gain=shown)
    wrong = [f"seed {r['seed']} {r['tree']}" for r in runs if r["correct"] is not True]
    if args.json:
        traced = traced_counts(trees, args.workload, args.seconds)
        wrong += [f"seed 1 {side} traced" for side, ok in traced["correct"].items()
                  if ok is not True]
        data = json.loads(args.json.read_text()) if args.json.exists() else {}
        data[args.workload] = {"seeds": args.seeds, "seconds": args.seconds,
                               "runs": runs, "metrics": metrics, "traced": traced}
        args.json.write_text(json.dumps(data, indent=1) + "\n")
    if wrong:
        print(f"wrong answers in {len(wrong)} runs: {', '.join(wrong)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
