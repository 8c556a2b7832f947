#!/usr/bin/env python3
"""Steadiness check: runs each workload once per seed and prints, for
every end-to-end metric, the spread of its values (distance between
the first and third quartile, as a share of the median) against the
metric's bound in BENCHMARK.json, plus the share of failed operations.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]

Run from the repository root. Exits 1 if a run is incorrect or any
spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    steady = True
    for workload in workloads:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            results.append(run_once(bench["command"], workload, seed, bench["run_seconds"]))
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in results[-1]["metrics"].items()), flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{workload}: correct={correct} failed {failed}/{attempted} = {failed / attempted:.6f}")
        steady &= correct
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = metric["bound"]
            verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            if spread > bound:
                steady = False
            print(f"  {metric['name']:<18} median {med:<14.6g} spread {spread:7.4f}  bound {bound:5.3f}  {verdict}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
