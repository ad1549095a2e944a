#!/usr/bin/env python3
"""Run one workload N times, one seed each, and print every metric's spread.

Run from the root of a checkout:

    python3 e2ebench/steady.py --workload tpch-agg --runs 10

For each end-to-end metric it prints the median over the runs, the first
and third quartiles (statistics.quantiles, n=4), the interquartile spread
as a share of the median, and the bound BENCHMARK.json sets for it. It also
prints the share of failed operations of each run, and whether every run
checked its answers correctly. The runs use seeds 1, 2, ..., runs and the
run_seconds of BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit("seed %d: exit %d\n%s" % (seed, out.returncode, out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    values, shares, correct = {}, [], True
    for seed in range(1, args.runs + 1):
        res = run(args.workload, seed, seconds)
        correct = correct and res["correct"]
        shares.append(res["failed"] / res["attempted"])
        print("seed %d: attempted %d failed %d correct %s" % (
            seed, res["attempted"], res["failed"], res["correct"]), flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("\n%-32s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-32s %12.4f %12.4f %12.4f %7.1f%% %6s" % (
            name, med, q1, q3, 100 * spread, "" if bound is None else "%g" % bound))
    print("\nfailed share per run: %s" % sorted(set(shares)))
    print("all answers correct: %s" % correct)


if __name__ == "__main__":
    main()
