#!/usr/bin/env python3
"""Run the benchmark several times per workload and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads postmark,forensics,churn]
        [--runs 10] [--seed0 1] [--seconds 15] [--trace 0] [--values]

Each run takes another seed (seed0, seed0+1, ...). For every metric it
prints the median of the runs and the distance between the first and
third quartiles (statistics.quantiles(values, n=4)) as a share of the
median, and, for end-to-end metrics, that spread against the metric's
bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for wl in a.workloads.split(","):
        values = {}
        for i in range(a.runs):
            seed = a.seed0 + i
            out = subprocess.run(
                [sys.executable, os.path.join(here, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(a.seconds), "--trace", str(a.trace)],
                cwd=root, stdout=subprocess.PIPE, check=True,
            ).stdout.decode()
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{wl}: {a.runs} runs, seeds {a.seed0}..{a.seed0 + a.runs - 1}, trace {a.trace}")
        for name in sorted(values):
            vs = values[name]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            note = ""
            if name in bounds:
                note = f"bound {bounds[name]:.2f}"
                if name != "setup_s":
                    worst = max(worst, spread / bounds[name])
            print(f"  {name:42s} median {med:14.6g}  spread {spread:7.2%}  {note}")
            if a.values:
                print("      " + " ".join(f"{x:.5g}" for x in vs))
    if worst:
        print(f"\nlargest spread/bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
