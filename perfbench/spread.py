#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds 10]
                                [WORKLOAD ...]

Runs each workload --runs times untraced, each run with the next seed, and
prints per metric the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median next to a third of the metric's bound from
BENCHMARK.json. Runs are sequential; each one is a fresh process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("workloads", nargs="*", default=names)
    args = ap.parse_args()

    ok = True
    for workload in args.workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for metric in bench["end_to_end"]:
            v = values[metric["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            print(f"{workload:16s} {metric['name']:13s} median {med:.6g} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
                  f"(bound/3 {metric['bound'] / 3:.4f}) runs "
                  + " ".join(f"{x:.4g}" for x in v), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
