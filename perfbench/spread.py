#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each workload (one run at a time) and
prints, per metric, the median and the quartile spread (Q3 - Q1) / median,
with quartiles as statistics.quantiles(values, n=4) gives them. Each spread
should stay well below the metric's bound in BENCHMARK.json.

Usage (from the repository root):
    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,3] [--seconds S]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds.split(","):
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", seed, "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}:")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name, 0.0)
            if name != "setup_s":
                worst = max(worst, spread / bound if bound else 0.0)
            print(f"  {name:24s} median {median:<14.6g} spread {spread:8.4f}"
                  f"  bound {bound}  spread/bound {spread / bound if bound else 0:.2f}"
                  f"  values {' '.join(f'{v:.5g}' for v in vals)}")
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
