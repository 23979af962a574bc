#!/usr/bin/env python3
"""Checks the benchmark itself.

- Sim metrics and the sim digest are bit-identical across two runs of the
  same seed, and between the untraced and the traced run.
- storage_strict's p50 and p99 are exact order statistics, not the 2^k - 1
  bucket bounds telemetry::Histogram reports.
- The held-out seed passes every output check on every workload.
- Traced runs print every per-layer metric from BENCHMARK.json, their spans
  cover at least 90% of the timed phase on storage_strict and net_echo, and
  no skb leaks.

Usage (from the repository root): python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED, HELD_OUT_SEED = 1, 7
SIM_METRICS = ("sim_cycles_per_op_mean", "sim_cycles_per_op_p50", "sim_cycles_per_op_p99")
failures = []


def run(workload, seed, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("sim_digest "))
    metrics = {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}
    return digest, metrics


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        first_digest, first = run(workload, DEFAULT_SEED, 0)
        again_digest, again = run(workload, DEFAULT_SEED, 0)
        check(first_digest == again_digest,
              f"{workload}: same seed, same digest ({first_digest})")
        check(all(first[m] == again[m] for m in SIM_METRICS),
              f"{workload}: same seed, identical sim metrics")
        traced_digest, traced = run(workload, DEFAULT_SEED, 1)
        check(traced_digest == first_digest, f"{workload}: traced run keeps the digest")
        check(set(traced) == per_layer, f"{workload}: traced run prints every per-layer metric")
        if workload != "soak_chaos":
            check(traced["bench.span_coverage"] >= 0.9,
                  f"{workload}: span coverage {traced['bench.span_coverage']:.3f} >= 0.9")
            check(traced["net.skb_leak"] == 0, f"{workload}: no skb leaked")
        if workload == "storage_strict":
            for name in ("sim_cycles_per_op_p50", "sim_cycles_per_op_p99"):
                value = int(first[name])
                check(value == first[name] and (value + 1) & value != 0,
                      f"{workload}: {name} = {value} is not a log2 bucket bound")
        held_digest, _ = run(workload, HELD_OUT_SEED, 0)
        check(held_digest != first_digest,
              f"{workload}: held-out seed {HELD_OUT_SEED} passes with its own digest")
    if failures:
        sys.exit(f"{len(failures)} check(s) failed")
    print("all checks passed")


if __name__ == "__main__":
    main()
