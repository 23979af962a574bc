#!/usr/bin/env python3
"""CI gate: compare a bench run against its committed baseline.

Works for any of the repo's JSON benches (bench_map_unmap, bench_nvme_io,
bench_mq_throughput): only *simulated-cycle* metrics are compared — they are
deterministic for a given binary (seeded RNG, logical clock), so a drift
means the code's cost model changed, not that the CI runner was noisy.
Wall-clock fields (maps_per_sec etc.) are ignored.

Checked metrics:
  * every top-level numeric field present in both files (e.g.
    steady_p99_sim_cycles, rss_balance_min_share);
  * each case's sim_cycles_per_op.mean, keyed by
    (workload, mode, cpus, fast_path).

Tolerances: --tolerance sets the default relative drift. Scaling and
balance keys measure *ratios* of deterministic sim-cycle counts, so they get
a tighter built-in tolerance (--scaling-tolerance, default 0.10); any key can
be overridden exactly with --key-tolerance KEY=TOL (repeatable).

Usage:
  check_bench_baseline.py RESULT.json [--baseline bench/BENCH_map_unmap.baseline.json]
                          [--tolerance 0.25] [--scaling-tolerance 0.10]
                          [--key-tolerance KEY=TOL ...] [--update]

Exit status: 0 when every checked metric is within tolerance, 1 otherwise.
--update (alias: --update-baseline) rewrites the baseline from RESULT.json
instead of checking.
"""

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "bench" / "BENCH_map_unmap.baseline.json"

# Top-level keys that are *ratios of sim-cycle counts* (scaling factors,
# parallel efficiency, RSS balance shares). Far more stable than raw cycle
# counts, so they default to the tighter scaling tolerance.
SCALING_KEY_MARKERS = ("scaling", "efficiency", "balance")


def case_key(case):
    return (case.get("workload"), case.get("mode"), case.get("cpus"), case.get("fast_path"))


def warn(message):
    print(f"warning: {message}", file=sys.stderr)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def trimmed(result):
    """The deterministic subset worth committing as a baseline."""
    out = {
        "benchmark": result.get("benchmark", "unknown"),
        "note": "Deterministic sim-cycle baseline for the CI bench gate. "
        "Only simulated-cycle fields are recorded (wall-clock numbers vary by host). "
        "Regenerate with: <bench> --quick --out full.json, then tools/check_bench_baseline.py --update.",
    }
    for key, value in result.items():
        if is_number(value):
            out[key] = value
    out["cases"] = [
        {
            "workload": c.get("workload"),
            "mode": c.get("mode"),
            "cpus": c.get("cpus"),
            "fast_path": c.get("fast_path"),
            "sim_cycles_per_op": c.get("sim_cycles_per_op"),
        }
        for c in result.get("cases", [])
    ]
    return out


def within(new, old, tolerance):
    if old == 0:
        return new == 0
    return abs(new - old) <= tolerance * abs(old)


def tolerance_for(key, args, overrides):
    if key in overrides:
        return overrides[key]
    if any(marker in key for marker in SCALING_KEY_MARKERS):
        return args.scaling_tolerance
    return args.tolerance


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("result", type=Path, help="JSON written by a bench's --out")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="default allowed relative drift (0.25 = ±25%%)")
    parser.add_argument("--scaling-tolerance", type=float, default=0.10,
                        help="drift allowed for scaling/efficiency/balance keys "
                        "(default 0.10 = ±10%%)")
    parser.add_argument("--key-tolerance", action="append", default=[],
                        metavar="KEY=TOL",
                        help="exact per-key override, repeatable "
                        "(e.g. --key-tolerance rss_balance_min_share=0.02)")
    parser.add_argument("--update", "--update-baseline", action="store_true",
                        dest="update",
                        help="rewrite the baseline from RESULT instead of checking")
    args = parser.parse_args()

    overrides = {}
    for spec in args.key_tolerance:
        key, sep, tol = spec.partition("=")
        if not sep:
            parser.error(f"--key-tolerance needs KEY=TOL, got '{spec}'")
        overrides[key] = float(tol)

    result = json.loads(args.result.read_text())

    if args.update:
        args.baseline.write_text(json.dumps(trimmed(result), indent=2) + "\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline = json.loads(args.baseline.read_text())
    failures = []

    # Every top-level numeric metric present in both files. A key absent from
    # either side (an older baseline, or a result from a build predating the
    # metric) warns and skips rather than crashing the gate — new metrics
    # must be adoptable without a lockstep baseline update.
    keys = [k for k, v in baseline.items() if is_number(v)]
    for key in sorted(set(keys) | {k for k, v in result.items() if is_number(v)}):
        new, old = result.get(key), baseline.get(key)
        if not is_number(new) or not is_number(old):
            side = "result" if not is_number(new) else "baseline"
            warn(f"{key} missing from {side}; skipping")
            continue
        tol = tolerance_for(key, args, overrides)
        status = "ok" if within(new, old, tol) else "FAIL"
        print(f"{key}: {new} vs baseline {old} (tol ±{tol:.0%}) [{status}]")
        if status == "FAIL":
            failures.append(key)

    # Per-case mean sim cycles (p50/p99 are log2 bucket bounds — too coarse to
    # drift meaningfully within tolerance, so the mean is the sensitive metric).
    baseline_cases = {case_key(c): c for c in baseline.get("cases", [])}
    for case in result.get("cases", []):
        key = case_key(case)
        base = baseline_cases.get(key)
        if base is None:
            print(f"  {key}: new case (no baseline) [skip]")
            continue
        new_mean = case.get("sim_cycles_per_op", {}).get("mean")
        old_mean = base.get("sim_cycles_per_op", {}).get("mean")
        if new_mean is None or old_mean is None:
            warn(f"{key}: sim_cycles_per_op.mean missing; skipping this case")
            continue
        if not within(new_mean, old_mean, args.tolerance):
            print(f"  {key}: mean sim cycles {new_mean} vs {old_mean} [FAIL]")
            failures.append(str(key))

    if failures:
        print(f"\n{len(failures)} metric(s) outside tolerance: {failures}")
        print("If the drift is intentional, regenerate with --update and commit.")
        return 1
    print("all sim-cycle metrics within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
