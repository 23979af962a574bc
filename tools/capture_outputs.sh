#!/usr/bin/env bash
# Captures every deterministic output of one build into a directory, one
# file per output, with every host wall-clock field removed. Two captures
# of the same source must match byte for byte, so
#
#   tools/capture_outputs.sh build /tmp/before    # parent commit's build
#   tools/capture_outputs.sh build /tmp/after     # the change's build
#   diff -r /tmp/before /tmp/after
#
# shows exactly which simulated behaviour a change moved.
#
# Usage: tools/capture_outputs.sh BUILD_DIR OUT_DIR
#
# Captured (a few seconds on a 4-core host):
#   * soak: --out, --posture-out (policy runs only; the CLI refuses it
#     otherwise) and --incident-out of each seed-42 soak configuration CI
#     runs, plus the seed-4 40M-cycle policy + hot-plug + degraded-drill
#     soak;
#   * stdout of every plain-main bench (each spv_add_bench target plus
#     bench_soak), `trace --demo`, `spade --json` over the corpus and
#     `dkasan --iterations 400`;
#   * --out of the JSON benches as CI runs them: bench_map_unmap --quick
#     (plain and --policy-trusted), bench_nvme_io --quick --policy-untrusted
#     and bench_mq_throughput --quick;
#   * the live tracer's Chrome trace export, bench_map_unmap --quick
#     --trace-out (bench_map_unmap.trace.json; sim cycles only). The tracer
#     exports what the telemetry ring holds, so a ring too small for the run
#     shows up here as a diff;
#   * the seed-4 drill soak's telemetry ring as CSV, --trace-out
#     (soak_seed4_drill.trace.csv). Its 16,384-slot ring wraps many times
#     over, and many rows carry sites longer than 15 bytes, so this file
#     covers the reuse of ring slots and their site buffers.
#
# Removed as host wall-clock: bench_dkasan_overhead's workload_wall_ms
# column, and the JSON keys maps_per_sec, ios_per_sec, speedup,
# headline_speedup, headline_cell and enabled_wall_overhead_pct (rates or
# ratios of host time, or picked by one).

set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$(cd "$1" && pwd)"
mkdir -p "$2"
out="$(cd "$2" && pwd)"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

# Runs a command; fails the capture unless it exits with the expected status
# (default 0).
run() {
  local expect=0
  if [[ $1 == --expect ]]; then
    expect=$2
    shift 2
  fi
  local status=0
  "$@" || status=$?
  if [[ $status -ne $expect ]]; then
    echo "capture_outputs: '$*' exited $status, expected $expect" >&2
    exit 1
  fi
}

# Drops every host wall-clock key from a bench's JSON document, keeping the
# compact one-line layout the simulator writes.
strip_nondeterministic() {
  python3 - "$1" "$2" <<'EOF'
import json, sys

DROPPED_KEYS = {
    "maps_per_sec", "ios_per_sec", "speedup", "headline_speedup", "headline_cell",
    "enabled_wall_overhead_pct",
}

def strip(value):
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items() if k not in DROPPED_KEYS}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value

with open(sys.argv[1]) as f:
    document = json.load(f)
with open(sys.argv[2], "w") as f:
    json.dump(strip(document), f, separators=(",", ":"))
    f.write("\n")
EOF
}

# ---- Soak documents -------------------------------------------------------------

soak() {
  local name=$1
  shift
  local args=(--out "$out/soak_$name.json" --incident-out "$out/soak_$name.incidents.json")
  if [[ " $* " == *" --policy "* ]]; then
    args+=(--posture-out "$out/soak_$name.posture.json")
  fi
  run "$build/tools/soak" "$@" "${args[@]}" > /dev/null
}

soak policy_hotplug --seed 42 --cycles 2000000 --policy --hostile-hotplug
soak deferred_4m --seed 42 --cycles 4000000
soak strict_no_recovery --seed 42 --cycles 1000000 --mode strict --no-recovery
soak storage_3m --seed 42 --cycles 3000000
soak degraded_drill --seed 42 --cycles 2000000 --policy --degraded-drill --degraded-floor 0.5
soak forensics_2m --seed 42 --cycles 2000000
soak seed4_drill --seed 4 --cycles 40000000 --policy --hostile-hotplug --degraded-drill \
  --degraded-floor 0.5 --trace-out "$out/soak_seed4_drill.trace.csv"

# ---- Tool stdout ----------------------------------------------------------------

run "$build/tools/trace" --demo > "$out/trace_demo.txt"
run "$build/tools/spade" --dir "$root/corpus" --json > "$out/spade.json"
# D-KASAN exits 2 when it reports findings; the Figure-3 run has 11.
run --expect 2 "$build/tools/dkasan" --iterations 400 > "$out/dkasan.txt"

# ---- Plain-main bench stdout ----------------------------------------------------

benches="$(sed -n 's/^spv_add_bench(\(.*\))$/\1/p' "$root/bench/CMakeLists.txt") bench_soak"
for bench in $benches; do
  run "$build/bench/$bench" > "$out/$bench.txt"
done
# The middle column is host wall-clock milliseconds per run.
awk 'NF == 3 && ($1 == "none" || $1 == "dkasan") { $2 = "-" } { print }' \
  "$out/bench_dkasan_overhead.txt" > "$scratch/dkasan_overhead.txt"
mv "$scratch/dkasan_overhead.txt" "$out/bench_dkasan_overhead.txt"

# ---- JSON benches -----------------------------------------------------------------

json_bench() {
  local name=$1
  shift
  # The benches write a trace file and default documents next to the working
  # directory; run them in scratch so nothing lands in the caller's tree.
  (cd "$scratch" && run "$@" --out "$scratch/$name.json" > /dev/null)
  strip_nondeterministic "$scratch/$name.json" "$out/$name.json"
}

json_bench bench_map_unmap "$build/bench/bench_map_unmap" --quick \
  --trace-out "$out/bench_map_unmap.trace.json"
json_bench bench_map_unmap_policy "$build/bench/bench_map_unmap" --quick --policy-trusted
json_bench bench_nvme_io "$build/bench/bench_nvme_io" --quick --policy-untrusted
json_bench bench_mq_throughput "$build/bench/bench_mq_throughput" --quick
