// Map/unmap fast-path throughput: the PR-2 rebuild measured end to end.
//
// One binary runs every cell of {workload} x {strict,deferred} x {1,2,4 CPUs}
// x {fast path on,off} and emits BENCH_map_unmap.json. "Fast path off" means
// FastPathConfig with the rcache and walk cache disabled — the pre-rebuild
// IOMMU behaviour (linear free-range scan, full radix walks) — so the speedup
// column is apples-to-apples within one build.
//
// Workloads:
//   steady_single  map+unmap one page, tiny live set. The rcache steady
//                  state: after warm-up every alloc is a magazine pop.
//   churn_frag     map+unmap a two-page buffer against a fragmented IOVA
//                  space: thousands of live single-page mappings interleaved
//                  with single-page holes (setup is untimed). The holes can
//                  never coalesce, so the legacy path's first-fit scan walks
//                  past every too-small hole on every alloc — O(live set) per
//                  op, the pathology that motivated Linux's rcache. Magazines
//                  serve the two-page class without touching the range tree.
//   sg4            dma_map_sg/dma_unmap_sg with 4 entries per call.
//
// Wall-clock timing, telemetry disabled (the hub allocates per event);
// rcache hit rates come from IovaAllocator::Stats instead. A separate
// *untimed* pass after each timed loop records per-op simulated-cycle costs
// into a telemetry Histogram — those quantiles are deterministic (pure
// SimClock arithmetic), so CI gates on them instead of wall-clock noise.
//
// Usage: bench_map_unmap [--quick] [--policy-trusted] [--out FILE]
//        [--trace-out FILE]
//
// --policy-trusted arms the spv::policy trust engine and promotes the bench
// device to kTrusted before the timed loops, so every map consults the
// DmaRouter and takes the zero-copy path anyway. The emitted cases carry the
// same (workload, mode, cpus, fast_path) keys as a plain run, so CI gates
// the run against the *same* committed baseline: if routing ever costs
// trusted devices sim cycles, the per-case means drift and the gate fails.
//
// --trace-out FILE additionally runs a short tracing-enabled steady_single
// workload and writes its Chrome trace-event JSON (Perfetto-loadable) to
// FILE — the CI bench-smoke artifact.
//
// The forensics probe runs the same deterministic op loop with the flight
// recorder disabled (the default every matrix cell uses) and enabled, and
// emits "forensics_sim_cycle_drift", the absolute difference between the two
// runs' per-op sim-cycle mean+p99. The recorder is a pure observer (it never
// advances SimClock), so the committed baseline pins this drift at exactly 0:
// the gate's zero-baseline rule means ANY drift fails CI, not just >25%.
// The enabled-mode wall-clock overhead is reported alongside (not gated —
// wall-clock varies by host): the median over 9 alternating disabled/enabled
// pairs, its min–max printed beside it, since one pair cannot carry a
// wall-clock claim.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/json.h"
#include "core/machine.h"
#include "policy/policy.h"
#include "telemetry/telemetry.h"
#include "trace/tracer.h"

using namespace spv;

namespace {

struct CaseConfig {
  std::string workload;
  iommu::InvalidationMode mode = iommu::InvalidationMode::kDeferred;
  uint32_t cpus = 1;
  bool fast = true;
  bool policy_trusted = false;  // engine on, bench device promoted to kTrusted
  uint64_t ops = 0;
};

struct CaseResult {
  CaseConfig config;
  double maps_per_sec = 0;
  double rcache_hit_rate = 0;
  uint64_t depot_refills = 0;
  uint64_t walk_cache_hits = 0;
  uint64_t capacity_drains = 0;
  uint64_t deadline_drains = 0;
  // Per-op simulated cycles (map+unmap pair, or one sg4 call), measured by an
  // untimed deterministic pass — see MeasureOpCycles.
  telemetry::Histogram::Summary op_cycles;
};

core::Machine MakeMachine(const CaseConfig& config) {
  core::MachineConfig mc;
  mc.seed = 2;
  mc.phys_pages = 32768;
  mc.iommu.mode = config.mode;
  mc.iommu.fast_path.num_cpus = config.cpus;
  mc.iommu.fast_path.enabled = config.fast;
  mc.policy.enabled = config.policy_trusted;
  return core::Machine{mc};
}

// Per-case workload state built before the timer starts.
struct WorkloadState {
  Kva buf;                        // the buffer the timed loop maps
  uint64_t buf_len = 2048;
  std::vector<Iova> pinned;       // live mappings that outlast the timed loop
  std::vector<dma::SgEntry> sg;   // sg4 only
};

// Untimed: build the IOVA-space shape the timed loop runs against.
WorkloadState Prepare(core::Machine& machine, DeviceId dev, const CaseConfig& config) {
  WorkloadState state;
  state.buf = *machine.slab().Kmalloc(2048, "bench_buf");

  if (config.workload == "churn_frag") {
    // Interleave live single-page mappings with single-page holes. The live
    // mappings pin the holes apart so coalescing can never merge them; the
    // timed loop then churns a two-page buffer that fits in none of them.
    constexpr size_t kFragPairs = 2048;
    std::vector<Iova> all;
    all.reserve(kFragPairs * 2);
    for (size_t i = 0; i < kFragPairs * 2; ++i) {
      machine.set_current_cpu(CpuId{static_cast<uint32_t>(i % config.cpus)});
      auto iova = machine.dma().MapSingle(dev, state.buf, 2048,
                                          dma::DmaDirection::kFromDevice, "bench_pin");
      if (!iova.ok()) std::abort();
      all.push_back(*iova);
    }
    for (size_t i = 0; i < all.size(); ++i) {
      if (i % 2 == 0) {
        state.pinned.push_back(all[i]);
        continue;
      }
      machine.set_current_cpu(CpuId{static_cast<uint32_t>(i % config.cpus)});
      if (!machine.dma()
               .UnmapSingle(dev, all[i], 2048, dma::DmaDirection::kFromDevice)
               .ok()) {
        std::abort();
      }
    }
    machine.iommu().FlushNow();  // drain parked holes into tree / magazines
    state.buf = *machine.slab().Kmalloc(8192, "bench_churn");  // spans 2 pages
    state.buf_len = 8192;
  } else if (config.workload == "sg4") {
    for (int i = 0; i < 4; ++i) {
      state.sg.push_back({*machine.slab().Kmalloc(1024, "bench_sg"), 1024});
    }
  }
  return state;
}

// Timed: returns the number of MapSingle-equivalent operations performed.
uint64_t RunWorkload(core::Machine& machine, DeviceId dev, const CaseConfig& config,
                     WorkloadState& state) {
  uint64_t maps = 0;
  if (config.workload == "sg4") {
    for (uint64_t op = 0; op < config.ops; ++op) {
      machine.set_current_cpu(CpuId{static_cast<uint32_t>(op % config.cpus)});
      auto iovas =
          machine.dma().MapSg(dev, state.sg, dma::DmaDirection::kToDevice, "bench_sg");
      if (!iovas.ok()) std::abort();
      if (!machine.dma()
               .UnmapSg(dev, *iovas, state.sg, dma::DmaDirection::kToDevice)
               .ok()) {
        std::abort();
      }
      maps += state.sg.size();
    }
    return maps;
  }
  // steady_single and churn_frag share the map+unmap loop; they differ only
  // in the buffer size and the IOVA-space shape Prepare left behind.
  for (uint64_t op = 0; op < config.ops; ++op) {
    machine.set_current_cpu(CpuId{static_cast<uint32_t>(op % config.cpus)});
    auto iova = machine.dma().MapSingle(dev, state.buf, state.buf_len,
                                        dma::DmaDirection::kFromDevice, "bench_loop");
    if (!iova.ok()) std::abort();
    if (!machine.dma()
             .UnmapSingle(dev, *iova, state.buf_len, dma::DmaDirection::kFromDevice)
             .ok()) {
      std::abort();
    }
    ++maps;
    // Let the deferred deadline timer fire occasionally, like a real host.
    if ((op & 0xfff) == 0) {
      machine.clock().AdvanceUs(100);
      machine.iommu().ProcessDeferredTimer();
    }
  }
  return maps;
}

// Untimed: repeats the workload's op shape recording the SimClock delta per
// op into `hist`. Purely deterministic (IOMMU costs advance the sim clock by
// fixed amounts), so the resulting quantiles are stable across hosts — the
// numbers the CI baseline gate compares.
void MeasureOpCycles(core::Machine& machine, DeviceId dev, const CaseConfig& config,
                     WorkloadState& state, telemetry::Histogram& hist, uint64_t ops) {
  for (uint64_t op = 0; op < ops; ++op) {
    machine.set_current_cpu(CpuId{static_cast<uint32_t>(op % config.cpus)});
    const uint64_t before = machine.clock().now();
    if (config.workload == "sg4") {
      auto iovas =
          machine.dma().MapSg(dev, state.sg, dma::DmaDirection::kToDevice, "bench_sg");
      if (!iovas.ok()) std::abort();
      if (!machine.dma()
               .UnmapSg(dev, *iovas, state.sg, dma::DmaDirection::kToDevice)
               .ok()) {
        std::abort();
      }
    } else {
      auto iova = machine.dma().MapSingle(dev, state.buf, state.buf_len,
                                          dma::DmaDirection::kFromDevice, "bench_loop");
      if (!iova.ok()) std::abort();
      if (!machine.dma()
               .UnmapSingle(dev, *iova, state.buf_len, dma::DmaDirection::kFromDevice)
               .ok()) {
        std::abort();
      }
    }
    hist.Record(machine.clock().now() - before);
  }
}

CaseResult RunCase(const CaseConfig& config) {
  core::Machine machine = MakeMachine(config);
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  if (config.policy_trusted) {
    if (!machine.policy()
             ->RegisterDevice(dev, policy::DeviceIdentity{"bench-dev", "bench"})
             .ok()) {
      std::abort();
    }
    while (machine.policy()->state(dev) != policy::TrustState::kTrusted) {
      if (!machine.policy()->Promote(dev, "bench").ok()) std::abort();
    }
  }
  WorkloadState state = Prepare(machine, dev, config);

  const auto start = std::chrono::steady_clock::now();
  const uint64_t maps = RunWorkload(machine, dev, config, state);
  const auto end = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start).count();

  telemetry::Histogram op_cycles;
  MeasureOpCycles(machine, dev, config, state, op_cycles, 2048);

  for (Iova iova : state.pinned) {
    (void)machine.dma().UnmapSingle(dev, iova, 2048, dma::DmaDirection::kFromDevice);
  }

  CaseResult result;
  result.config = config;
  result.maps_per_sec = seconds > 0 ? static_cast<double>(maps) / seconds : 0;
  const iommu::IovaAllocator* alloc = machine.iommu().iova_allocator(dev);
  if (alloc != nullptr) {
    const auto& stats = alloc->stats();
    const uint64_t lookups = stats.rcache_hits + stats.rcache_misses;
    result.rcache_hit_rate =
        lookups > 0 ? static_cast<double>(stats.rcache_hits) / static_cast<double>(lookups)
                    : 0;
    result.depot_refills = stats.depot_refills;
  }
  const iommu::IoPageTable* table = machine.iommu().page_table(dev);
  if (table != nullptr) {
    result.walk_cache_hits = table->walk_cache_stats().hits;
  }
  result.capacity_drains = machine.iommu().stats().flush_capacity_drains;
  result.deadline_drains = machine.iommu().stats().flush_deadline_drains;
  result.op_cycles = op_cycles.Summarize();
  return result;
}

void AppendCaseJson(json::Writer& w, const CaseResult& r) {
  w.BeginObject().Key("workload").String(r.config.workload);
  w.Key("mode").String(iommu::InvalidationModeName(r.config.mode));
  w.Key("cpus").Uint(r.config.cpus).Key("fast_path").Bool(r.config.fast);
  w.Key("ops").Uint(r.config.ops).Key("maps_per_sec").Double(r.maps_per_sec);
  w.Key("rcache_hit_rate").Double(r.rcache_hit_rate);
  w.Key("depot_refills").Uint(r.depot_refills).Key("walk_cache_hits").Uint(r.walk_cache_hits);
  w.Key("drain_capacity").Uint(r.capacity_drains);
  w.Key("drain_deadline").Uint(r.deadline_drains);
  w.Key("sim_cycles_per_op").BeginObject().Key("p50").Uint(r.op_cycles.p50);
  w.Key("p90").Uint(r.op_cycles.p90).Key("p99").Uint(r.op_cycles.p99);
  w.Key("mean").Double(r.op_cycles.mean).EndObject().EndObject();
}

// The forensics pure-observer probe: steady_single-shaped runs with the
// flight recorder off and on, same seed and op count, in alternating pairs.
// Sim-cycle quantiles must match exactly (recording never touches SimClock);
// the wall-clock ratio is the informational cost of the enabled recorder.
struct ForensicsProbe {
  static constexpr int kPairs = 9;

  telemetry::Histogram::Summary disabled_cycles;
  telemetry::Histogram::Summary enabled_cycles;
  double sim_cycle_drift = 0;      // |Δmean| + |Δp99|; baseline pins it at 0
  // Enabled vs disabled wall-clock, percent: the median pair and the range.
  double wall_overhead_pct = 0;
  double wall_overhead_min_pct = 0;
  double wall_overhead_max_pct = 0;
};

ForensicsProbe RunForensicsProbe(uint64_t ops) {
  auto run = [&](bool enabled, telemetry::Histogram& hist) -> double {
    core::MachineConfig mc;
    mc.seed = 2;
    mc.phys_pages = 32768;
    mc.forensics.enabled = enabled;
    core::Machine machine{mc};
    const DeviceId dev{1};
    machine.iommu().AttachDevice(dev);
    Kva buf = *machine.slab().Kmalloc(2048, "bench_forensics_buf");
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t op = 0; op < ops; ++op) {
      const uint64_t before = machine.clock().now();
      auto iova = machine.dma().MapSingle(dev, buf, 2048,
                                          dma::DmaDirection::kFromDevice,
                                          "bench_forensics");
      if (!iova.ok()) std::abort();
      if (!machine.dma()
               .UnmapSingle(dev, *iova, 2048, dma::DmaDirection::kFromDevice)
               .ok()) {
        std::abort();
      }
      hist.Record(machine.clock().now() - before);
      if ((op & 0xfff) == 0) {
        machine.clock().AdvanceUs(100);
        machine.iommu().ProcessDeferredTimer();
      }
    }
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - start).count();
  };

  ForensicsProbe probe;
  std::array<double, ForensicsProbe::kPairs> overheads{};
  for (double& overhead : overheads) {
    // Every run of the deterministic loop records the same sim cycles.
    telemetry::Histogram disabled_hist;
    telemetry::Histogram enabled_hist;
    const double disabled_secs = run(false, disabled_hist);
    const double enabled_secs = run(true, enabled_hist);
    probe.disabled_cycles = disabled_hist.Summarize();
    probe.enabled_cycles = enabled_hist.Summarize();
    overhead = disabled_secs > 0 ? (enabled_secs / disabled_secs - 1.0) * 100.0 : 0;
  }
  probe.sim_cycle_drift =
      std::abs(probe.enabled_cycles.mean - probe.disabled_cycles.mean) +
      std::abs(static_cast<double>(probe.enabled_cycles.p99) -
               static_cast<double>(probe.disabled_cycles.p99));
  std::sort(overheads.begin(), overheads.end());
  probe.wall_overhead_pct = overheads[overheads.size() / 2];
  probe.wall_overhead_min_pct = overheads.front();
  probe.wall_overhead_max_pct = overheads.back();
  return probe;
}

// --trace-out: a short tracing-enabled steady_single run; the tracer's
// Chrome trace-event JSON is the CI bench-smoke artifact. The tracer exports
// what the telemetry ring holds, so the ring keeps every event of the run.
int WriteChromeTrace(const std::string& path) {
  core::MachineConfig mc;
  mc.seed = 2;
  mc.phys_pages = 32768;
  mc.telemetry.enabled = true;
  mc.telemetry.ring_capacity = 1 << 16;
  mc.trace.enabled = true;
  core::Machine machine{mc};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(2048, "bench_trace_buf");
  for (uint64_t op = 0; op < 512; ++op) {
    auto iova = machine.dma().MapSingle(dev, buf, 2048, dma::DmaDirection::kFromDevice,
                                        "bench_trace");
    if (!iova.ok()) std::abort();
    if (!machine.dma()
             .UnmapSingle(dev, *iova, 2048, dma::DmaDirection::kFromDevice)
             .ok()) {
      std::abort();
    }
    if ((op & 0x3f) == 0) {
      machine.clock().AdvanceUs(100);
      machine.iommu().ProcessDeferredTimer();
    }
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out << machine.tracer()->ChromeTraceJson() << "\n";
  std::cout << "wrote " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool policy_trusted = false;
  std::string out_path = "BENCH_map_unmap.json";
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--policy-trusted") == 0) {
      policy_trusted = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      std::cerr << "usage: bench_map_unmap [--quick] [--policy-trusted] [--out FILE]"
                   " [--trace-out FILE]\n";
      return 2;
    }
  }
  if (policy_trusted) {
    std::cout << "policy engine armed; bench device promoted to kTrusted\n";
  }
  // The slow-path churn workload is quadratic-ish; keep its op count lower so
  // the full matrix finishes in seconds either way.
  const uint64_t steady_ops = quick ? 20000 : 400000;
  const uint64_t churn_ops = quick ? 2000 : 20000;
  const uint64_t sg_ops = quick ? 5000 : 100000;

  std::vector<CaseResult> results;
  for (const std::string workload : {"steady_single", "churn_frag", "sg4"}) {
    const uint64_t ops = workload == "steady_single" ? steady_ops
                         : workload == "churn_frag" ? churn_ops
                                                    : sg_ops;
    for (const auto mode :
         {iommu::InvalidationMode::kStrict, iommu::InvalidationMode::kDeferred}) {
      for (const uint32_t cpus : {1u, 2u, 4u}) {
        for (const bool fast : {true, false}) {
          CaseConfig config;
          config.workload = workload;
          config.mode = mode;
          config.cpus = cpus;
          config.fast = fast;
          config.policy_trusted = policy_trusted;
          config.ops = ops;
          results.push_back(RunCase(config));
          const CaseResult& r = results.back();
          std::cout << workload << " " << iommu::InvalidationModeName(mode) << " cpus="
                    << cpus << (fast ? " fast" : " slow") << ": "
                    << static_cast<uint64_t>(r.maps_per_sec) << " maps/s"
                    << " (rcache " << static_cast<int>(r.rcache_hit_rate * 100) << "%)\n";
        }
      }
    }
  }

  // Per-cell speedups: fast vs slow with everything else equal.
  std::vector<std::pair<std::string, double>> speedups;
  double headline = 0;
  std::string headline_cell;
  for (size_t i = 0; i + 1 < results.size(); i += 2) {
    const CaseResult& fast = results[i];
    const CaseResult& slow = results[i + 1];
    const double speedup =
        slow.maps_per_sec > 0 ? fast.maps_per_sec / slow.maps_per_sec : 0;
    std::ostringstream cell;
    cell << fast.config.workload << "/"
         << iommu::InvalidationModeName(fast.config.mode) << "/cpus"
         << fast.config.cpus;
    speedups.emplace_back(cell.str(), speedup);
    if (speedup > headline) {
      headline = speedup;
      headline_cell = cell.str();
    }
    std::cout << "  speedup " << cell.str() << ": " << speedup << "x\n";
  }

  // Acceptance: steady-state single-page hit rate on the default config,
  // plus the deterministic per-op p99 the CI baseline gate watches.
  double steady_hit_rate = 0;
  uint64_t steady_p99_cycles = 0;
  for (const CaseResult& r : results) {
    if (r.config.workload == "steady_single" && r.config.fast &&
        r.config.mode == iommu::InvalidationMode::kDeferred && r.config.cpus == 1) {
      steady_hit_rate = r.rcache_hit_rate;
      steady_p99_cycles = r.op_cycles.p99;
    }
  }

  // The pure-observer gate: flight recorder on vs off, same deterministic
  // loop. The baseline commits forensics_sim_cycle_drift = 0, so any sim
  // quantile the recorder moves fails CI exactly.
  const ForensicsProbe forensics = RunForensicsProbe(quick ? 20000 : 100000);
  std::cout << "forensics recorder: sim-cycle drift " << forensics.sim_cycle_drift
            << " (p99 " << forensics.disabled_cycles.p99 << " -> "
            << forensics.enabled_cycles.p99 << "), wall overhead "
            << forensics.wall_overhead_pct << "% (median of "
            << ForensicsProbe::kPairs << " pairs, range "
            << forensics.wall_overhead_min_pct << "–" << forensics.wall_overhead_max_pct
            << "%)\n";

  json::Writer w;
  w.BeginObject().Key("benchmark").String("map_unmap_fast_path").Key("quick").Bool(quick);
  w.Key("policy_trusted").Bool(policy_trusted).Key("headline_speedup").Double(headline);
  w.Key("headline_cell").String(headline_cell);
  w.Key("steady_state_rcache_hit_rate").Double(steady_hit_rate);
  w.Key("steady_p99_sim_cycles").Uint(steady_p99_cycles);
  w.Key("forensics_sim_cycle_drift").Double(forensics.sim_cycle_drift);
  w.Key("forensics").BeginObject();
  w.Key("disabled_p99_sim_cycles").Uint(forensics.disabled_cycles.p99);
  w.Key("disabled_mean_sim_cycles").Double(forensics.disabled_cycles.mean);
  w.Key("enabled_p99_sim_cycles").Uint(forensics.enabled_cycles.p99);
  w.Key("enabled_mean_sim_cycles").Double(forensics.enabled_cycles.mean);
  w.Key("enabled_wall_overhead_pct").Double(forensics.wall_overhead_pct);
  w.EndObject().Key("speedups").BeginArray();
  for (const auto& [cell, speedup] : speedups) {
    w.BeginObject().Key("cell").String(cell).Key("speedup").Double(speedup).EndObject();
  }
  w.EndArray().Key("cases").BeginArray();
  for (const CaseResult& r : results) {
    AppendCaseJson(w, r);
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << w.EndArray().EndObject().Take() << "\n";
  std::cout << "headline speedup: " << headline << "x (" << headline_cell << ")\n"
            << "steady-state rcache hit rate: " << steady_hit_rate * 100 << "%\n"
            << "steady-state p99 sim cycles/op: " << steady_p99_cycles << "\n"
            << "wrote " << out_path << "\n";
  if (!trace_out.empty()) {
    return WriteChromeTrace(trace_out);
  }
  return 0;
}
