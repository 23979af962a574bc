// NVMe block-IO cost: the storage stack's submit -> fetch -> transfer ->
// complete path, measured end to end through the DMA fast path.
//
// One binary runs every cell of {workload} x {strict,deferred} x {fast path
// on,off} and emits BENCH_nvme_io.json in the same shape as
// BENCH_map_unmap.json, so tools/check_bench_baseline.py gates it unchanged
// (--baseline bench/BENCH_nvme_io.baseline.json).
//
// Workloads:
//   read_1blk     one-block read: PRP1 only, the minimal command.
//   write_8blk    eight-block write: PRP2 as a second page pointer.
//   rw_chained    144-block write+read pair: 18 pages, a chained PRP list
//                 (two 128-byte frag segments mapped and torn down per
//                 command) — the heaviest per-command DMA churn.
//
// Wall-clock throughput is reported for curiosity only; CI compares the
// *simulated-cycle* quantiles, which are deterministic (seeded RNG, logical
// clock): a drift means the storage path's cost model changed.
//
// --policy-untrusted adds a degraded-mode sweep: the same workloads with the
// trust policy enabled and the controller untrusted, so every queue lives on
// persistent sync'd bounce rings and every payload is copied through the
// pool. Those cases are labelled "<workload>_untrusted" and the headline
// ratio untrusted_sync_slowdown (untrusted mean / direct deferred-fast mean
// for read_1blk) is emitted for the baseline gate.
//
// Usage: bench_nvme_io [--quick] [--policy-untrusted] [--out FILE]

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/json.h"
#include "core/machine.h"
#include "device/device_port.h"
#include "nvme/nvme_controller.h"
#include "nvme/nvme_driver.h"
#include "telemetry/telemetry.h"

using namespace spv;

namespace {

struct CaseConfig {
  std::string workload;
  iommu::InvalidationMode mode = iommu::InvalidationMode::kDeferred;
  uint32_t cpus = 1;  // the driver pins itself to CPU 0; kept for schema parity
  bool fast = true;
  // Trust policy on + controller untrusted: queues on persistent sync'd
  // bounce rings, payloads copied through the pool every command.
  bool untrusted = false;
  uint64_t ops = 0;

  // Baseline case key: untrusted cases get their own workload label so the
  // gate never conflates them with the direct-path cell of the same shape.
  std::string Label() const {
    return untrusted ? workload + "_untrusted" : workload;
  }
};

struct CaseResult {
  CaseConfig config;
  double ios_per_sec = 0;
  uint64_t prp_segments_built = 0;
  telemetry::Histogram::Summary op_cycles;
};

// One IO round for the case's workload; aborts on any driver error (the
// bench runs an honest controller — nothing here may fail).
void OneOp(core::Machine& machine, nvme::NvmeDriver& driver,
           const CaseConfig& config, Kva buf) {
  if (config.workload == "read_1blk") {
    if (!driver.ReadBlocks(0, 1, buf).ok()) std::abort();
  } else if (config.workload == "write_8blk") {
    if (!driver.WriteBlocks(8, 8, buf).ok()) std::abort();
  } else {  // rw_chained
    if (!driver.WriteBlocks(0, 144, buf).ok()) std::abort();
    if (!driver.ReadBlocks(0, 144, buf).ok()) std::abort();
  }
  // Let the deferred deadline timer fire occasionally, like a real host.
  machine.clock().AdvanceUs(2);
  machine.iommu().ProcessDeferredTimer();
}

CaseResult RunCase(const CaseConfig& config) {
  core::MachineConfig mc;
  mc.seed = 2;
  mc.phys_pages = 32768;
  mc.iommu.mode = config.mode;
  if (config.untrusted) {
    // No quirks: a freshly registered controller starts untrusted, so Init
    // brings the queues up in bounce_sync mode from the first doorbell.
    // Size the pool like a swiotlb sized for the workload: rw_chained moves
    // 18 payload pages per command on top of the 4 persistent ring pages,
    // which overflows the 16-page default.
    mc.policy.enabled = true;
    mc.policy.bounce_pages = 64;
  }
  mc.iommu.fast_path.enabled = config.fast;
  core::Machine machine{mc};
  nvme::NvmeDriver& driver = machine.AddNvmeDriver({});
  nvme::NvmeController controller{
      device::DevicePort{machine.iommu(), driver.device_id()}};
  driver.AttachDevice(&controller);
  if (!driver.Init().ok()) std::abort();
  if (config.untrusted &&
      driver.service_mode() != dma::ServiceMode::kBounceSync) {
    std::abort();  // the whole point of the case is the sync-ring path
  }

  const uint64_t buf_bytes =
      config.workload == "rw_chained" ? 144 * nvme::kLbaSize : 8 * nvme::kLbaSize;
  Kva buf = *machine.slab().Kmalloc(buf_bytes, "bench_nvme_buf");

  // Warm-up: magazine caches, frag page, controller queues.
  for (int i = 0; i < 8; ++i) {
    OneOp(machine, driver, config, buf);
  }

  // Timed wall-clock pass.
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t op = 0; op < config.ops; ++op) {
    OneOp(machine, driver, config, buf);
  }
  const auto end = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start).count();

  // Untimed deterministic pass: SimClock delta per IO round.
  telemetry::Histogram op_cycles;
  for (uint64_t op = 0; op < 256; ++op) {
    const uint64_t before = machine.clock().now();
    OneOp(machine, driver, config, buf);
    op_cycles.Record(machine.clock().now() - before);
  }

  CaseResult result;
  result.config = config;
  result.ios_per_sec =
      seconds > 0 ? static_cast<double>(config.ops) / seconds : 0;
  result.prp_segments_built = driver.prp_segments_built();
  result.op_cycles = op_cycles.Summarize();

  if (!machine.slab().Kfree(buf).ok()) std::abort();
  if (!driver.Shutdown().ok()) std::abort();
  machine.iommu().FlushNow();
  if (!machine.CheckInvariants().ok()) std::abort();
  return result;
}

void AppendCaseJson(json::Writer& w, const CaseResult& r) {
  w.BeginObject().Key("workload").String(r.config.Label());
  w.Key("mode").String(iommu::InvalidationModeName(r.config.mode));
  w.Key("cpus").Uint(r.config.cpus).Key("fast_path").Bool(r.config.fast);
  w.Key("ops").Uint(r.config.ops).Key("ios_per_sec").Double(r.ios_per_sec);
  w.Key("prp_segments_built").Uint(r.prp_segments_built);
  w.Key("sim_cycles_per_op").BeginObject().Key("p50").Uint(r.op_cycles.p50);
  w.Key("p90").Uint(r.op_cycles.p90).Key("p99").Uint(r.op_cycles.p99);
  w.Key("mean").Double(r.op_cycles.mean).EndObject().EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool policy_untrusted = false;
  std::string out_path = "BENCH_nvme_io.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--policy-untrusted") == 0) {
      policy_untrusted = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr
          << "usage: bench_nvme_io [--quick] [--policy-untrusted] [--out FILE]\n";
      return 2;
    }
  }
  const uint64_t light_ops = quick ? 500 : 5000;
  const uint64_t heavy_ops = quick ? 200 : 2000;

  std::vector<CaseResult> results;
  for (const std::string workload : {"read_1blk", "write_8blk", "rw_chained"}) {
    for (const auto mode :
         {iommu::InvalidationMode::kStrict, iommu::InvalidationMode::kDeferred}) {
      for (const bool fast : {true, false}) {
        CaseConfig config;
        config.workload = workload;
        config.mode = mode;
        config.fast = fast;
        config.ops = workload == "rw_chained" ? heavy_ops : light_ops;
        results.push_back(RunCase(config));
        const CaseResult& r = results.back();
        std::cout << workload << " " << iommu::InvalidationModeName(mode)
                  << (fast ? " fast" : " slow") << ": "
                  << static_cast<uint64_t>(r.ios_per_sec) << " ios/s, p99 "
                  << r.op_cycles.p99 << " sim cycles\n";
      }
    }
  }

  // Degraded-mode sweep: same workloads, untrusted controller on sync'd
  // bounce rings. Deferred + fast path only — the bounce pool routes around
  // the IOTLB, so the strict/slow axes measure nothing new here.
  if (policy_untrusted) {
    for (const std::string workload : {"read_1blk", "write_8blk", "rw_chained"}) {
      CaseConfig config;
      config.workload = workload;
      config.mode = iommu::InvalidationMode::kDeferred;
      config.untrusted = true;
      config.ops = workload == "rw_chained" ? heavy_ops : light_ops;
      results.push_back(RunCase(config));
      const CaseResult& r = results.back();
      std::cout << r.config.Label() << " deferred fast: "
                << static_cast<uint64_t>(r.ios_per_sec) << " ios/s, p99 "
                << r.op_cycles.p99 << " sim cycles\n";
    }
  }

  // Headlines for the CI gate: the minimal command on the default config,
  // and (with --policy-untrusted) the sync-ring slowdown ratio against it.
  uint64_t steady_p99_cycles = 0;
  double direct_read_mean = 0;
  double untrusted_read_mean = 0;
  for (const CaseResult& r : results) {
    if (r.config.workload != "read_1blk" || !r.config.fast ||
        r.config.mode != iommu::InvalidationMode::kDeferred) {
      continue;
    }
    if (r.config.untrusted) {
      untrusted_read_mean = r.op_cycles.mean;
    } else {
      steady_p99_cycles = r.op_cycles.p99;
      direct_read_mean = r.op_cycles.mean;
    }
  }
  const double untrusted_sync_slowdown =
      direct_read_mean > 0 ? untrusted_read_mean / direct_read_mean : 0;

  json::Writer w;
  w.BeginObject().Key("benchmark").String("nvme_io").Key("quick").Bool(quick);
  w.Key("steady_p99_sim_cycles").Uint(steady_p99_cycles);
  if (policy_untrusted) {
    w.Key("untrusted_sync_slowdown").Double(untrusted_sync_slowdown);
  }
  w.Key("cases").BeginArray();
  for (const CaseResult& r : results) {
    AppendCaseJson(w, r);
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << w.EndArray().EndObject().Take() << "\n";
  std::cout << "steady-state p99 sim cycles/op: " << steady_p99_cycles << "\n";
  if (policy_untrusted) {
    std::cout << "untrusted sync slowdown (read_1blk mean ratio): "
              << untrusted_sync_slowdown << "x\n";
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
