// §4.3: D-KASAN run-time cost — the workload with and without the sanitizer
// attached ("a run-time tool that has a large memory footprint and the
// obvious overhead of callbacks on each memory access").
//
// Plain main with a fixed run count. The cost is host wall-clock time of the
// workload alone, machine boot excluded (the sanitizer charges no sim
// cycles), so the ms figures vary between hosts and runs; the findings count
// is deterministic.

#include <chrono>
#include <cstdio>
#include <memory>

#include "core/machine.h"
#include "device/malicious_nic.h"
#include "dkasan/dkasan.h"
#include "dkasan/workload.h"

using namespace spv;

namespace {

constexpr int kRuns = 10;

struct Cost {
  double ms_per_run = 0.0;
  double findings_per_run = 0.0;
};

Cost RunWorkload(bool sanitize) {
  uint64_t findings = 0;
  std::chrono::duration<double, std::milli> elapsed{0};
  for (int run = 0; run < kRuns; ++run) {
    core::MachineConfig config;
    config.seed = 7;
    config.phys_pages = 8192;
    core::Machine machine{config};
    std::unique_ptr<dkasan::DKasan> dkasan;
    if (sanitize) {
      dkasan = std::make_unique<dkasan::DKasan>(machine.layout());
      dkasan->Attach(machine.slab());
      dkasan->Attach(machine.dma());
    }
    net::NicDriver::Config driver_config;
    driver_config.rx_ring_size = 16;
    driver_config.rx_buf_len = 1728;
    net::NicDriver& nic = machine.AddNicDriver(driver_config);
    device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
    nic.AttachDevice(&device);
    if (sanitize) {
      dkasan->Attach(machine.frag_pool(CpuId{0}));
    }
    const auto start = std::chrono::steady_clock::now();
    (void)dkasan::RunBuildAndPingWorkload(machine, nic, device, {.iterations = 100});
    elapsed += std::chrono::steady_clock::now() - start;
    if (dkasan) {
      findings += dkasan->reports().size();
    }
  }
  return Cost{elapsed.count() / kRuns, static_cast<double>(findings) / kRuns};
}

}  // namespace

int main() {
  std::printf("D-KASAN cost: build+ping workload, 100 iterations (%d runs each)\n", kRuns);
  std::printf("%-10s %16s %18s\n", "sanitizer", "workload_wall_ms", "findings_per_run");
  for (const bool sanitize : {false, true}) {
    const Cost cost = RunWorkload(sanitize);
    std::printf("%-10s %16.2f %18.1f\n", sanitize ? "dkasan" : "none", cost.ms_per_run,
                cost.findings_per_run);
  }
  return 0;
}
