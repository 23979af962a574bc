// Figure 6 + §5.2.1: strict vs deferred IOTLB invalidation.
//
// Measures (a) the simulated invalidation cost per map/unmap cycle in each
// mode — strict pays ~2000 cycles per unmap, deferred amortizes one global
// flush per queue — and (b) the vulnerability window: how long after
// dma_unmap a device with a warm IOTLB entry retains access.
//
// Plain main with a fixed op count, so every row is deterministic; the
// counters come off the telemetry bus.

#include <cstdio>
#include <vector>

#include "core/machine.h"
#include "telemetry/telemetry.h"

using namespace spv;

namespace {

constexpr uint64_t kOps = 10000;  // map/DMA/unmap cycles per mode

core::MachineConfig MakeConfig(iommu::InvalidationMode mode) {
  core::MachineConfig config;
  config.seed = 6;
  config.phys_pages = 8192;
  config.iommu.mode = mode;
  // Reported counters come off the telemetry bus, not ad-hoc stats.
  config.telemetry.enabled = true;
  return config;
}

void RunMapUnmap(iommu::InvalidationMode mode) {
  core::Machine machine{MakeConfig(mode)};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(2048, "io_buf");
  std::vector<uint8_t> touch(8);
  for (uint64_t op = 0; op < kOps; ++op) {
    auto iova = machine.dma().MapSingle(dev, buf, 2048, dma::DmaDirection::kFromDevice,
                                        "bench_map");
    // Device DMA (warms the IOTLB like a real transfer would).
    (void)machine.iommu().DeviceWrite(dev, *iova, touch);
    (void)machine.dma().UnmapSingle(dev, *iova, 2048, dma::DmaDirection::kFromDevice);
  }
  const telemetry::Hub& hub = machine.telemetry();
  auto count = [&hub](const char* name) {
    return static_cast<unsigned long long>(hub.counter_value(name));
  };
  // Why the deferred queue drained: full queue vs 10 ms deadline. Strict mode
  // reports zeros (it never queues); deferred at this op rate drains almost
  // exclusively on capacity.
  std::printf("%-9s %23.2f %8llu %22llu %10llu %12llu %14llu %14llu\n",
              iommu::InvalidationModeName(mode).c_str(),
              static_cast<double>(hub.counter_value("iommu.invalidation_cycles")) /
                  static_cast<double>(kOps),
              count("iommu.flushes"), count("iommu.targeted_invalidations"),
              count("iotlb.hits"), count("iotlb.misses"),
              count("iommu.flush_drain.capacity"), count("iommu.flush_drain.deadline"));
}

// The window is deterministic, not timing-based: the device probes in
// 100 us steps until its access is revoked.
uint64_t StaleWindowUs(iommu::InvalidationMode mode) {
  core::Machine machine{MakeConfig(mode)};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(2048, "io_buf");
  std::vector<uint8_t> touch(8);
  auto iova = machine.dma().MapSingle(dev, buf, 2048, dma::DmaDirection::kFromDevice,
                                      "window_map");
  (void)machine.iommu().DeviceWrite(dev, *iova, touch);
  const uint64_t unmap_time = machine.clock().now();
  (void)machine.dma().UnmapSingle(dev, *iova, 2048, dma::DmaDirection::kFromDevice);
  uint64_t window_us = 0;
  while (machine.iommu().DeviceWrite(dev, *iova, touch).ok()) {
    machine.clock().AdvanceUs(100);
    machine.iommu().ProcessDeferredTimer();
    window_us = SimClock::CyclesToUs(machine.clock().now() - unmap_time);
    if (window_us > 100000) {
      break;  // defensive
    }
  }
  return window_us;
}

}  // namespace

int main() {
  const iommu::InvalidationMode modes[] = {iommu::InvalidationMode::kStrict,
                                           iommu::InvalidationMode::kDeferred};
  std::printf("Figure 6: strict vs deferred IOTLB invalidation (%llu map/DMA/unmap ops)\n",
              static_cast<unsigned long long>(kOps));
  std::printf("%-9s %23s %8s %22s %10s %12s %14s %14s\n", "mode", "sim_inval_cycles_per_op",
              "flushes", "targeted_invalidations", "iotlb_hits", "iotlb_misses",
              "drain_capacity", "drain_deadline");
  for (const iommu::InvalidationMode mode : modes) {
    RunMapUnmap(mode);
  }
  std::printf("\nStale-IOTLB window after dma_unmap (device probes every 100 us)\n");
  std::printf("%-9s %15s\n", "mode", "stale_window_us");
  for (const iommu::InvalidationMode mode : modes) {
    std::printf("%-9s %15llu\n", iommu::InvalidationModeName(mode).c_str(),
                static_cast<unsigned long long>(StaleWindowUs(mode)));
  }
  return 0;
}
