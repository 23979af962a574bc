// Defense cost comparison (§5.2.1, §8, [47], [49]): simulated cycles per
// RX map/IO/unmap cycle under deferred, strict, and the bounce-buffer
// defence, across packet sizes. The paper's motivation for deferred mode —
// and the bounce-buffer counterargument that copying a packet costs less
// than a 2000-cycle invalidation — both fall out of the model. The bounce
// rows run the device untrusted under the trust policy, so DmaApi diverts
// every transfer through its dma::BouncePool pages.
//
// Plain main with a fixed op count per row, so every row is deterministic.

#include <cstdio>
#include <vector>

#include "core/machine.h"

using namespace spv;

namespace {

constexpr DeviceId kDev{3};
constexpr uint64_t kOps = 10000;  // RX cycles per row

core::MachineConfig MakeConfig(iommu::InvalidationMode mode, bool bounce_backend) {
  core::MachineConfig config;
  config.seed = 8;
  config.phys_pages = 8192;
  config.iommu.mode = mode;
  config.policy.enabled = bounce_backend;
  config.policy.bounce_pages = 16;
  return config;
}

double SimCyclesPerRx(iommu::InvalidationMode mode, bool bounce_backend, uint64_t pkt) {
  core::Machine machine{MakeConfig(mode, bounce_backend)};
  machine.iommu().AttachDevice(kDev);
  if (bounce_backend) {
    (void)machine.policy()->RegisterDevice(kDev, policy::DeviceIdentity{"rx-nic", "nic"});
  }
  dma::DmaApi& dma = machine.dma();
  Kva buf = *machine.slab().Kmalloc(pkt, "rx_buf");
  std::vector<uint8_t> packet(pkt, 0xab);
  const uint64_t cycles_start = machine.clock().now();
  for (uint64_t op = 0; op < kOps; ++op) {
    auto iova = dma.MapSingle(kDev, buf, pkt, dma::DmaDirection::kFromDevice, "rx");
    (void)machine.iommu().DeviceWrite(kDev, *iova, packet);
    (void)dma.UnmapSingle(kDev, *iova, pkt, dma::DmaDirection::kFromDevice);
  }
  return static_cast<double>(machine.clock().now() - cycles_start) /
         static_cast<double>(kOps);
}

}  // namespace

int main() {
  struct Row {
    const char* name;
    iommu::InvalidationMode mode;
    bool bounce;
  };
  const Row rows[] = {
      {"deferred", iommu::InvalidationMode::kDeferred, false},
      {"strict", iommu::InvalidationMode::kStrict, false},
      {"bounce", iommu::InvalidationMode::kStrict, true},
  };
  const uint64_t sizes[] = {64, 1500, 4096};
  std::printf("Defense cost: sim cycles per RX map/DMA/unmap (%llu ops per row)\n",
              static_cast<unsigned long long>(kOps));
  std::printf("%-9s %10s %10s %10s\n", "defense", "64 B", "1500 B", "4096 B");
  for (const Row& row : rows) {
    std::printf("%-9s", row.name);
    for (const uint64_t pkt : sizes) {
      std::printf(" %10.2f", SimCyclesPerRx(row.mode, row.bounce, pkt));
    }
    std::printf("\n");
  }
  return 0;
}
