// Defense cost comparison (§5.2.1, §8, [47], [49]): simulated cycles per
// RX map/IO/unmap cycle under deferred, strict, and the bounce-buffer
// defence, across packet sizes. The paper's motivation for deferred mode —
// and the bounce-buffer counterargument that copying a packet costs less
// than a 2000-cycle invalidation — both fall out of the model. The bounce
// rows run the device untrusted under the trust policy, so DmaApi diverts
// every transfer through its dma::BouncePool pages.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/machine.h"

using namespace spv;

namespace {

constexpr DeviceId kDev{3};

core::MachineConfig MakeConfig(iommu::InvalidationMode mode, bool bounce_backend) {
  core::MachineConfig config;
  config.seed = 8;
  config.phys_pages = 8192;
  config.iommu.mode = mode;
  config.policy.enabled = bounce_backend;
  config.policy.bounce_pages = 16;
  return config;
}

void RxCycle(benchmark::State& state, iommu::InvalidationMode mode, bool bounce_backend) {
  const uint64_t pkt = static_cast<uint64_t>(state.range(0));
  core::Machine machine{MakeConfig(mode, bounce_backend)};
  machine.iommu().AttachDevice(kDev);
  if (bounce_backend) {
    (void)machine.policy()->RegisterDevice(kDev, policy::DeviceIdentity{"rx-nic", "nic"});
  }
  dma::DmaApi& dma = machine.dma();
  Kva buf = *machine.slab().Kmalloc(pkt, "rx_buf");
  std::vector<uint8_t> packet(pkt, 0xab);

  uint64_t ops = 0;
  const uint64_t cycles_start = machine.clock().now();
  for (auto _ : state) {
    auto iova = dma.MapSingle(kDev, buf, pkt, dma::DmaDirection::kFromDevice, "rx");
    benchmark::DoNotOptimize(iova);
    (void)machine.iommu().DeviceWrite(kDev, *iova, packet);
    (void)dma.UnmapSingle(kDev, *iova, pkt, dma::DmaDirection::kFromDevice);
    ++ops;
  }
  state.counters["sim_cycles_per_op"] =
      ops ? static_cast<double>(machine.clock().now() - cycles_start) /
                static_cast<double>(ops)
          : 0;
}

void BM_Rx_Deferred(benchmark::State& state) {
  RxCycle(state, iommu::InvalidationMode::kDeferred, false);
}
void BM_Rx_Strict(benchmark::State& state) {
  RxCycle(state, iommu::InvalidationMode::kStrict, false);
}
void BM_Rx_Bounce(benchmark::State& state) {
  RxCycle(state, iommu::InvalidationMode::kStrict, true);
}

BENCHMARK(BM_Rx_Deferred)->Arg(64)->Arg(1500)->Arg(4096)->ArgNames({"bytes"});
BENCHMARK(BM_Rx_Strict)->Arg(64)->Arg(1500)->Arg(4096)->ArgNames({"bytes"});
BENCHMARK(BM_Rx_Bounce)->Arg(64)->Arg(1500)->Arg(4096)->ArgNames({"bytes"});

}  // namespace

BENCHMARK_MAIN();
