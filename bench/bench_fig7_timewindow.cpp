// Figure 7: the three paths to a destructor_arg write window, measured as
// success rates across driver orderings and IOMMU modes.
//
//   (i)   wrong unmap order (i40e-like): write during CompleteRx, pre-unmap;
//   (ii)  deferred IOTLB: write via the dead IOVA after unmap;
//   (iii) type (c) neighbour IOVA: write via a co-located buffer's mapping.

#include <cstdio>
#include <cstring>
#include <vector>

#include "attack/attacks.h"
#include "attack/mini_cpu.h"
#include "core/machine.h"
#include "device/malicious_nic.h"
#include "dkasan/dkasan.h"
#include "forensics/flight_recorder.h"
#include "net/layouts.h"
#include "nvme/malicious_nvme.h"
#include "nvme/nvme_driver.h"
#include "spade/analyzer.h"
#include "spade/corpus.h"

using namespace spv;

namespace {

struct TrialResult {
  bool path_i = false;
  bool path_ii = false;
  bool path_iii = false;
  bool ground_truth = false;  // the skb's shared_info was really modified
};

TrialResult RunTrial(uint64_t seed, bool wrong_order, iommu::InvalidationMode mode) {
  TrialResult result;
  core::MachineConfig config;
  config.seed = seed;
  config.iommu.mode = mode;
  core::Machine machine{config};
  net::NicDriver::Config driver_config;
  driver_config.rx_ring_size = 16;
  driver_config.rx_buf_len = 1728;
  driver_config.unmap_before_build = !wrong_order;
  net::NicDriver& nic = machine.AddNicDriver(driver_config);
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  device.set_warm_iotlb_on_post(true);
  nic.AttachDevice(&device);
  if (!nic.FillRxRing().ok()) {
    return result;
  }

  const net::RxPostedDescriptor consumed = device.rx_posted().front();
  const uint32_t truesize = nic.rx_buffer_bytes();
  const uint64_t kMagic = 0x7e57c0de;

  // Path (i): device writes inside the driver's build-then-unmap window.
  device.set_rx_completing_hook([&](uint32_t) {
    uint8_t bytes[8];
    std::memcpy(bytes, &kMagic, 8);
    result.path_i =
        device.port()
            .Write(consumed.iova + attack::DestructorArgOffset(truesize), bytes)
            .ok();
  });

  net::PacketHeader header{.dst_ip = 1, .dst_port = 9, .proto = net::kProtoUdp};
  std::vector<uint8_t> payload(32, 1);
  auto index = device.InjectRx(header, payload);
  if (!index.ok()) {
    return result;
  }
  auto skb = nic.CompleteRx(*index, net::PacketHeader::kSize + 32);
  if (!skb.ok()) {
    return result;
  }

  // Paths (ii)+(iii), post-completion.
  attack::PokeOptions own_only{.try_own_iova = true, .try_neighbor = false};
  attack::PokeOptions neighbor_only{.try_own_iova = false, .try_neighbor = true};
  result.path_ii =
      attack::TryPokeDestructorArg(device, consumed, truesize, kMagic, own_only).success &&
      mode == iommu::InvalidationMode::kDeferred;  // own-IOVA success in strict = recycled IOVA
  result.path_iii =
      attack::TryPokeDestructorArg(device, consumed, truesize, kMagic, neighbor_only).success;

  net::SharedInfoView shinfo{machine.kmem(), (*skb)->shared_info()};
  result.ground_truth = shinfo.destructor_arg().value_or(0) == kMagic;
  return result;
}

// ---- Instrumented window accounting ------------------------------------------
//
// The sections below reproduce the Fig-7 temporal claim from *instrumentation*
// (the flight recorder's mapping lives, fed by the DMA API and the IOMMU)
// instead of the bespoke probe loops above: a stale-translation window runs
// from a life's unmap to the invalidation of its range, and the open-duration
// histogram of those windows is the measurement.

telemetry::Histogram::Summary StaleWindowStats(iommu::InvalidationMode mode) {
  core::MachineConfig config;
  config.seed = 99;
  config.iommu.mode = mode;
  config.telemetry.enabled = true;
  config.trace.enabled = true;
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(2048, "fig7_window_buf");
  std::vector<uint8_t> touch(8);
  for (int i = 0; i < 64; ++i) {
    auto iova = machine.dma().MapSingle(dev, buf, 2048, dma::DmaDirection::kFromDevice,
                                        "fig7_window_map");
    if (!iova.ok()) return {};
    (void)machine.iommu().DeviceWrite(dev, *iova, touch);
    (void)machine.dma().UnmapSingle(dev, *iova, 2048, dma::DmaDirection::kFromDevice);
    machine.clock().AdvanceUs(300);
    machine.iommu().ProcessDeferredTimer();
  }
  machine.clock().AdvanceUs(10001);  // past the deferred deadline: drain all
  machine.iommu().ProcessDeferredTimer();
  return machine.flight_recorder()->stale_open_summary();
}

void PrintWindowRow(const char* name, const telemetry::Histogram::Summary& s) {
  std::printf("%-10s %6llu windows | p50 %10llu cyc | p99 %10llu cyc | mean %12.0f\n",
              name, static_cast<unsigned long long>(s.count),
              static_cast<unsigned long long>(s.p50),
              static_cast<unsigned long long>(s.p99), s.mean);
}

// Detection latency: how long after a vulnerability window opens does each
// detector speak up? D-KASAN observes the live machine (its kDkasanReport
// closes the window); SPADE is a static scan run while windows are open (its
// kSpadeFinding records latency but cannot invalidate a translation).
void DetectionScenario(const char* name, bool ringflood) {
  core::MachineConfig config;
  config.seed = ringflood ? 1777 : 42;
  config.iommu.mode = iommu::InvalidationMode::kDeferred;
  config.telemetry.enabled = true;
  config.trace.enabled = true;
  core::Machine machine{config};
  net::NicDriver::Config driver_config;
  driver_config.rx_ring_size = 32;
  driver_config.rx_buf_len = 1728;
  net::NicDriver& nic = machine.AddNicDriver(driver_config);
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  device.set_warm_iotlb_on_post(true);
  nic.AttachDevice(&device);
  machine.stack().set_egress(&nic);
  attack::MiniCpu cpu{machine.kmem(), machine.layout()};
  machine.stack().set_callback_invoker(&cpu);

  dkasan::DKasan detector{machine.layout()};
  detector.set_telemetry(&machine.telemetry());
  detector.Attach(machine.slab());
  detector.Attach(machine.dma());
  detector.Attach(machine.frag_pool(CpuId{0}));

  attack::AttackEnv env{machine, nic, device, cpu};
  if (ringflood) {
    attack::RingFloodAttack::ProfileOptions profile;
    profile.machine = config;
    profile.machine.telemetry.enabled = false;  // profiling boots are offline
    profile.machine.trace.enabled = false;
    profile.driver = driver_config;
    profile.boots = 16;
    auto histogram = attack::RingFloodAttack::ProfileRxPfns(profile);
    attack::RingFloodAttack::ReplayBootNoise(machine, config.seed, 40);
    (void)nic.FillRxRing();
    attack::RingFloodAttack::Options options;
    options.pfn_guess = attack::RingFloodAttack::MostCommonPfn(histogram);
    (void)attack::RingFloodAttack::Run(env, options);
  } else {
    (void)machine.stack().CreateSocket(7, true);
    (void)nic.FillRxRing();
    (void)attack::PoisonedTxAttack::Run(env, {});
  }

  // Static SPADE pass over the driver corpus while the attack's deferred
  // windows are still open.
  spade::SpadeAnalyzer analyzer;
  analyzer.set_telemetry(&machine.telemetry());
  analyzer.set_tracer(machine.tracer());
  if (spade::LoadCorpusDirectory(analyzer, spade::DefaultCorpusDir()).ok()) {
    (void)analyzer.Analyze();
  }

  const telemetry::Histogram::Summary dk = machine.flight_recorder()->dkasan_latency_summary();
  const telemetry::Histogram::Summary sp = machine.flight_recorder()->spade_latency_summary();
  std::printf("%-14s D-KASAN: %4llu reports, first-report latency p50 %8llu cyc | "
              "SPADE: %4llu findings, latency p50 %8llu cyc\n",
              name, static_cast<unsigned long long>(dk.count),
              static_cast<unsigned long long>(dk.p50),
              static_cast<unsigned long long>(sp.count),
              static_cast<unsigned long long>(sp.p50));
}

// The storage-side scenario: Poisoned Completion (the NVMe Poisoned TX).
// A MaliciousNvme completes a read before transferring, the driver unmaps and
// frees, and the withheld data phase replays through the stale IOTLB entry —
// D-KASAN reports the co-located map while the window is open, and SPADE's
// static pass stamps its own latency against the same windows.
void StorageDetectionScenario(const char* name) {
  core::MachineConfig config;
  config.seed = 4242;
  config.iommu.mode = iommu::InvalidationMode::kDeferred;
  config.telemetry.enabled = true;
  config.trace.enabled = true;
  core::Machine machine{config};
  nvme::NvmeDriver& driver = machine.AddNvmeDriver({});
  nvme::MaliciousNvme controller{
      device::DevicePort{machine.iommu(), driver.device_id()}};
  controller.set_tracer(machine.tracer());
  driver.AttachDevice(&controller);
  if (!driver.Init().ok()) {
    std::printf("%-20s storage bring-up failed\n", name);
    return;
  }
  controller.set_warm_iotlb(true);

  dkasan::DKasan detector{machine.layout()};
  detector.set_telemetry(&machine.telemetry());
  detector.Attach(machine.slab());
  detector.Attach(machine.dma());
  detector.Attach(machine.frag_pool(CpuId{0}));

  // Several poisoned rounds: each opens a stale window on the freed buffer
  // page, replays the withheld transfer through it, then maps a co-located
  // sibling (the D-KASAN trigger) before the flush closes the books.
  controller.set_complete_before_transfer(true);
  for (int round = 0; round < 8; ++round) {
    auto sentinel = machine.slab().Kmalloc(512, "fig7_sentinel");
    auto buf = machine.slab().Kmalloc(512, "fig7_poisoned_buf");
    if (!sentinel.ok() || !buf.ok()) return;
    if (!driver.ReadBlocks(8, 1, *buf).ok()) return;
    (void)machine.slab().Kfree(*buf);
    machine.clock().AdvanceUs(20);
    (void)controller.ReplayPendingTransfer();
    auto sibling = machine.slab().Kmalloc(512, "fig7_sibling");
    if (sibling.ok()) {
      (void)driver.WriteBlocks(0, 1, *sibling);
      (void)machine.slab().Kfree(*sibling);
    }
    controller.ClearPendingTransfers();
    machine.iommu().FlushNow();
    (void)machine.slab().Kfree(*sentinel);
  }

  // Static SPADE pass over the corpus (nvme sources included) while the last
  // windows were open feeds the spade latency histogram the same way.
  spade::SpadeAnalyzer analyzer;
  analyzer.set_telemetry(&machine.telemetry());
  analyzer.set_tracer(machine.tracer());
  if (spade::LoadCorpusDirectory(analyzer, spade::DefaultCorpusDir()).ok()) {
    (void)analyzer.Analyze();
  }

  const telemetry::Histogram::Summary st = machine.flight_recorder()->stale_open_summary();
  const telemetry::Histogram::Summary dk = machine.flight_recorder()->dkasan_latency_summary();
  const telemetry::Histogram::Summary sp = machine.flight_recorder()->spade_latency_summary();
  std::printf("%-14s D-KASAN: %4llu reports, first-report latency p50 %8llu cyc | "
              "SPADE: %4llu findings, latency p50 %8llu cyc\n",
              name, static_cast<unsigned long long>(dk.count),
              static_cast<unsigned long long>(dk.p50),
              static_cast<unsigned long long>(sp.count),
              static_cast<unsigned long long>(sp.p50));
  std::printf("%-14s stale windows: %llu, open-duration p50 %llu cyc (unmap -> flush)\n",
              "", static_cast<unsigned long long>(st.count),
              static_cast<unsigned long long>(st.p50));
}

}  // namespace

int main() {
  std::printf("== Figure 7: write-window paths to skb_shared_info ==\n\n");
  constexpr int kTrials = 20;
  struct Config {
    const char* name;
    bool wrong_order;
    iommu::InvalidationMode mode;
  };
  const Config configs[] = {
      {"i40e-like order, deferred", true, iommu::InvalidationMode::kDeferred},
      {"i40e-like order, strict  ", true, iommu::InvalidationMode::kStrict},
      {"correct order,  deferred", false, iommu::InvalidationMode::kDeferred},
      {"correct order,  strict  ", false, iommu::InvalidationMode::kStrict},
  };
  std::printf("%-28s %-10s %-12s %-14s %-12s\n", "configuration", "(i) race",
              "(ii) stale", "(iii) alias", "hijacked");
  for (const Config& config : configs) {
    int path_i = 0;
    int path_ii = 0;
    int path_iii = 0;
    int hijacked = 0;
    for (int t = 0; t < kTrials; ++t) {
      TrialResult result =
          RunTrial(1000 + static_cast<uint64_t>(t), config.wrong_order, config.mode);
      path_i += result.path_i ? 1 : 0;
      path_ii += result.path_ii ? 1 : 0;
      path_iii += result.path_iii ? 1 : 0;
      hijacked += result.ground_truth ? 1 : 0;
    }
    std::printf("%-28s %3d/%-6d %3d/%-8d %3d/%-10d %3d/%d\n", config.name, path_i, kTrials,
                path_ii, kTrials, path_iii, kTrials, hijacked, kTrials);
  }
  std::printf("\nshape check vs paper: the hijack succeeds in EVERY configuration —\n"
              "wrong ordering gives a direct race; deferred mode gives the stale-IOTLB\n"
              "window even for correct drivers; and strict mode is defeated by the\n"
              "type (c) neighbour alias from page_frag RX allocation (§5.2.2).\n");

  std::printf("\n== Instrumented stale-window durations (trace::WindowTracker) ==\n\n");
  const telemetry::Histogram::Summary deferred =
      StaleWindowStats(iommu::InvalidationMode::kDeferred);
  const telemetry::Histogram::Summary strict =
      StaleWindowStats(iommu::InvalidationMode::kStrict);
  PrintWindowRow("deferred", deferred);
  PrintWindowRow("strict", strict);
  if (strict.p50 > 0) {
    std::printf("\ndeferred/strict p50 gap: %.0fx — the Fig-7 (ii) window measured from\n"
                "the event stream: strict windows last only the synchronous invalidation\n"
                "(~2000 cycles per unmapped range); deferred windows last until the next\n"
                "queue drain.\n",
                static_cast<double>(deferred.p50) / static_cast<double>(strict.p50));
  }

  std::printf("\n== Detection latency (cycles from window open to detector report) ==\n\n");
  DetectionScenario("Poisoned TX", /*ringflood=*/false);
  DetectionScenario("RingFlood", /*ringflood=*/true);
  StorageDetectionScenario("Poisoned Cmpl");
  return 0;
}
