// Fault-injection matrix: every FaultSite is driven against a live machine in
// {strict, deferred} invalidation x {fast, legacy} map-path configurations,
// with a mixed RX/TX/allocator workload. After the storm, the machine must
// pass Machine::CheckInvariants() with zero leaked mappings or frags — the
// error paths either recover or fail with a clean Status, never by losing
// resources. Plus targeted regressions for the hardened error paths
// (MapSg rollback, UnmapSingle tracker ordering, allocator OOM Statuses).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/machine.h"
#include "device/device_port.h"
#include "fault/fault.h"
#include "net/layouts.h"
#include "net/nic_driver.h"
#include "net/stack.h"
#include "nvme/nvme_controller.h"
#include "nvme/nvme_driver.h"
#include "test_device.h"

namespace spv::fault {
namespace {

using spv::testing::TestNicDevice;

// ---- engine unit behaviour --------------------------------------------------

TEST(FaultEngineTest, DisarmedEngineNeverInjects) {
  FaultEngine engine;
  EXPECT_FALSE(engine.armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(engine.ShouldInject(FaultSite::kPageAlloc));
  }
  FaultPlan empty;
  engine.Arm(empty, 42);
  EXPECT_FALSE(engine.armed());  // an empty plan leaves the engine disarmed
}

TEST(FaultEngineTest, EveryNthFiresDeterministically) {
  FaultPlan plan;
  plan.EveryNth(FaultSite::kSlabAlloc, 3);
  FaultEngine engine;
  engine.Arm(plan, 7);
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(engine.ShouldInject(FaultSite::kSlabAlloc));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
  EXPECT_EQ(engine.site_stats(FaultSite::kSlabAlloc).arms, 9u);
  EXPECT_EQ(engine.site_stats(FaultSite::kSlabAlloc).injections, 3u);
}

TEST(FaultEngineTest, ProbabilityStreamIsSeedDeterministic) {
  FaultPlan plan;
  plan.Probability(FaultSite::kIovaAlloc, 0.5);
  FaultEngine a;
  FaultEngine b;
  a.Arm(plan, 1234);
  b.Arm(plan, 1234);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(a.ShouldInject(FaultSite::kIovaAlloc),
              b.ShouldInject(FaultSite::kIovaAlloc));
  }
  // A different seed must produce a different draw sequence somewhere.
  FaultEngine c;
  c.Arm(plan, 4321);
  bool diverged = false;
  FaultEngine a2;
  a2.Arm(plan, 1234);
  for (int i = 0; i < 256 && !diverged; ++i) {
    diverged = a2.ShouldInject(FaultSite::kIovaAlloc) !=
               c.ShouldInject(FaultSite::kIovaAlloc);
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultEngineTest, OneShotFiresExactlyOnce) {
  FaultPlan plan;
  plan.OneShot(FaultSite::kIoPageTableMap, 2);
  FaultEngine engine;
  engine.Arm(plan, 1);
  EXPECT_FALSE(engine.ShouldInject(FaultSite::kIoPageTableMap));
  EXPECT_TRUE(engine.ShouldInject(FaultSite::kIoPageTableMap));
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(engine.ShouldInject(FaultSite::kIoPageTableMap));
  }
  EXPECT_EQ(engine.site_stats(FaultSite::kIoPageTableMap).injections, 1u);
}

TEST(FaultEngineTest, SiteNamesRoundTrip) {
  for (size_t i = 0; i < kNumFaultSites; ++i) {
    const FaultSite site = static_cast<FaultSite>(i);
    auto back = FaultSiteFromName(FaultSiteName(site));
    ASSERT_TRUE(back.has_value()) << FaultSiteName(site);
    EXPECT_EQ(*back, site);
  }
  EXPECT_FALSE(FaultSiteFromName("not_a_site").has_value());
}

TEST(FaultEngineTest, MachineDefaultsToDisarmed) {
  core::MachineConfig config;
  config.phys_pages = 4096;
  core::Machine machine{config};
  EXPECT_FALSE(machine.fault().armed());
  EXPECT_EQ(machine.fault().total_injections(), 0u);
}

// ---- allocator OOM paths return Status, never abort -------------------------

TEST(FaultOomTest, KmallocSurvivesInjectedExhaustion) {
  core::MachineConfig config;
  config.phys_pages = 4096;
  config.fault_plan.OneShot(FaultSite::kSlabAlloc, 1);
  core::Machine machine{config};
  auto first = machine.slab().Kmalloc(256, "oom_probe");
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted);
  // The allocator is fully usable afterwards: nothing was carved or leaked.
  auto second = machine.slab().Kmalloc(256, "oom_probe");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(machine.slab().Kfree(*second).ok());
  EXPECT_TRUE(machine.CheckInvariants().ok());
}

TEST(FaultOomTest, KmallocLargeSurvivesInjectedPageExhaustion) {
  core::MachineConfig config;
  config.phys_pages = 4096;
  config.fault_plan.OneShot(FaultSite::kPageAlloc, 1);
  core::Machine machine{config};
  auto first = machine.slab().Kmalloc(2 * kPageSize, "oom_large");
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted);
  auto second = machine.slab().Kmalloc(2 * kPageSize, "oom_large");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(machine.slab().Kfree(*second).ok());
  EXPECT_TRUE(machine.CheckInvariants().ok());
}

TEST(FaultOomTest, PageFragAllocSurvivesInjectedExhaustion) {
  core::MachineConfig config;
  config.phys_pages = 4096;
  config.fault_plan.OneShot(FaultSite::kPageFragAlloc, 1);
  core::Machine machine{config};
  slab::PageFragPool& pool = machine.frag_pool(CpuId{0});
  auto first = pool.Alloc(1024, net::kSmpCacheBytes, "oom_frag");
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted);
  auto second = pool.Alloc(1024, net::kSmpCacheBytes, "oom_frag");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(pool.Free(*second).ok());
  EXPECT_EQ(pool.live_frags(), 0u);
  EXPECT_TRUE(machine.CheckInvariants().ok());
}

// ---- DMA error-path regressions ---------------------------------------------

TEST(FaultDmaTest, MapSgRollsBackCleanlyOnMidListMapFailure) {
  core::MachineConfig config;
  config.phys_pages = 4096;
  // Fail the 3rd I/O page-table map: mid-scatter-gather, after two entries
  // already mapped. MapSg must unwind them without leaking IOVAs or PTEs.
  config.fault_plan.OneShot(FaultSite::kIoPageTableMap, 3);
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);

  std::vector<Kva> bufs;
  std::vector<dma::SgEntry> entries;
  for (int i = 0; i < 4; ++i) {
    auto buf = machine.slab().Kmalloc(512, "sg_buf");
    ASSERT_TRUE(buf.ok());
    bufs.push_back(*buf);
    entries.push_back(dma::SgEntry{*buf, 512});
  }
  auto iovas = machine.dma().MapSg(dev, entries, dma::DmaDirection::kToDevice);
  ASSERT_FALSE(iovas.ok());
  EXPECT_EQ(machine.dma().live_mappings(), 0u);
  EXPECT_TRUE(machine.CheckInvariants().ok());

  // The one-shot fired; the identical request must now succeed — proof that
  // the rollback returned every IOVA and PTE it had taken.
  auto retry = machine.dma().MapSg(dev, entries, dma::DmaDirection::kToDevice);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(machine.dma().live_mappings(), entries.size());
  EXPECT_TRUE(machine.dma().UnmapSg(dev, *retry, entries,
                                    dma::DmaDirection::kToDevice).ok());
  machine.iommu().FlushNow();
  EXPECT_EQ(machine.dma().live_mappings(), 0u);
  EXPECT_TRUE(machine.CheckInvariants().ok());
}

TEST(FaultDmaTest, MapSgRollsBackOnIovaExhaustion) {
  core::MachineConfig config;
  config.phys_pages = 4096;
  config.fault_plan.OneShot(FaultSite::kIovaAlloc, 2);
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  std::vector<dma::SgEntry> entries;
  for (int i = 0; i < 3; ++i) {
    auto buf = machine.slab().Kmalloc(256, "sg_buf");
    ASSERT_TRUE(buf.ok());
    entries.push_back(dma::SgEntry{*buf, 256});
  }
  auto iovas = machine.dma().MapSg(dev, entries, dma::DmaDirection::kFromDevice);
  ASSERT_FALSE(iovas.ok());
  EXPECT_EQ(iovas.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(machine.dma().live_mappings(), 0u);
  machine.iommu().FlushNow();
  EXPECT_TRUE(machine.CheckInvariants().ok());
}

TEST(FaultDmaTest, UnmapSingleKeepsTrackingWhenIommuUnmapFails) {
  core::MachineConfig config;
  config.phys_pages = 4096;
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  auto buf = machine.slab().Kmalloc(512, "track_buf");
  ASSERT_TRUE(buf.ok());
  auto iova = machine.dma().MapSingle(dev, *buf, 512, dma::DmaDirection::kToDevice);
  ASSERT_TRUE(iova.ok());
  // Sabotage: rip the translation out behind the DMA API's back, so its
  // UnmapRange call fails.
  ASSERT_TRUE(machine.iommu().UnmapRange(dev, iova->PageBase(), 1).ok());
  EXPECT_FALSE(machine.dma().UnmapSingle(dev, *iova, 512,
                                         dma::DmaDirection::kToDevice).ok());
  // Regression (tracker ordering): the failed unmap must NOT forget the
  // mapping — an audit can still see what leaked instead of silence.
  EXPECT_TRUE(machine.dma().FindMapping(dev, *iova).has_value());
  EXPECT_EQ(machine.dma().live_mappings(), 1u);
}

// ---- the matrix --------------------------------------------------------------

struct MatrixCase {
  FaultSite site;
  iommu::InvalidationMode mode;
  bool fast_path;
};

std::string MatrixCaseName(const ::testing::TestParamInfo<MatrixCase>& info) {
  std::string name{FaultSiteName(info.param.site)};
  name += info.param.mode == iommu::InvalidationMode::kStrict ? "_strict" : "_deferred";
  name += info.param.fast_path ? "_fast" : "_legacy";
  return name;
}

std::vector<MatrixCase> MatrixCasesInRange(size_t first, size_t last) {
  std::vector<MatrixCase> cases;
  for (size_t i = first; i < last; ++i) {
    for (iommu::InvalidationMode mode :
         {iommu::InvalidationMode::kStrict, iommu::InvalidationMode::kDeferred}) {
      for (bool fast : {true, false}) {
        cases.push_back(MatrixCase{static_cast<FaultSite>(i), mode, fast});
      }
    }
  }
  return cases;
}

// Allocator/IOMMU/NIC sites run against the networking workload; the kNvme*
// block gets its own storage workload below (the NIC path never arms them).
std::vector<MatrixCase> AllMatrixCases() {
  return MatrixCasesInRange(0, kFirstNvmeSite);
}

class FaultMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(FaultMatrixTest, SurvivesWithInvariantsIntact) {
  const MatrixCase& param = GetParam();

  core::MachineConfig config;
  config.phys_pages = 4096;
  config.seed = 20240806;
  config.telemetry.enabled = true;
  config.iommu.mode = param.mode;
  config.iommu.fast_path.enabled = param.fast_path;
  config.fault_plan.EveryNth(param.site, 3);
  core::Machine machine{config};
  ASSERT_TRUE(machine.fault().armed());

  net::NicDriver::Config driver_config;
  driver_config.name = "fnic";
  driver_config.rx_ring_size = 8;
  driver_config.tx_ring_size = 8;
  net::NicDriver& driver = machine.AddNicDriver(driver_config);
  TestNicDevice device{driver.device_id(), machine.iommu()};
  driver.AttachDevice(&device);
  machine.stack().set_egress(&driver);
  (void)driver.FillRxRing();  // may partially fail under injection — tolerated

  // A socket to terminate RX traffic; creation retries under slab faults.
  Result<Kva> socket = InvalidArgument("unattempted");
  for (int attempt = 0; attempt < 5 && !socket.ok(); ++attempt) {
    socket = machine.stack().CreateSocket(80, /*echo=*/false);
  }
  ASSERT_TRUE(socket.ok());

  const net::PacketHeader rx_header{.src_ip = 0x0a000002,
                                    .dst_ip = 0x0a000001,
                                    .src_port = 5555,
                                    .dst_port = 80,
                                    .proto = net::kProtoUdp,
                                    .flags = 0,
                                    .payload_len = 32,
                                    .seq = 1};
  const net::PacketHeader tx_header{.src_ip = 0x0a000001,
                                    .dst_ip = 0x0a000009,
                                    .src_port = 80,
                                    .dst_port = 5555,
                                    .proto = net::kProtoUdp,
                                    .flags = 0,
                                    .payload_len = 32,
                                    .seq = 2};
  const std::vector<uint8_t> payload(32, 0x5a);
  const uint32_t wire_len =
      static_cast<uint32_t>(net::PacketHeader::kSize + payload.size());

  for (int i = 0; i < 48; ++i) {
    (void)driver.RetryRefills();
    // RX: inject a frame and complete it through the (possibly faulting)
    // driver; survivors go up the stack.
    auto index = device.InjectRx(machine.kmem(), rx_header, payload);
    if (index.ok()) {
      auto skb = driver.CompleteRx(*index, wire_len);
      if (skb.ok() && *skb != nullptr) {
        (void)machine.stack().NapiGroReceive(std::move(*skb));
      }
    }
    // TX: post a packet and service whatever completions the device saw.
    (void)machine.stack().SendPacket(tx_header, payload);
    for (const auto& descriptor : device.tx_posted()) {
      (void)machine.stack().OnTxCompleted(descriptor.index);
    }
    device.tx_posted().clear();
    // Allocator churn so kPageAlloc/kSlabAlloc sites see steady traffic.
    auto churn = machine.slab().Kmalloc(2 * kPageSize, "fault_churn");
    if (churn.ok()) {
      (void)machine.slab().Kfree(*churn);
    }
    if (i % 8 == 7) {
      // Let the TX watchdog and the deferred-invalidation machinery run.
      machine.clock().Advance(SimClock::MsToCycles(6000));
      (void)driver.CheckTxTimeout();
      (void)driver.RequeueTimedOut();
      machine.iommu().ProcessDeferredTimer();
      machine.iommu().FlushNow();
      (void)machine.stack().NapiComplete();
    }
  }

  // The armed site must actually have fired — otherwise the sweep is theatre.
  EXPECT_GE(machine.fault().site_stats(param.site).injections, 1u)
      << "site never fired: " << FaultSiteName(param.site);

  // Recovery phase: disarm and drain everything still in flight.
  machine.fault().Disarm();
  (void)driver.RetryRefills();
  for (uint32_t i = 0; i < driver_config.tx_ring_size; ++i) {
    (void)machine.stack().OnTxCompleted(i);
  }
  for (int rounds = 0; rounds < 8 && driver.tx_requeue_depth() > 0; ++rounds) {
    if (driver.RequeueTimedOut() == 0) {
      break;
    }
    for (uint32_t i = 0; i < driver_config.tx_ring_size; ++i) {
      (void)machine.stack().OnTxCompleted(i);
    }
  }
  (void)machine.stack().NapiComplete();
  Status shutdown = driver.Shutdown();
  EXPECT_TRUE(shutdown.ok()) << shutdown.message();
  machine.iommu().FlushNow();

  // Leak and invariant checks: every fault was either recovered or failed
  // cleanly; nothing may be left mapped, allocated, or inconsistent.
  EXPECT_EQ(machine.dma().live_mappings(), 0u);
  EXPECT_EQ(machine.frag_pool(driver_config.cpu).live_frags(), 0u);
  EXPECT_EQ(driver.pending_tx(), 0u);
  EXPECT_EQ(driver.tx_requeue_depth(), 0u);
  Status invariants = machine.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.message();

  // CI artifact: dump the run's telemetry as JSON when a directory is given.
  if (const char* out_dir = std::getenv("SPV_FAULT_TELEMETRY_OUT")) {
    std::ofstream out{std::string(out_dir) + "/fault_matrix_" +
                      MatrixCaseName({GetParam(), 0}) + ".json"};
    out << machine.telemetry().ExportJson(256);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSites, FaultMatrixTest,
                         ::testing::ValuesIn(AllMatrixCases()), MatrixCaseName);

// ---- the NVMe matrix ---------------------------------------------------------
//
// Same contract as the NIC sweep — every kNvme* site fires against a live
// storage workload and the machine must come out leak-free — but the traffic
// is block IO through NvmeDriver against an honest NvmeController, with the
// watchdog given room to fail-and-reset the IO queue when completions vanish.

class NvmeFaultMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(NvmeFaultMatrixTest, SurvivesWithInvariantsIntact) {
  const MatrixCase& param = GetParam();

  core::MachineConfig config;
  config.phys_pages = 4096;
  config.seed = 20260808;
  config.telemetry.enabled = true;
  config.iommu.mode = param.mode;
  config.iommu.fast_path.enabled = param.fast_path;
  core::Machine machine{config};

  nvme::NvmeDriver::Config driver_config;
  driver_config.name = "fnvme";
  driver_config.io_queue_entries = 16;
  nvme::NvmeDriver& driver = machine.AddNvmeDriver(driver_config);
  nvme::NvmeController controller{
      device::DevicePort(machine.iommu(), driver.device_id())};
  controller.set_fault_engine(&machine.fault());
  controller.set_tracer(machine.tracer());
  driver.AttachDevice(&controller);

  // Bring-up runs clean; the storm starts once the IO queue is live so every
  // run exercises the same workload regardless of which site is armed.
  ASSERT_TRUE(driver.Init().ok());
  FaultPlan plan;
  plan.EveryNth(param.site, 3);
  machine.fault().Arm(plan, config.seed);
  ASSERT_TRUE(machine.fault().armed());

  // Block sizes covering every PRP shape: in-page, PRP2-as-page, single
  // list segment, and a chained list (>15 extra pages).
  const uint16_t kShapes[] = {1, 8, 16, 64, 144};
  std::vector<uint8_t> pattern(static_cast<size_t>(144) * nvme::kLbaSize, 0xa5);
  for (int i = 0; i < 40; ++i) {
    const uint16_t nblocks = kShapes[static_cast<size_t>(i) % 5];
    const uint64_t bytes = static_cast<uint64_t>(nblocks) * nvme::kLbaSize;
    auto buf = machine.slab().Kmalloc(bytes, "nvme_fault_io");
    if (!buf.ok()) {
      continue;
    }
    ASSERT_TRUE(machine.kmem()
                    .Write(*buf, std::span<const uint8_t>(pattern.data(), bytes))
                    .ok());
    const uint64_t slba = static_cast<uint64_t>(i % 8) * 144;
    // Writes and reads may fail with a clean Status under injection; what
    // they may not do is leak the mapping or wedge the driver.
    (void)driver.WriteBlocks(slba, nblocks, *buf);
    (void)driver.ReadBlocks(slba, nblocks, *buf);
    (void)machine.slab().Kfree(*buf);
    if (i % 8 == 7) {
      // Let vanished completions age out: the watchdog fails them and
      // resets the IO queue (the storage TX-watchdog analogue).
      machine.clock().Advance(SimClock::MsToCycles(6000));
      (void)driver.CheckTimeouts();
      machine.iommu().ProcessDeferredTimer();
      machine.iommu().FlushNow();
    }
  }

  EXPECT_GE(machine.fault().site_stats(param.site).injections, 1u)
      << "site never fired: " << FaultSiteName(param.site);

  // Recovery: disarm, rebuild a queue the storm may have fenced, drain, and
  // verify a clean round trip works again.
  machine.fault().Disarm();
  if (!driver.io_queue_live()) {
    EXPECT_TRUE(driver.Resume().ok());
  }
  machine.clock().Advance(SimClock::MsToCycles(6000));
  (void)driver.CheckTimeouts();
  (void)driver.PollCompletions();
  auto probe = machine.slab().Kmalloc(nvme::kLbaSize, "nvme_fault_probe");
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(driver.WriteBlocks(0, 1, *probe).ok());
  EXPECT_TRUE(driver.ReadBlocks(0, 1, *probe).ok());
  ASSERT_TRUE(machine.slab().Kfree(*probe).ok());

  Status shutdown = driver.Shutdown();
  EXPECT_TRUE(shutdown.ok()) << shutdown.message();
  machine.iommu().FlushNow();

  EXPECT_EQ(driver.outstanding(), 0u);
  EXPECT_EQ(machine.dma().live_mappings(), 0u);
  EXPECT_EQ(machine.frag_pool(driver_config.cpu).live_frags(), 0u);
  Status invariants = machine.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.message();

  if (const char* out_dir = std::getenv("SPV_FAULT_TELEMETRY_OUT")) {
    std::ofstream out{std::string(out_dir) + "/nvme_fault_matrix_" +
                      MatrixCaseName({GetParam(), 0}) + ".json"};
    out << machine.telemetry().ExportJson(256);
  }
}

INSTANTIATE_TEST_SUITE_P(
    NvmeSites, NvmeFaultMatrixTest,
    ::testing::ValuesIn(MatrixCasesInRange(kFirstNvmeSite, kNumFaultSites)),
    MatrixCaseName);

}  // namespace
}  // namespace spv::fault
