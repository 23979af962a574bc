// Tests for D-KASAN: the four report classes (§4.2), its telemetry-sink
// plumbing (per-source attachment on a shared Hub, leaving the Hub on
// destruction), and the Figure-3 workload.

#include <gtest/gtest.h>

#include <vector>

#include "core/machine.h"
#include "device/malicious_nic.h"
#include "dkasan/dkasan.h"
#include "dkasan/workload.h"
#include "net/nic_driver.h"

namespace spv::dkasan {
namespace {

class DkasanFixture : public ::testing::Test {
 protected:
  DkasanFixture() : machine_(MakeConfig()), dkasan_(machine_.layout()) {
    dkasan_.Attach(machine_.slab());
    dkasan_.Attach(machine_.dma());
    dkasan_.set_dedup(false);
  }

  static core::MachineConfig MakeConfig() {
    core::MachineConfig config;
    config.seed = 99;
    config.iommu.mode = iommu::InvalidationMode::kStrict;
    return config;
  }

  DeviceId AttachDevice() {
    const DeviceId device{42};
    machine_.iommu().AttachDevice(device);
    return device;
  }

  void TearDown() override {
    Status invariants = machine_.CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.message();
  }

  core::Machine machine_;
  DKasan dkasan_;
};

TEST_F(DkasanFixture, CleanAllocationsProduceNoReports) {
  auto a = machine_.slab().Kmalloc(512, "clean_a");
  auto b = machine_.slab().Kmalloc(512, "clean_b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(machine_.slab().Kfree(*a).ok());
  ASSERT_TRUE(machine_.slab().Kfree(*b).ok());
  EXPECT_TRUE(dkasan_.reports().empty());
}

// D-KASAN is subscribed to its seven kinds: each one, published through the
// Hub with an attached source's origin, changes what it reports.
TEST_F(DkasanFixture, ActsOnEachOfItsSevenKindsThroughTheHub) {
  using telemetry::EventKind;
  slab::PageFragPool& frags = machine_.frag_pool(CpuId{0});
  dkasan_.Attach(frags);
  // A page no allocator hands out, so only the events below describe it.
  Result<Pfn> pfn = machine_.page_alloc().AllocPage(mem::PageOwner::kAnon);
  ASSERT_TRUE(pfn.ok());
  const uint64_t page = machine_.layout().PhysToDirectMapKva(PhysAddr::FromPfn(*pfn)).value;
  auto publish = [this](EventKind kind, const void* origin, uint64_t kva, uint64_t len) {
    telemetry::Event event;
    event.kind = kind;
    event.addr = kva;
    event.len = len;
    event.aux = static_cast<uint64_t>(iommu::AccessRights::kWrite);
    event.origin = origin;
    event.site = EventKindName(kind);
    machine_.telemetry().Publish(event);
  };
  const void* slab = &machine_.slab();
  const void* dma = &machine_.dma();

  // kSlabAlloc, then kDmaMap of another buffer on the page: map-after-alloc.
  publish(EventKind::kSlabAlloc, slab, page, 256);
  publish(EventKind::kDmaMap, dma, page + 2048, 256);
  EXPECT_EQ(dkasan_.count(ReportKind::kMapAfterAlloc), 1u);
  // kCpuAccess on the mapped page: access-after-map.
  publish(EventKind::kCpuAccess, dma, page + 2048, 8);
  EXPECT_EQ(dkasan_.count(ReportKind::kAccessAfterMap), 1u);
  // kFragAlloc on the mapped page: alloc-after-map.
  publish(EventKind::kFragAlloc, &frags, page + 1024, 64);
  EXPECT_EQ(dkasan_.count(ReportKind::kAllocAfterMap), 1u);
  // kDmaUnmap: the page is no longer mapped, so an access reports nothing.
  publish(EventKind::kDmaUnmap, dma, page + 2048, 256);
  publish(EventKind::kCpuAccess, dma, page, 8);
  EXPECT_EQ(dkasan_.count(ReportKind::kAccessAfterMap), 1u);
  // kSlabFree and kFragFree: no live neighbour is left for a new map to
  // expose (either one missed would report it).
  publish(EventKind::kSlabFree, slab, page, 256);
  publish(EventKind::kFragFree, &frags, page + 1024, 64);
  publish(EventKind::kDmaMap, dma, page + 2048, 256);
  EXPECT_EQ(dkasan_.count(ReportKind::kMapAfterAlloc), 1u);
  EXPECT_EQ(dkasan_.reports().size(), 3u);
  ASSERT_TRUE(machine_.page_alloc().FreePages(*pfn).ok());
}

TEST_F(DkasanFixture, MapAfterAllocDetected) {
  // An I/O buffer and an unrelated object share a page; mapping the I/O
  // buffer exposes the object.
  const DeviceId device = AttachDevice();
  auto io_buf = machine_.slab().Kmalloc(512, "driver_io_buf");
  auto secret = machine_.slab().Kmalloc(512, "sock_alloc_inode+0x4f/0x120");
  ASSERT_TRUE(io_buf.ok());
  ASSERT_TRUE(secret.ok());
  auto iova = machine_.dma().MapSingle(device, *io_buf, 512,
                                       dma::DmaDirection::kFromDevice, "drv_map");
  ASSERT_TRUE(iova.ok());

  auto reports = dkasan_.ReportsOfKind(ReportKind::kMapAfterAlloc);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kva, *secret);
  EXPECT_EQ(reports[0].site, "sock_alloc_inode+0x4f/0x120");
  EXPECT_EQ(reports[0].rights, iommu::AccessRights::kWrite);
}

TEST_F(DkasanFixture, AllocAfterMapDetected) {
  const DeviceId device = AttachDevice();
  auto io_buf = machine_.slab().Kmalloc(1024, "driver_io_buf");
  ASSERT_TRUE(io_buf.ok());
  auto iova = machine_.dma().MapSingle(device, *io_buf, 1024,
                                       dma::DmaDirection::kBidirectional, "drv_map");
  ASSERT_TRUE(iova.ok());
  // New object lands on the same (mapped) page: same size class.
  auto late = machine_.slab().Kmalloc(1024, "assoc_array_insert+0xa9/0x7e0");
  ASSERT_TRUE(late.ok());

  auto reports = dkasan_.ReportsOfKind(ReportKind::kAllocAfterMap);
  ASSERT_GE(reports.size(), 1u);
  EXPECT_EQ(reports[0].kva, *late);
  EXPECT_EQ(reports[0].rights, iommu::AccessRights::kBidirectional);
}

TEST_F(DkasanFixture, AccessAfterMapDetected) {
  const DeviceId device = AttachDevice();
  auto io_buf = machine_.slab().Kmalloc(2048, "driver_io_buf");
  ASSERT_TRUE(io_buf.ok());
  auto iova = machine_.dma().MapSingle(device, *io_buf, 2048,
                                       dma::DmaDirection::kFromDevice, "drv_map");
  ASSERT_TRUE(iova.ok());
  ASSERT_TRUE(machine_.kmem().WriteU64(*io_buf, 1).ok());

  auto reports = dkasan_.ReportsOfKind(ReportKind::kAccessAfterMap);
  ASSERT_GE(reports.size(), 1u);
  EXPECT_EQ(reports[0].kva, *io_buf);
}

TEST_F(DkasanFixture, MultipleMapDetected) {
  // Figure 3 line 1: a buffer mapped twice — READ and WRITE — merges to
  // [READ, WRITE].
  const DeviceId device = AttachDevice();
  auto buf = machine_.slab().Kmalloc(2048, "__alloc_skb+0xe0/0x3f0");
  ASSERT_TRUE(buf.ok());
  auto a = machine_.dma().MapSingle(device, *buf, 512, dma::DmaDirection::kFromDevice,
                                    "rx_map");
  auto b = machine_.dma().MapSingle(device, *buf + 512, 512, dma::DmaDirection::kToDevice,
                                    "tx_map");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  auto reports = dkasan_.ReportsOfKind(ReportKind::kMultipleMap);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].rights, iommu::AccessRights::kBidirectional);
}

TEST_F(DkasanFixture, UnmapClearsShadow) {
  const DeviceId device = AttachDevice();
  auto buf = machine_.slab().Kmalloc(4096, "driver_io_buf");
  ASSERT_TRUE(buf.ok());
  auto iova = machine_.dma().MapSingle(device, *buf, 4096,
                                       dma::DmaDirection::kFromDevice, "drv_map");
  ASSERT_TRUE(iova.ok());
  ASSERT_TRUE(machine_.dma()
                  .UnmapSingle(device, *iova, 4096, dma::DmaDirection::kFromDevice)
                  .ok());
  dkasan_.ClearReports();
  ASSERT_TRUE(machine_.kmem().WriteU64(*buf, 1).ok());
  auto late = machine_.slab().Kmalloc(4096, "late");
  ASSERT_TRUE(late.ok());
  EXPECT_TRUE(dkasan_.reports().empty());
}

TEST_F(DkasanFixture, ReportLineMatchesFigure3Format) {
  Report report;
  report.kind = ReportKind::kAllocAfterMap;
  report.size = 512;
  report.rights = iommu::AccessRights::kBidirectional;
  report.site = "__alloc_skb+0xe0/0x3f0";
  EXPECT_EQ(report.ToLine(1).substr(0, 45),
            "[1] size 512 [READ, WRITE] __alloc_skb+0xe0/0");
}

TEST_F(DkasanFixture, DedupSuppressesRepeats) {
  dkasan_.set_dedup(true);
  const DeviceId device = AttachDevice();
  for (int i = 0; i < 5; ++i) {
    auto buf = machine_.slab().Kmalloc(2048, "dup_site");
    ASSERT_TRUE(buf.ok());
    auto a = machine_.dma().MapSingle(device, *buf, 256, dma::DmaDirection::kFromDevice,
                                      "map_site");
    auto b = machine_.dma().MapSingle(device, *buf + 1024, 256,
                                      dma::DmaDirection::kFromDevice, "map_site");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
  }
  EXPECT_EQ(dkasan_.count(ReportKind::kMultipleMap), 1u);
}

TEST_F(DkasanFixture, DestructionLeavesTheHub) {
  const size_t sinks_before = machine_.telemetry().sink_count();
  {
    DKasan scoped{machine_.layout()};
    scoped.Attach(machine_.slab());
    scoped.Attach(machine_.dma());
    scoped.Attach(machine_.frag_pool(CpuId{0}));
    // Three sources on one Hub: the sanitizer joins it once.
    EXPECT_EQ(machine_.telemetry().sink_count(), sinks_before + 1);
  }
  EXPECT_EQ(machine_.telemetry().sink_count(), sinks_before);

  // The sources outlive the sanitizer; their events reach no dangling sink.
  const DeviceId device = AttachDevice();
  auto buf = machine_.slab().Kmalloc(512, "after_scope");
  ASSERT_TRUE(buf.ok());
  auto iova = machine_.dma().MapSingle(device, *buf, 512, dma::DmaDirection::kFromDevice,
                                       "after_scope_map");
  ASSERT_TRUE(iova.ok());
  ASSERT_TRUE(
      machine_.dma().UnmapSingle(device, *iova, 512, dma::DmaDirection::kFromDevice).ok());
  ASSERT_TRUE(machine_.slab().Kfree(*buf).ok());
}

TEST_F(DkasanFixture, FragTrafficCountsOnlyOnceThePoolIsAttached) {
  // The fixture attached slab and dma only. The frag pool publishes on the
  // same Hub, but its events belong to a source D-KASAN never attached.
  const DeviceId device = AttachDevice();
  slab::PageFragPool& pool = machine_.frag_pool(CpuId{0});
  auto mapped = pool.Alloc(512, 1, "rx_frag");
  ASSERT_TRUE(mapped.ok());
  auto iova = machine_.dma().MapSingle(device, *mapped, 512, dma::DmaDirection::kFromDevice,
                                       "rx_map");
  ASSERT_TRUE(iova.ok());
  auto unseen = pool.Alloc(512, 1, "unattached_frag");
  ASSERT_TRUE(unseen.ok());
  ASSERT_EQ(unseen->PageBase(), mapped->PageBase());
  EXPECT_EQ(dkasan_.count(ReportKind::kAllocAfterMap), 0u);

  dkasan_.Attach(pool);
  auto seen = pool.Alloc(512, 1, "attached_frag");
  ASSERT_TRUE(seen.ok());
  ASSERT_EQ(seen->PageBase(), mapped->PageBase());
  auto reports = dkasan_.ReportsOfKind(ReportKind::kAllocAfterMap);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kva, *seen);
  EXPECT_EQ(reports[0].site, "attached_frag");

  ASSERT_TRUE(
      machine_.dma().UnmapSingle(device, *iova, 512, dma::DmaDirection::kFromDevice).ok());
  for (Kva frag : {*mapped, *unseen, *seen}) {
    ASSERT_TRUE(pool.Free(frag).ok());
  }
}

TEST(DkasanWorkloadTest, RouterWorkloadSurfacesForwardingExposures) {
  core::MachineConfig config;
  config.seed = 17;
  config.net.forwarding_enabled = true;
  core::Machine machine{config};
  DKasan dkasan{machine.layout()};
  dkasan.Attach(machine.slab());
  dkasan.Attach(machine.dma());
  net::NicDriver::Config driver_config;
  driver_config.rx_ring_size = 16;
  driver_config.rx_buf_len = 1728;
  net::NicDriver& nic = machine.AddNicDriver(driver_config);
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);
  dkasan.Attach(machine.frag_pool(CpuId{0}));

  auto stats = RunRouterWorkload(machine, nic, device, {.iterations = 200});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->rx_packets, 100u);
  EXPECT_GT(stats->tx_packets, 50u);
  // Forwarded frags re-map RX pages for TX: multiple-map findings.
  EXPECT_GT(dkasan.count(ReportKind::kMultipleMap), 0u);
}

TEST(DkasanWorkloadTest, RouterWorkloadRequiresForwarding) {
  core::MachineConfig config;
  config.seed = 18;
  core::Machine machine{config};
  net::NicDriver& nic = machine.AddNicDriver({});
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  EXPECT_FALSE(RunRouterWorkload(machine, nic, device, {}).ok());
}

TEST(DkasanWorkloadTest, StorageWorkloadSurfacesTypeDExposures) {
  core::MachineConfig config;
  config.seed = 19;
  core::Machine machine{config};
  DKasan dkasan{machine.layout()};
  dkasan.Attach(machine.slab());
  dkasan.Attach(machine.dma());

  auto stats = RunStorageWorkload(machine, DeviceId{30}, {.iterations = 300});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->rx_packets, 100u);  // I/Os submitted
  // Filesystem metadata co-located with BIDIRECTIONAL I/O buffers.
  const uint64_t exposures = dkasan.count(ReportKind::kMapAfterAlloc) +
                             dkasan.count(ReportKind::kAllocAfterMap);
  EXPECT_GT(exposures, 0u);
  // The exposed sites include real filesystem metadata.
  bool fs_site = false;
  for (const Report& report : dkasan.reports()) {
    if (report.site.find("inode") != std::string::npos ||
        report.site.find("jbd2") != std::string::npos ||
        report.site.find("d_alloc") != std::string::npos ||
        report.site.find("ext4") != std::string::npos) {
      fs_site = true;
    }
  }
  EXPECT_TRUE(fs_site) << dkasan.FormatReport();
}

TEST(DkasanWorkloadTest, BuildAndPingWorkloadReproducesFigure3) {
  core::MachineConfig config;
  config.seed = 7;
  config.iommu.mode = iommu::InvalidationMode::kDeferred;  // Linux default
  core::Machine machine{config};
  DKasan dkasan{machine.layout()};
  dkasan.Attach(machine.slab());
  dkasan.Attach(machine.dma());

  net::NicDriver::Config driver_config;
  driver_config.rx_ring_size = 16;
  driver_config.rx_buf_len = 1728;
  net::NicDriver& nic = machine.AddNicDriver(driver_config);
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);
  dkasan.Attach(machine.frag_pool(CpuId{0}));

  auto stats = RunBuildAndPingWorkload(machine, nic, device, {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->allocs, 100u);
  EXPECT_GT(stats->rx_packets, 10u);
  EXPECT_GT(stats->tx_packets, 5u);

  // The workload must surface random exposures: at minimum access-after-map
  // (drivers parse mapped RX pages) and multiple-map (page_frag co-location).
  EXPECT_GT(dkasan.count(ReportKind::kAccessAfterMap), 0u);
  EXPECT_GT(dkasan.count(ReportKind::kMultipleMap), 0u);
  EXPECT_GT(dkasan.count(ReportKind::kMapAfterAlloc) +
                dkasan.count(ReportKind::kAllocAfterMap),
            0u);

  const std::string text = dkasan.FormatReport();
  EXPECT_NE(text.find("D-KASAN report"), std::string::npos);
  EXPECT_NE(text.find("size"), std::string::npos);
}

}  // namespace
}  // namespace spv::dkasan
