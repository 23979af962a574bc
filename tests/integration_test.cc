// Cross-module integration tests: the detection tools against the live
// simulator (static findings confirmed dynamically, and the type (d) blind
// spot D-KASAN exists to cover), boot determinism, GRO multi-flow behaviour,
// and IOTLB statistics sanity.

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/machine.h"
#include "device/device_port.h"
#include "dkasan/dkasan.h"
#include "net/gro.h"
#include "spade/analyzer.h"
#include "spade/corpus.h"
#include "test_device.h"

namespace spv {
namespace {

using spv::testing::TestNicDevice;

// ---- SPADE finding confirmed live ---------------------------------------------------

TEST(ToolValidationTest, SpadeTypeAFindingReproducesInSimulator) {
  // SPADE statically flags nvme_fc's &op->rsp_iu mapping as exposing the op
  // struct's callback. Construct the equivalent situation in the simulator
  // and verify the callback really is device-writable.
  spade::SpadeAnalyzer analyzer;
  auto stats = spade::LoadCorpusDirectory(analyzer, spade::DefaultCorpusDir());
  ASSERT_TRUE(stats.ok());
  auto findings = analyzer.Analyze();
  ASSERT_TRUE(findings.ok());
  const spade::SiteFinding* nvme = nullptr;
  for (const auto& finding : *findings) {
    if (finding.file == "nvme_fc.c" && finding.callbacks_exposed) {
      nvme = &finding;
      break;
    }
  }
  ASSERT_NE(nvme, nullptr);
  const spade::StructLayout* layout = analyzer.layout_db().Find(nvme->exposed_struct);
  ASSERT_NE(layout, nullptr);

  // Find the rsp_iu and done-callback offsets from the layout DB (pahole).
  uint64_t rsp_iu_off = 0;
  bool found_rsp = false;
  for (const auto& field : layout->fields) {
    if (field.name == "rsp_iu") {
      rsp_iu_off = field.offset;
      found_rsp = true;
    }
  }
  ASSERT_TRUE(found_rsp);
  const spade::StructLayout* req = analyzer.layout_db().Find("nvmefc_fcp_req");
  ASSERT_NE(req, nullptr);
  uint64_t done_off = 0;
  for (const auto& field : req->fields) {
    if (field.name == "done") {
      done_off = field.offset;  // fcp_req is at offset 0 of the op struct
    }
  }
  ASSERT_GT(done_off, 0u);

  // Live machine: allocate the "op struct", map only its rsp_iu, and let the
  // device overwrite the done callback — the exact type (a) exploit.
  core::MachineConfig config;
  config.seed = 3030;
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  device::DevicePort port{machine.iommu(), dev};
  Kva op = *machine.slab().Kmalloc(layout->size, "nvme_fc_fcp_op");
  auto iova = machine.dma().MapSingle(dev, op + rsp_iu_off, 96,
                                      dma::DmaDirection::kFromDevice, "nvme_fc_map_op");
  ASSERT_TRUE(iova.ok());
  const int64_t delta = static_cast<int64_t>(done_off) - static_cast<int64_t>(rsp_iu_off);
  std::vector<uint8_t> poison(8, 0x66);
  ASSERT_TRUE(port.Write(Iova{static_cast<uint64_t>(
                             static_cast<int64_t>(iova->value) + delta)},
                         poison)
                  .ok())
      << "SPADE flagged it; the simulator must expose it";
  EXPECT_EQ(*machine.kmem().ReadU64(op + done_off), 0x6666666666666666ULL);
}

TEST(ToolValidationTest, DkasanCoversSpadesTypeDBlindSpot) {
  // §4.2: kmalloc co-location is invisible to static analysis — SPADE sees a
  // clean heap mapping, D-KASAN reports the exposure at run time.
  auto findings = [] {
    spade::SpadeAnalyzer analyzer;
    auto stats = spade::LoadCorpusDirectory(analyzer, spade::DefaultCorpusDir());
    EXPECT_TRUE(stats.ok());
    auto result = analyzer.Analyze();
    EXPECT_TRUE(result.ok());
    return std::move(*result);
  }();
  // SPADE: the clean_nvme_pci sites carry no static flags.
  for (const auto& finding : findings) {
    if (finding.file == "clean_nvme_pci.c") {
      EXPECT_FALSE(finding.callbacks_exposed);
      EXPECT_FALSE(finding.shared_info_mapped);
      EXPECT_FALSE(finding.unresolved);
    }
  }

  // D-KASAN: the same pattern at run time (kmalloc buffer mapped, another
  // object on its page) is reported.
  core::MachineConfig config;
  config.seed = 3131;
  core::Machine machine{config};
  dkasan::DKasan dkasan{machine.layout()};
  dkasan.Attach(machine.slab());
  dkasan.Attach(machine.dma());
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva prp_list = *machine.slab().Kmalloc(1024, "nvme_pci_setup_prps");
  Kva inode = *machine.slab().Kmalloc(1024, "sock_alloc_inode+0x4f/0x120");
  (void)inode;
  auto iova = machine.dma().MapSingle(dev, prp_list, 1024, dma::DmaDirection::kToDevice,
                                      "nvme_pci_map");
  ASSERT_TRUE(iova.ok());
  EXPECT_GE(dkasan.count(dkasan::ReportKind::kMapAfterAlloc), 1u);
}

// ---- Boot determinism across the whole machine ---------------------------------------

TEST(DeterminismTest, IdenticalSeedsYieldIdenticalMachines) {
  auto run = [](uint64_t seed) {
    core::MachineConfig config;
    config.seed = seed;
    core::Machine machine{config};
    std::vector<uint64_t> observations;
    observations.push_back(machine.layout().text_base());
    observations.push_back(machine.layout().page_offset_base());
    auto& pool = machine.frag_pool(CpuId{0});
    for (int i = 0; i < 32; ++i) {
      observations.push_back(machine.slab().Kmalloc(512 + i * 8, "det")->value);
      observations.push_back(pool.Alloc(1024, 64, "det")->value);
    }
    return observations;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// ---- Boot cost ---------------------------------------------------------------------------

// Resident set size in bytes from /proc/self/statm, or -1 when unreadable.
int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) {
    return -1;
  }
  return resident_pages * sysconf(_SC_PAGESIZE);
}

TEST(BootCostTest, DefaultMachineDoesNotTouchAllOfItsRam) {
  // Simulated RAM is lazily zeroed host memory: booting touches only the
  // pages the kernel image, allocators and metadata write, not all 64 MiB.
  const int64_t before = ResidentBytes();
  if (before < 0) {
    GTEST_SKIP() << "/proc/self/statm unreadable";
  }
  core::Machine machine{core::MachineConfig{}};
  const int64_t ram_bytes = static_cast<int64_t>(machine.pm().size_bytes());
  ASSERT_EQ(machine.pm().num_pages(), 16384u);
  const int64_t growth = ResidentBytes() - before;
  EXPECT_LT(growth, ram_bytes / 4) << "RSS grew by " << growth << " bytes";
}

// ---- Invariants through the machine audit -------------------------------------------------

// Each state below violates exactly one invariant, and the audit names it.

void ExpectAuditFails(core::Machine& machine, const std::string& message) {
  const Status audit = machine.CheckInvariants();
  EXPECT_FALSE(audit.ok());
  EXPECT_NE(audit.message().find(message), std::string::npos) << audit.message();
}

TEST(InvariantAuditTest, PteOutsideEveryLiveRangeFailsCheckInvariants) {
  // Strict mode frees an unmapped IOVA at once, so the middle of three
  // one-page mappings leaves a gap between two live ranges; a translation
  // installed there behind the allocator's back is a leaked device window.
  core::MachineConfig config;
  config.seed = 78;
  config.iommu.mode = iommu::InvalidationMode::kStrict;
  core::Machine machine{config};
  const DeviceId device{1};
  machine.iommu().AttachDevice(device);
  std::vector<Iova> iovas;
  for (int i = 0; i < 3; ++i) {
    Kva buf = *machine.slab().Kmalloc(512, "audit");
    auto iova =
        machine.dma().MapSingle(device, buf, 512, dma::DmaDirection::kBidirectional, "audit");
    ASSERT_TRUE(iova.ok());
    iovas.push_back(*iova);
  }
  ASSERT_TRUE(
      machine.dma().UnmapSingle(device, iovas[1], 512, dma::DmaDirection::kBidirectional).ok());
  Status clean = machine.CheckInvariants();
  ASSERT_TRUE(clean.ok()) << clean.message();

  auto* table = const_cast<iommu::IoPageTable*>(machine.iommu().page_table(device));
  ASSERT_TRUE(table->Map(iovas[1].PageBase(), Pfn{2000}, iommu::AccessRights::kRead).ok());
  ExpectAuditFails(machine, "outside every live IOVA range");
}

TEST(InvariantAuditTest, StaleIotlbEntryWithNothingPendingFailsCheckInvariants) {
  // A device read caches both pages of a strict-mode range; one PTE then
  // vanishes from the page table without an IOTLB invalidation, and strict
  // mode leaves nothing pending to cover the stale entry.
  core::MachineConfig config;
  config.seed = 79;
  config.iommu.mode = iommu::InvalidationMode::kStrict;
  core::Machine machine{config};
  const DeviceId device{1};
  machine.iommu().AttachDevice(device);
  const Pfn pfns[] = {Pfn{2000}, Pfn{2001}};
  auto base = machine.iommu().MapRange(device, pfns, iommu::AccessRights::kBidirectional);
  ASSERT_TRUE(base.ok());
  std::vector<uint8_t> buf(2 * kPageSize);
  ASSERT_TRUE(machine.iommu().DeviceRead(device, *base, buf).ok());
  Status clean = machine.CheckInvariants();
  ASSERT_TRUE(clean.ok()) << clean.message();

  auto* table = const_cast<iommu::IoPageTable*>(machine.iommu().page_table(device));
  ASSERT_TRUE(table->Unmap(*base + kPageSize).ok());
  ASSERT_EQ(machine.iommu().pending_invalidation_count(), 0u);
  ExpectAuditFails(machine, "with no pending invalidation");
}

TEST(InvariantAuditTest, FreePageOwnedBehindTheAllocatorFailsCheckInvariants) {
  core::MachineConfig config;
  config.seed = 80;
  core::Machine machine{config};
  Status clean = machine.CheckInvariants();
  ASSERT_TRUE(clean.ok()) << clean.message();

  mem::PageDb& db = machine.page_db();
  Pfn pfn{db.num_pages() - 1};
  while (db.owner(pfn) != mem::PageOwner::kFree) {
    ASSERT_GT(pfn.value, 0u);
    pfn = Pfn{pfn.value - 1};
  }
  db.set_owner(pfn, mem::PageOwner::kAnon);
  ExpectAuditFails(machine, "free pages but the allocator reports");
}

TEST(InvariantAuditTest, PendingRangeFreedBehindFlushQueueFailsCheckInvariants) {
  // Two devices in separate domains, deferred mode: each has deferred unmaps
  // parked on the flush queue between buffers that stay mapped.
  core::MachineConfig config;
  config.seed = 77;
  config.iommu.mode = iommu::InvalidationMode::kDeferred;
  core::Machine machine{config};
  for (const DeviceId device : {DeviceId{1}, DeviceId{2}}) {
    machine.iommu().AttachDevice(device);
    for (int i = 0; i < 6; ++i) {
      const uint64_t len = 512 + 1024 * i;
      Kva buf = *machine.slab().Kmalloc(len, "audit");
      auto iova =
          machine.dma().MapSingle(device, buf, len, dma::DmaDirection::kBidirectional, "audit");
      ASSERT_TRUE(iova.ok());
      if (i % 2 == 0) {
        ASSERT_TRUE(
            machine.dma().UnmapSingle(device, *iova, len, dma::DmaDirection::kBidirectional).ok());
      }
    }
  }
  ASSERT_EQ(machine.iommu().pending_invalidation_count(), 6u);
  Status clean = machine.CheckInvariants();
  ASSERT_TRUE(clean.ok()) << clean.message();

  const iommu::Iommu::PendingRange victim = machine.iommu().pending_invalidations()[3];
  auto* alloc = const_cast<iommu::IovaAllocator*>(machine.iommu().iova_allocator(victim.device));
  ASSERT_TRUE(alloc->Free(victim.base, victim.pages).ok());
  Status audit = machine.CheckInvariants();
  EXPECT_FALSE(audit.ok());
  EXPECT_NE(audit.message().find("not parked"), std::string::npos) << audit.message();
}

// ---- GRO multi-flow isolation ----------------------------------------------------------

class GroFlowFixture : public ::testing::Test {
 protected:
  GroFlowFixture() : machine_(MakeConfig()) {
    net::NicDriver::Config config;
    config.rx_ring_size = 64;
    config.rx_buf_len = 1728;
    nic_ = &machine_.AddNicDriver(config);
    device_ = std::make_unique<TestNicDevice>(nic_->device_id(), machine_.iommu());
    nic_->AttachDevice(device_.get());
    EXPECT_TRUE(nic_->FillRxRing().ok());
  }

  static core::MachineConfig MakeConfig() {
    core::MachineConfig config;
    config.seed = 808;
    return config;
  }

  net::SkBuffPtr Rx(uint16_t src_port, uint8_t fill) {
    net::PacketHeader header{.src_ip = 9, .dst_ip = 10, .src_port = src_port,
                             .dst_port = 443, .proto = net::kProtoTcp};
    std::vector<uint8_t> payload(100, fill);
    auto index = device_->InjectRx(machine_.kmem(), header, payload);
    EXPECT_TRUE(index.ok());
    auto skb = nic_->CompleteRx(*index, net::PacketHeader::kSize + 100);
    EXPECT_TRUE(skb.ok());
    return std::move(*skb);
  }

  void TearDown() override {
    Status invariants = machine_.CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.message();
  }

  core::Machine machine_;
  net::NicDriver* nic_ = nullptr;
  std::unique_ptr<TestNicDevice> device_;
};

TEST_F(GroFlowFixture, ConcurrentFlowsStaySeparate) {
  net::GroEngine gro{machine_.kmem(), machine_.skb_alloc()};
  // Interleave two flows; each must aggregate independently.
  for (int round = 0; round < 3; ++round) {
    for (uint16_t port : {uint16_t{1000}, uint16_t{2000}}) {
      auto out = gro.Receive(Rx(port, port == 1000 ? 0x11 : 0x22));
      ASSERT_TRUE(out.ok());
      EXPECT_EQ(out->get(), nullptr);
    }
  }
  EXPECT_EQ(gro.held_flows(), 2u);
  auto flushed = gro.FlushAll();
  ASSERT_EQ(flushed.size(), 2u);
  for (auto& skb : flushed) {
    net::SharedInfoView shinfo{machine_.kmem(), skb->shared_info()};
    EXPECT_EQ(*shinfo.nr_frags(), 2);  // 3 segments: head + 2 frags
    auto payload = machine_.stack().ReadPayload(*skb);
    ASSERT_TRUE(payload.ok());
    ASSERT_EQ(payload->size(), 300u);
    // Homogeneous fill proves no cross-flow contamination.
    for (uint8_t b : *payload) {
      ASSERT_TRUE(b == 0x11 || b == 0x22);
      ASSERT_EQ(b, (*payload)[0]);
    }
    ASSERT_TRUE(machine_.skb_alloc().FreeSkb(std::move(skb), nullptr).ok());
  }
}

// ---- IOTLB statistics sanity -----------------------------------------------------------

TEST(IotlbStatsTest, RepeatedAccessHitsCache) {
  core::MachineConfig config;
  config.seed = 909;
  config.iommu.mode = iommu::InvalidationMode::kStrict;
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(4096, "hot");
  auto iova = machine.dma().MapSingle(dev, buf, 4096, dma::DmaDirection::kBidirectional,
                                      "hot_map");
  ASSERT_TRUE(iova.ok());
  std::vector<uint8_t> data(64, 1);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(machine.iommu().DeviceWrite(dev, *iova, data).ok());
  }
  // First access misses (page walk), the other 99 hit.
  EXPECT_EQ(machine.iommu().iotlb().misses(), 1u);
  EXPECT_EQ(machine.iommu().iotlb().hits(), 99u);
}

}  // namespace
}  // namespace spv
