// Tests for the DMA API layer: Linux dma_map semantics, sub-page exposure,
// mapping tracking, the events it publishes, and the KernelMemory CPU-access
// path.

#include <gtest/gtest.h>

#include <vector>

#include "base/clock.h"
#include "base/rng.h"
#include "dma/dma_api.h"
#include "dma/kernel_memory.h"
#include "iommu/iommu.h"
#include "mem/kernel_layout.h"
#include "mem/phys_memory.h"
#include "telemetry/telemetry.h"

namespace spv::dma {
namespace {

constexpr DeviceId kNic{1};
constexpr uint64_t kPages = 512;

class DmaFixture : public ::testing::Test {
 protected:
  DmaFixture()
      : pm_(kPages),
        layout_(MakeLayout()),
        iommu_(pm_, clock_, {.mode = iommu::InvalidationMode::kStrict}),
        dma_(iommu_, layout_),
        kmem_(pm_, layout_, dma_) {
    iommu_.AttachDevice(kNic);
  }

  static mem::KernelLayout MakeLayout() {
    Xoshiro256 rng{55};
    return mem::KernelLayout::Create(kPages, /*kaslr=*/true, rng);
  }

  Kva KvaOf(Pfn pfn, uint64_t offset = 0) {
    return layout_.PhysToDirectMapKva(PhysAddr::FromPfn(pfn, offset));
  }

  mem::PhysicalMemory pm_;
  SimClock clock_;
  mem::KernelLayout layout_;
  iommu::Iommu iommu_;
  DmaApi dma_;
  KernelMemory kmem_;
};

TEST_F(DmaFixture, DirectionToRightsMapping) {
  EXPECT_EQ(RightsFor(DmaDirection::kToDevice), iommu::AccessRights::kRead);
  EXPECT_EQ(RightsFor(DmaDirection::kFromDevice), iommu::AccessRights::kWrite);
  EXPECT_EQ(RightsFor(DmaDirection::kBidirectional), iommu::AccessRights::kBidirectional);
}

TEST_F(DmaFixture, MapPreservesSubPageOffset) {
  const Kva kva = KvaOf(Pfn{100}, 0x2c0);
  auto iova = dma_.MapSingle(kNic, kva, 64, DmaDirection::kFromDevice);
  ASSERT_TRUE(iova.ok());
  // Footnote 5: the low 12 bits of the IOVA equal the KVA's page offset.
  EXPECT_EQ(iova->page_offset(), 0x2c0u);
}

TEST_F(DmaFixture, MappedBufferIsDeviceAccessible) {
  const Kva kva = KvaOf(Pfn{100}, 128);
  auto iova = dma_.MapSingle(kNic, kva, 256, DmaDirection::kFromDevice);
  ASSERT_TRUE(iova.ok());
  std::vector<uint8_t> data(256, 0x77);
  ASSERT_TRUE(iommu_.DeviceWrite(kNic, *iova, data).ok());
  EXPECT_EQ(*kmem_.ReadU8(kva), 0x77);
  EXPECT_EQ(*kmem_.ReadU8(kva + 255), 0x77);
}

TEST_F(DmaFixture, WholePageExposedBeyondBufferBounds) {
  // §9.1: dma_map_single(ptr, len) actually exposes the whole page.
  const Kva buffer = KvaOf(Pfn{101}, 1024);
  ASSERT_TRUE(kmem_.WriteU64(KvaOf(Pfn{101}, 3072), 0x5ec2e7).ok());  // secret elsewhere on page
  auto iova = dma_.MapSingle(kNic, buffer, 100, DmaDirection::kBidirectional);
  ASSERT_TRUE(iova.ok());
  std::vector<uint8_t> leak(8);
  // Device reads 2 KiB past the mapped buffer, still on the same page.
  ASSERT_TRUE(iommu_.DeviceRead(kNic, iova->PageBase() + 3072, std::span<uint8_t>(leak)).ok());
  uint64_t value;
  std::memcpy(&value, leak.data(), 8);
  EXPECT_EQ(value, 0x5ec2e7u);
}

TEST_F(DmaFixture, BufferSpanningPagesMapsAllOfThem) {
  const Kva kva = KvaOf(Pfn{102}, kPageSize - 100);
  auto iova = dma_.MapSingle(kNic, kva, 300, DmaDirection::kFromDevice);
  ASSERT_TRUE(iova.ok());
  auto mapping = dma_.FindMapping(kNic, *iova);
  ASSERT_TRUE(mapping.has_value());
  EXPECT_EQ(mapping->pages(), 2u);
  EXPECT_EQ(mapping->exposed_bytes(), 2 * kPageSize);
  std::vector<uint8_t> data(300, 1);
  EXPECT_TRUE(iommu_.DeviceWrite(kNic, *iova, data).ok());
  EXPECT_EQ(*kmem_.ReadU8(KvaOf(Pfn{103}, 199)), 1);
}

TEST_F(DmaFixture, UnmapRevokes) {
  const Kva kva = KvaOf(Pfn{104});
  auto iova = dma_.MapSingle(kNic, kva, 512, DmaDirection::kFromDevice);
  ASSERT_TRUE(iova.ok());
  ASSERT_TRUE(dma_.UnmapSingle(kNic, *iova, 512, DmaDirection::kFromDevice).ok());
  std::vector<uint8_t> data(8, 1);
  EXPECT_FALSE(iommu_.DeviceWrite(kNic, *iova, data).ok());
  EXPECT_EQ(dma_.live_mappings(), 0u);
}

TEST_F(DmaFixture, UnmapValidatesArguments) {
  const Kva kva = KvaOf(Pfn{105});
  auto iova = dma_.MapSingle(kNic, kva, 512, DmaDirection::kFromDevice);
  ASSERT_TRUE(iova.ok());
  EXPECT_FALSE(dma_.UnmapSingle(kNic, *iova, 256, DmaDirection::kFromDevice).ok());
  EXPECT_FALSE(dma_.UnmapSingle(kNic, *iova, 512, DmaDirection::kToDevice).ok());
  EXPECT_FALSE(dma_.UnmapSingle(kNic, *iova + kPageSize, 512, DmaDirection::kFromDevice).ok());
  EXPECT_TRUE(dma_.UnmapSingle(kNic, *iova, 512, DmaDirection::kFromDevice).ok());
  EXPECT_FALSE(dma_.UnmapSingle(kNic, *iova, 512, DmaDirection::kFromDevice).ok());
}

TEST_F(DmaFixture, StaleHandleCannotUnmapTheMappingThatReusedItsPage) {
  // Strict mode recycles a freed IOVA at once, so a second 64 B mapping with
  // the same direction, at page offset 0x800, lands on the first one's IOVA
  // page. The first handle is now stale: unmapping through it must fail and
  // leave the new mapping translating.
  auto first = dma_.MapSingle(kNic, KvaOf(Pfn{110}), 64, DmaDirection::kFromDevice);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(dma_.UnmapSingle(kNic, *first, 64, DmaDirection::kFromDevice).ok());
  auto second = dma_.MapSingle(kNic, KvaOf(Pfn{111}, 0x800), 64, DmaDirection::kFromDevice);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->PageBase(), first->PageBase());
  ASSERT_NE(second->value, first->value);

  EXPECT_EQ(dma_.UnmapSingle(kNic, *first, 64, DmaDirection::kFromDevice).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(dma_.live_mappings(), 1u);
  std::vector<uint8_t> data(8, 0x5a);
  EXPECT_TRUE(iommu_.DeviceWrite(kNic, *second, data).ok());
  EXPECT_EQ(*kmem_.ReadU8(KvaOf(Pfn{111}, 0x800)), 0x5a);
  EXPECT_TRUE(dma_.UnmapSingle(kNic, *second, 64, DmaDirection::kFromDevice).ok());
  EXPECT_EQ(dma_.live_mappings(), 0u);
}

TEST_F(DmaFixture, ZeroLengthRejected) {
  EXPECT_FALSE(dma_.MapSingle(kNic, KvaOf(Pfn{106}), 0, DmaDirection::kToDevice).ok());
}

TEST_F(DmaFixture, NonDirectMapKvaRejected) {
  EXPECT_FALSE(dma_.MapSingle(kNic, Kva{0xffffffff81000000ULL}, 64,
                              DmaDirection::kToDevice).ok());
}

TEST_F(DmaFixture, CoLocatedBuffersCreateIovaAliases) {
  // Two sub-page buffers on one page, mapped separately: the page is now
  // reachable through two IOVAs (type (c)).
  const Kva a = KvaOf(Pfn{107}, 0);
  const Kva b = KvaOf(Pfn{107}, 2048);
  auto iova_a = dma_.MapSingle(kNic, a, 2048, DmaDirection::kFromDevice);
  auto iova_b = dma_.MapSingle(kNic, b, 2048, DmaDirection::kFromDevice);
  ASSERT_TRUE(iova_a.ok());
  ASSERT_TRUE(iova_b.ok());
  EXPECT_EQ(iommu_.IovasForPfn(kNic, Pfn{107}).size(), 2u);
  EXPECT_EQ(dma_.MappingsForPfn(Pfn{107}).size(), 2u);

  // Unmapping `a` does not stop the device from reaching a's bytes: it
  // simply writes through b's IOVA at a's offset.
  ASSERT_TRUE(dma_.UnmapSingle(kNic, *iova_a, 2048, DmaDirection::kFromDevice).ok());
  std::vector<uint8_t> data(4, 0x66);
  ASSERT_TRUE(iommu_.DeviceWrite(kNic, iova_b->PageBase(), data).ok());
  EXPECT_EQ(*kmem_.ReadU8(a), 0x66);
}

TEST_F(DmaFixture, SgListMapsEachEntry) {
  std::vector<SgEntry> sg{{KvaOf(Pfn{108}, 0), 1000},
                          {KvaOf(Pfn{109}, 512), 1000},
                          {KvaOf(Pfn{110}, 100), 64}};
  auto iovas = dma_.MapSg(kNic, sg, DmaDirection::kToDevice);
  ASSERT_TRUE(iovas.ok());
  ASSERT_EQ(iovas->size(), 3u);
  EXPECT_EQ(dma_.live_mappings(), 3u);
  for (size_t i = 0; i < sg.size(); ++i) {
    EXPECT_EQ((*iovas)[i].page_offset(), sg[i].kva.page_offset());
  }
  ASSERT_TRUE(dma_.UnmapSg(kNic, *iovas, sg, DmaDirection::kToDevice).ok());
  EXPECT_EQ(dma_.live_mappings(), 0u);
}

// Decodes the dma events DmaApi publishes on its hub.
class RecordingDmaSink : public telemetry::EventSink {
 public:
  struct MapEvent {
    Kva kva;
    uint64_t len;
    Iova iova;
    iommu::AccessRights rights;
    std::string site;
  };
  struct AccessEvent {
    Kva kva;
    uint64_t len;
    bool is_write;
  };

  void OnEvent(const telemetry::Event& event) override {
    switch (event.kind) {
      case telemetry::EventKind::kDmaMap:
        maps.push_back({Kva{event.addr}, event.len, Iova{event.addr2},
                        static_cast<iommu::AccessRights>(event.aux), event.site});
        break;
      case telemetry::EventKind::kDmaUnmap:
        unmaps.push_back({Kva{event.addr}, event.len});
        break;
      case telemetry::EventKind::kCpuAccess:
        accesses.push_back({Kva{event.addr}, event.len, event.flag});
        break;
      default:
        break;
    }
  }

  std::vector<MapEvent> maps;
  std::vector<std::pair<Kva, uint64_t>> unmaps;
  std::vector<AccessEvent> accesses;
};

TEST_F(DmaFixture, ObserverSeesMapUnmapWithSite) {
  RecordingDmaSink sink;
  dma_.telemetry().AddSink(&sink);
  const Kva kva = KvaOf(Pfn{111}, 64);
  auto iova = dma_.MapSingle(kNic, kva, 128, DmaDirection::kFromDevice, "e1000_alloc_rx_buf");
  ASSERT_TRUE(iova.ok());
  ASSERT_TRUE(dma_.UnmapSingle(kNic, *iova, 128, DmaDirection::kFromDevice).ok());
  dma_.telemetry().RemoveSink(&sink);
  ASSERT_EQ(sink.maps.size(), 1u);
  EXPECT_EQ(sink.maps[0].kva, kva);
  EXPECT_EQ(sink.maps[0].iova, *iova);
  EXPECT_EQ(sink.maps[0].rights, iommu::AccessRights::kWrite);
  EXPECT_EQ(sink.maps[0].site, "e1000_alloc_rx_buf");
  ASSERT_EQ(sink.unmaps.size(), 1u);
  EXPECT_EQ(sink.unmaps[0].first, kva);
}

TEST_F(DmaFixture, KernelMemoryFiresCpuAccessHook) {
  RecordingDmaSink sink;
  dma_.telemetry().AddSink(&sink);
  const Kva kva = KvaOf(Pfn{112}, 8);
  ASSERT_TRUE(kmem_.WriteU64(kva, 42).ok());
  EXPECT_EQ(*kmem_.ReadU64(kva), 42u);
  dma_.telemetry().RemoveSink(&sink);
  ASSERT_EQ(sink.accesses.size(), 2u);
  EXPECT_TRUE(sink.accesses[0].is_write);
  EXPECT_FALSE(sink.accesses[1].is_write);
  EXPECT_EQ(sink.accesses[0].kva, kva);
  EXPECT_EQ(sink.accesses[0].len, 8u);
}

TEST_F(DmaFixture, SyncRangeMustLieInsideTheMapping) {
  // A 256-byte buffer at a sub-page offset: its whole page is mapped, but a
  // sync may only cover the buffer's own bytes, as on the bounce path.
  constexpr DmaDirection kDir = DmaDirection::kFromDevice;
  const Kva kva = KvaOf(Pfn{114}, 0x100);
  auto iova = dma_.MapSingle(kNic, kva, 256, kDir);
  ASSERT_TRUE(iova.ok());

  // Past the end: [iova + 200, +100) overruns the buffer by 44 bytes.
  EXPECT_FALSE(dma_.SyncSingleForCpu(kNic, *iova + 200, 100, kDir).ok());
  EXPECT_FALSE(dma_.SyncSingleForDevice(kNic, *iova + 200, 100, kDir).ok());
  // Before the start: the same page, 64 bytes below the buffer.
  const Iova before{iova->value - 64};
  EXPECT_FALSE(dma_.SyncSingleForCpu(kNic, before, 64, kDir).ok());
  EXPECT_FALSE(dma_.SyncSingleForDevice(kNic, before, 64, kDir).ok());

  // An in-range partial sync hands the CPU exactly the synced bytes.
  RecordingDmaSink sink;
  dma_.telemetry().AddSink(&sink);
  EXPECT_TRUE(dma_.SyncSingleForCpu(kNic, *iova + 64, 64, kDir).ok());
  EXPECT_TRUE(dma_.SyncSingleForDevice(kNic, *iova + 64, 64, kDir).ok());
  dma_.telemetry().RemoveSink(&sink);
  ASSERT_EQ(sink.accesses.size(), 1u);
  EXPECT_EQ(sink.accesses[0].kva, kva + 64);
  EXPECT_EQ(sink.accesses[0].len, 64u);
  EXPECT_FALSE(sink.accesses[0].is_write);

  // The whole buffer, and its last byte alone, still sync.
  EXPECT_TRUE(dma_.SyncSingleForCpu(kNic, *iova, 256, kDir).ok());
  EXPECT_TRUE(dma_.SyncSingleForDevice(kNic, *iova + 255, 1, kDir).ok());
  ASSERT_TRUE(dma_.UnmapSingle(kNic, *iova, 256, kDir).ok());
}

TEST_F(DmaFixture, KernelMemoryScalarAndBulkRoundTrip) {
  const Kva kva = KvaOf(Pfn{113}, 100);
  ASSERT_TRUE(kmem_.WriteU32(kva, 0xabcd1234).ok());
  EXPECT_EQ(*kmem_.ReadU32(kva), 0xabcd1234u);
  ASSERT_TRUE(kmem_.WriteU16(kva + 4, 0xbeef).ok());
  EXPECT_EQ(*kmem_.ReadU16(kva + 4), 0xbeef);
  ASSERT_TRUE(kmem_.Fill(kva + 8, 16, 0x11).ok());
  std::vector<uint8_t> buf(16);
  ASSERT_TRUE(kmem_.Read(kva + 8, std::span<uint8_t>(buf)).ok());
  for (uint8_t b : buf) {
    EXPECT_EQ(b, 0x11);
  }
  ASSERT_TRUE(kmem_.Copy(kva + 64, kva, 8).ok());
  EXPECT_EQ(*kmem_.ReadU32(kva + 64), 0xabcd1234u);
}

TEST_F(DmaFixture, KernelMemoryRejectsNonDirectMapKva) {
  EXPECT_FALSE(kmem_.ReadU64(Kva{0xffffffff81000000ULL}).ok());
  EXPECT_FALSE(kmem_.WriteU8(Kva{0x1234}, 1).ok());
}

// Parameterized over direction: mapping rights must match, and the paper's
// WRITE!=READ asymmetry must hold end-to-end through the DMA API.
class DirectionTest : public ::testing::TestWithParam<DmaDirection> {};

TEST_P(DirectionTest, EndToEndRightsEnforcement) {
  const DmaDirection dir = GetParam();
  mem::PhysicalMemory pm{kPages};
  SimClock clock;
  Xoshiro256 rng{77};
  mem::KernelLayout layout = mem::KernelLayout::Create(kPages, true, rng);
  iommu::Iommu iommu{pm, clock, {.mode = iommu::InvalidationMode::kStrict}};
  iommu.AttachDevice(kNic);
  DmaApi dma{iommu, layout};

  const Kva kva = layout.PhysToDirectMapKva(PhysAddr::FromPfn(Pfn{50}));
  auto iova = dma.MapSingle(kNic, kva, 1024, dir);
  ASSERT_TRUE(iova.ok());

  std::vector<uint8_t> buf(16, 0x3c);
  const bool can_read = iommu.DeviceRead(kNic, *iova, std::span<uint8_t>(buf)).ok();
  const bool can_write = iommu.DeviceWrite(kNic, *iova, buf).ok();
  EXPECT_EQ(can_read, dir != DmaDirection::kFromDevice);
  EXPECT_EQ(can_write, dir != DmaDirection::kToDevice);
}

INSTANTIATE_TEST_SUITE_P(AllDirections, DirectionTest,
                         ::testing::Values(DmaDirection::kToDevice, DmaDirection::kFromDevice,
                                           DmaDirection::kBidirectional));

}  // namespace
}  // namespace spv::dma
