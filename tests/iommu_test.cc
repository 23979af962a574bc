// Tests for the IOMMU module: page tables, IOTLB, IOVA allocation, and the
// strict/deferred invalidation semantics at the heart of §5.2.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "base/clock.h"
#include "base/rng.h"
#include "fault/fault.h"
#include "iommu/access_rights.h"
#include "iommu/io_page_table.h"
#include "iommu/iommu.h"
#include "iommu/iotlb.h"
#include "iommu/iova_allocator.h"
#include "mem/phys_memory.h"
#include "telemetry/telemetry.h"

namespace spv::iommu {
namespace {

constexpr DeviceId kNic{1};
constexpr DeviceId kFirewire{2};

// ---- AccessRights -------------------------------------------------------------

TEST(AccessRightsTest, WriteDoesNotImplyRead) {
  EXPECT_TRUE(Permits(AccessRights::kWrite, AccessOp::kWrite));
  EXPECT_FALSE(Permits(AccessRights::kWrite, AccessOp::kRead));
  EXPECT_TRUE(Permits(AccessRights::kRead, AccessOp::kRead));
  EXPECT_FALSE(Permits(AccessRights::kRead, AccessOp::kWrite));
  EXPECT_TRUE(Permits(AccessRights::kBidirectional, AccessOp::kRead));
  EXPECT_TRUE(Permits(AccessRights::kBidirectional, AccessOp::kWrite));
  EXPECT_FALSE(Permits(AccessRights::kNone, AccessOp::kRead));
}

TEST(AccessRightsTest, OrComposes) {
  EXPECT_EQ(AccessRights::kRead | AccessRights::kWrite, AccessRights::kBidirectional);
}

// ---- IoPageTable ----------------------------------------------------------------

TEST(IoPageTableTest, MapLookupUnmap) {
  IoPageTable table;
  Iova iova{0xfffff000};
  ASSERT_TRUE(table.Map(iova, Pfn{42}, AccessRights::kRead).ok());
  auto entry = table.Lookup(iova);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->pfn.value, 42u);
  EXPECT_EQ(entry->rights, AccessRights::kRead);
  auto removed = table.Unmap(iova);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed->pfn.value, 42u);
  EXPECT_FALSE(table.Lookup(iova).has_value());
}

TEST(IoPageTableTest, DoubleMapRejected) {
  IoPageTable table;
  Iova iova{0x1000};
  ASSERT_TRUE(table.Map(iova, Pfn{1}, AccessRights::kWrite).ok());
  EXPECT_EQ(table.Map(iova, Pfn{2}, AccessRights::kWrite).code(), StatusCode::kAlreadyExists);
}

TEST(IoPageTableTest, UnmapOfUnmappedRejected) {
  IoPageTable table;
  EXPECT_FALSE(table.Unmap(Iova{0x1000}).ok());
  ASSERT_TRUE(table.Map(Iova{0x1000}, Pfn{1}, AccessRights::kRead).ok());
  EXPECT_FALSE(table.Unmap(Iova{0x2000}).ok());
}

TEST(IoPageTableTest, MapWithNoRightsRejected) {
  IoPageTable table;
  EXPECT_FALSE(table.Map(Iova{0x1000}, Pfn{1}, AccessRights::kNone).ok());
}

TEST(IoPageTableTest, DistantIovasDoNotCollide) {
  IoPageTable table;
  // Same level-0 index, different upper levels.
  Iova a{0x1000};
  Iova b{0x1000 + (1ull << 21)};
  Iova c{0x1000 + (1ull << 30)};
  Iova d{0x1000 + (1ull << 39)};
  for (auto [iova, pfn] : {std::pair{a, 1ull}, {b, 2ull}, {c, 3ull}, {d, 4ull}}) {
    ASSERT_TRUE(table.Map(iova, Pfn{pfn}, AccessRights::kRead).ok());
  }
  EXPECT_EQ(table.Lookup(a)->pfn.value, 1u);
  EXPECT_EQ(table.Lookup(b)->pfn.value, 2u);
  EXPECT_EQ(table.Lookup(c)->pfn.value, 3u);
  EXPECT_EQ(table.Lookup(d)->pfn.value, 4u);
  EXPECT_EQ(table.mapped_pages(), 4u);
}

TEST(IoPageTableTest, FindIovasForPfnFindsAllAliases) {
  IoPageTable table;
  ASSERT_TRUE(table.Map(Iova{0x10000}, Pfn{7}, AccessRights::kRead).ok());
  ASSERT_TRUE(table.Map(Iova{0x20000}, Pfn{7}, AccessRights::kWrite).ok());
  ASSERT_TRUE(table.Map(Iova{0x30000}, Pfn{8}, AccessRights::kRead).ok());
  auto aliases = table.FindIovasForPfn(Pfn{7});
  std::set<uint64_t> values;
  for (Iova iova : aliases) {
    values.insert(iova.value);
  }
  EXPECT_EQ(values, (std::set<uint64_t>{0x10000, 0x20000}));
}

// ForEachMapping walks only the slots its occupancy bitmaps mark present, so
// a bit left out of step with the entries would hide a PTE from the
// containment audit without any error. Seeded Map/Unmap churn over four leaf
// nodes (two share a level-1 node, one hangs off another level-1 node, one
// off another top-level slot), checked against a reference map after the
// churn, after emptying one leaf and after refilling it.
TEST(IoPageTableTest, ForEachMappingVisitsExactlyTheMappedPagesAfterChurn) {
  constexpr uint64_t kLeafBases[] = {0, 512, uint64_t{512} * 512 + 1024,
                                     uint64_t{512} * 512 * 512 + 2048};  // in pages
  // Bitmap word boundaries plus interior slots; few enough that churn keeps
  // hitting occupied slots.
  constexpr uint64_t kSlots[] = {0, 1, 62, 63, 64, 65, 127, 128, 200, 255,
                                 256, 319, 320, 383, 448, 500, 510, 511};
  IoPageTable table;
  std::map<uint64_t, PteEntry> model;  // iova -> entry
  Xoshiro256 rng{2024};
  auto iova_at = [&](size_t leaf, uint64_t slot) {
    return Iova{(kLeafBases[leaf] + slot) << kPageShift};
  };
  auto map = [&](Iova iova) {
    const PteEntry entry{Pfn{rng.NextBelow(1 << 20)},
                         rng.NextBelow(2) == 0 ? AccessRights::kRead : AccessRights::kWrite};
    const Status status = table.Map(iova, entry.pfn, entry.rights);
    if (model.contains(iova.value)) {
      EXPECT_EQ(status.code(), StatusCode::kAlreadyExists) << iova.value;
    } else {
      EXPECT_TRUE(status.ok()) << iova.value;
      model[iova.value] = entry;
    }
  };
  auto expect_visits_model = [&](const char* when) {
    SCOPED_TRACE(when);
    std::vector<std::pair<Iova, PteEntry>> visited;
    table.ForEachMapping(
        [&](Iova iova, const PteEntry& entry) { visited.emplace_back(iova, entry); });
    ASSERT_EQ(visited.size(), model.size());
    EXPECT_EQ(visited.size(), table.mapped_pages());
    auto expected = model.begin();
    for (const auto& [iova, entry] : visited) {
      EXPECT_EQ(iova.value, expected->first);  // ascending, nothing missed or extra
      EXPECT_EQ(entry.pfn, expected->second.pfn);
      EXPECT_EQ(entry.rights, expected->second.rights);
      const std::optional<PteEntry> peeked = table.PeekTranslation(iova);
      ASSERT_TRUE(peeked.has_value()) << iova.value;
      EXPECT_EQ(peeked->pfn, entry.pfn);
      EXPECT_EQ(peeked->rights, entry.rights);
      ++expected;
    }
  };

  uint64_t rejected_maps = 0;
  for (int op = 0; op < 4000; ++op) {
    const Iova iova = iova_at(rng.NextBelow(std::size(kLeafBases)),
                              kSlots[rng.NextBelow(std::size(kSlots))]);
    if (rng.NextBelow(2) == 0) {
      rejected_maps += model.contains(iova.value) ? 1 : 0;
      map(iova);
    } else {
      Result<PteEntry> removed = table.Unmap(iova);
      auto it = model.find(iova.value);
      if (it == model.end()) {
        EXPECT_EQ(removed.status().code(), StatusCode::kNotFound) << iova.value;
      } else {
        ASSERT_TRUE(removed.ok()) << iova.value;
        EXPECT_EQ(removed->pfn, it->second.pfn);
        model.erase(it);
      }
    }
  }
  EXPECT_GT(rejected_maps, 0u);
  expect_visits_model("after churn");

  for (const uint64_t slot : kSlots) {  // empty leaf 1 entirely
    if (model.erase(iova_at(1, slot).value) != 0) {
      ASSERT_TRUE(table.Unmap(iova_at(1, slot)).ok());
    }
  }
  expect_visits_model("leaf 1 emptied");
  for (const uint64_t slot : kSlots) {  // refill it
    map(iova_at(1, slot));
  }
  map(iova_at(1, kSlots[0]));  // a duplicate, rejected with the slot kept
  expect_visits_model("leaf 1 refilled");
}

TEST(IoPageTableTest, LookupReportsWalkDepth) {
  IoPageTable table;
  ASSERT_TRUE(table.Map(Iova{0x5000}, Pfn{1}, AccessRights::kRead).ok());
  int levels = 0;
  ASSERT_TRUE(table.Lookup(Iova{0x5000}, &levels).has_value());
  EXPECT_EQ(levels, IoPageTable::kLevels);
}

// ---- Iotlb -----------------------------------------------------------------------

TEST(IotlbTest, InsertLookupInvalidate) {
  Iotlb tlb{16};
  EXPECT_FALSE(tlb.Lookup(kNic, Iova{0x1000}).has_value());
  tlb.Insert(kNic, Iova{0x1000}, PteEntry{Pfn{5}, AccessRights::kWrite});
  auto hit = tlb.Lookup(kNic, Iova{0x1000});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->pfn.value, 5u);
  tlb.InvalidateRange(kNic, Iova{0x1000}, 1);
  EXPECT_FALSE(tlb.Lookup(kNic, Iova{0x1000}).has_value());

  // A ranged invalidation is one command that drops exactly its pages.
  for (uint64_t page = 1; page <= 4; ++page) {
    tlb.Insert(kNic, Iova{page << kPageShift}, PteEntry{Pfn{page}, AccessRights::kWrite});
  }
  tlb.InvalidateRange(kNic, Iova{0x2000}, 2);
  EXPECT_TRUE(tlb.Lookup(kNic, Iova{0x1000}).has_value());
  EXPECT_FALSE(tlb.Lookup(kNic, Iova{0x2000}).has_value());
  EXPECT_FALSE(tlb.Lookup(kNic, Iova{0x3000}).has_value());
  EXPECT_TRUE(tlb.Lookup(kNic, Iova{0x4000}).has_value());
  EXPECT_EQ(tlb.invalidations(), 2u);
}

TEST(IotlbTest, EntriesAreDeviceScoped) {
  Iotlb tlb{16};
  tlb.Insert(kNic, Iova{0x1000}, PteEntry{Pfn{5}, AccessRights::kWrite});
  EXPECT_FALSE(tlb.Lookup(kFirewire, Iova{0x1000}).has_value());
}

TEST(IotlbTest, SubPageOffsetsShareEntry) {
  Iotlb tlb{16};
  tlb.Insert(kNic, Iova{0x1000}, PteEntry{Pfn{5}, AccessRights::kRead});
  EXPECT_TRUE(tlb.Lookup(kNic, Iova{0x1abc}).has_value());
}

TEST(IotlbTest, LruEvictionAtCapacity) {
  Iotlb tlb{4};
  for (uint64_t i = 0; i < 4; ++i) {
    tlb.Insert(kNic, Iova{i << kPageShift}, PteEntry{Pfn{i}, AccessRights::kRead});
  }
  // Touch entry 0 so entry 1 is the LRU victim.
  EXPECT_TRUE(tlb.Lookup(kNic, Iova{0}).has_value());
  tlb.Insert(kNic, Iova{4ull << kPageShift}, PteEntry{Pfn{4}, AccessRights::kRead});
  EXPECT_TRUE(tlb.Lookup(kNic, Iova{0}).has_value());
  EXPECT_FALSE(tlb.Lookup(kNic, Iova{1ull << kPageShift}).has_value());
  EXPECT_EQ(tlb.size(), 4u);
}

TEST(IotlbTest, InvalidateDeviceLeavesOthers) {
  Iotlb tlb{16};
  tlb.Insert(kNic, Iova{0x1000}, PteEntry{Pfn{1}, AccessRights::kRead});
  tlb.Insert(kFirewire, Iova{0x2000}, PteEntry{Pfn{2}, AccessRights::kRead});
  tlb.InvalidateDevice(kNic);
  EXPECT_FALSE(tlb.Lookup(kNic, Iova{0x1000}).has_value());
  EXPECT_TRUE(tlb.Lookup(kFirewire, Iova{0x2000}).has_value());
}

TEST(IotlbTest, InvalidateAllEmptiesCache) {
  Iotlb tlb{16};
  tlb.Insert(kNic, Iova{0x1000}, PteEntry{Pfn{1}, AccessRights::kRead});
  tlb.Insert(kFirewire, Iova{0x2000}, PteEntry{Pfn{2}, AccessRights::kRead});
  tlb.InvalidateAll();
  EXPECT_EQ(tlb.size(), 0u);
}

TEST(IotlbTest, StatsTrackHitsAndMisses) {
  Iotlb tlb{16};
  (void)tlb.Lookup(kNic, Iova{0x1000});
  tlb.Insert(kNic, Iova{0x1000}, PteEntry{Pfn{1}, AccessRights::kRead});
  (void)tlb.Lookup(kNic, Iova{0x1000});
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.misses(), 1u);
}

// ---- IovaAllocator ------------------------------------------------------------------

TEST(IovaAllocatorTest, AllocatesTopDownPageAligned) {
  IovaAllocator alloc;
  auto a = alloc.Alloc(1);
  auto b = alloc.Alloc(1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->page_offset(), 0u);
  EXPECT_LT(b->value, a->value);
  EXPECT_EQ(*a - *b, kPageSize);
}

TEST(IovaAllocatorTest, RangesAreContiguousAndDisjoint) {
  IovaAllocator alloc;
  auto a = alloc.Alloc(4);
  auto b = alloc.Alloc(4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a - *b, 4 * kPageSize);
}

TEST(IovaAllocatorTest, FreedRangeIsReused) {
  IovaAllocator alloc;
  auto a = alloc.Alloc(2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(alloc.Free(*a, 2).ok());
  auto b = alloc.Alloc(2);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->value, a->value);
}

TEST(IovaAllocatorTest, DoubleFreeRejected) {
  IovaAllocator alloc;
  auto a = alloc.Alloc(1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(alloc.Free(*a, 1).ok());
  EXPECT_FALSE(alloc.Free(*a, 1).ok());
}

TEST(IovaAllocatorTest, ExhaustionReported) {
  IovaAllocator alloc{0, 4 * kPageSize};
  ASSERT_TRUE(alloc.Alloc(4).ok());
  EXPECT_EQ(alloc.Alloc(1).status().code(), StatusCode::kResourceExhausted);
}

TEST(IovaAllocatorTest, ZeroPagesRejected) {
  IovaAllocator alloc;
  EXPECT_FALSE(alloc.Alloc(0).ok());
  EXPECT_FALSE(alloc.Free(Iova{0x100000}, 0).ok());
}

// ---- Iommu end-to-end -----------------------------------------------------------------

class IommuTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kPages = 256;

  IommuTest() : pm_(kPages) {}

  // Iommu is pinned in place (it owns engageable mutexes), so the fixture
  // keeps each instance alive and hands out references.
  Iommu& MakeIommu(InvalidationMode mode, Iommu::Config extra = {}) {
    Iommu::Config config = extra;
    config.mode = mode;
    iommus_.push_back(std::make_unique<Iommu>(pm_, clock_, config));
    Iommu& iommu = *iommus_.back();
    iommu.AttachDevice(kNic);
    iommu.AttachDevice(kFirewire);
    return iommu;
  }

  std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> list) { return {list}; }

  mem::PhysicalMemory pm_;
  SimClock clock_;
  std::vector<std::unique_ptr<Iommu>> iommus_;
};

TEST_F(IommuTest, MappedPageIsAccessible) {
  Iommu& iommu = MakeIommu(InvalidationMode::kStrict);
  auto iova = iommu.MapPage(kNic, Pfn{10}, AccessRights::kBidirectional);
  ASSERT_TRUE(iova.ok());
  std::vector<uint8_t> data{1, 2, 3, 4};
  ASSERT_TRUE(iommu.DeviceWrite(kNic, *iova + 100, data).ok());
  std::vector<uint8_t> back(4);
  ASSERT_TRUE(iommu.DeviceRead(kNic, *iova + 100, std::span<uint8_t>(back)).ok());
  EXPECT_EQ(back, data);
  // The bytes really landed in simulated physical memory.
  EXPECT_EQ(*pm_.ReadU8(PhysAddr::FromPfn(Pfn{10}, 100)), 1);
}

TEST_F(IommuTest, UnmappedIovaFaults) {
  Iommu& iommu = MakeIommu(InvalidationMode::kStrict);
  std::vector<uint8_t> buf(8);
  Status s = iommu.DeviceRead(kNic, Iova{0x7000}, std::span<uint8_t>(buf));
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  ASSERT_EQ(iommu.faults().size(), 1u);
  EXPECT_EQ(iommu.faults()[0].reason, "translation not present");
}

TEST_F(IommuTest, RightsEnforced) {
  Iommu& iommu = MakeIommu(InvalidationMode::kStrict);
  auto ro = iommu.MapPage(kNic, Pfn{11}, AccessRights::kRead);
  auto wo = iommu.MapPage(kNic, Pfn{12}, AccessRights::kWrite);
  ASSERT_TRUE(ro.ok());
  ASSERT_TRUE(wo.ok());
  std::vector<uint8_t> buf(4);
  EXPECT_TRUE(iommu.DeviceRead(kNic, *ro, std::span<uint8_t>(buf)).ok());
  EXPECT_FALSE(iommu.DeviceWrite(kNic, *ro, buf).ok());
  EXPECT_TRUE(iommu.DeviceWrite(kNic, *wo, buf).ok());
  EXPECT_FALSE(iommu.DeviceRead(kNic, *wo, std::span<uint8_t>(buf)).ok());
}

TEST_F(IommuTest, SubPageExposure) {
  // The defining flaw: mapping a 100-byte buffer exposes the whole page.
  Iommu& iommu = MakeIommu(InvalidationMode::kStrict);
  ASSERT_TRUE(pm_.WriteU64(PhysAddr::FromPfn(Pfn{13}, 3000), 0xfeedface).ok());
  auto iova = iommu.MapPage(kNic, Pfn{13}, AccessRights::kBidirectional);
  ASSERT_TRUE(iova.ok());
  std::vector<uint8_t> buf(8);
  ASSERT_TRUE(iommu.DeviceRead(kNic, *iova + 3000, std::span<uint8_t>(buf)).ok());
  uint64_t leaked;
  std::memcpy(&leaked, buf.data(), 8);
  EXPECT_EQ(leaked, 0xfeedfaceu);
}

TEST_F(IommuTest, DevicesAreIsolated) {
  Iommu& iommu = MakeIommu(InvalidationMode::kStrict);
  auto iova = iommu.MapPage(kNic, Pfn{14}, AccessRights::kBidirectional);
  ASSERT_TRUE(iova.ok());
  std::vector<uint8_t> buf(4);
  EXPECT_FALSE(iommu.DeviceRead(kFirewire, *iova, std::span<uint8_t>(buf)).ok());
}

TEST_F(IommuTest, UnattachedDeviceRejected) {
  Iommu& iommu = MakeIommu(InvalidationMode::kStrict);
  EXPECT_FALSE(iommu.MapPage(DeviceId{99}, Pfn{1}, AccessRights::kRead).ok());
}

TEST_F(IommuTest, MultiPageAccessCrossesBoundaries) {
  Iommu& iommu = MakeIommu(InvalidationMode::kStrict);
  const Pfn pfns[] = {Pfn{20}, Pfn{30}};  // discontiguous physical pages
  auto iova = iommu.MapRange(kNic, pfns, AccessRights::kBidirectional);
  ASSERT_TRUE(iova.ok());
  std::vector<uint8_t> data(100, 0x5a);
  ASSERT_TRUE(iommu.DeviceWrite(kNic, *iova + kPageSize - 50, data).ok());
  EXPECT_EQ(*pm_.ReadU8(PhysAddr::FromPfn(Pfn{20}, kPageSize - 1)), 0x5a);
  EXPECT_EQ(*pm_.ReadU8(PhysAddr::FromPfn(Pfn{30}, 49)), 0x5a);
  EXPECT_EQ(*pm_.ReadU8(PhysAddr::FromPfn(Pfn{30}, 50)), 0x00);
}

TEST_F(IommuTest, StrictUnmapRevokesImmediately) {
  Iommu& iommu = MakeIommu(InvalidationMode::kStrict);
  auto iova = iommu.MapPage(kNic, Pfn{15}, AccessRights::kBidirectional);
  ASSERT_TRUE(iova.ok());
  std::vector<uint8_t> buf(4);
  ASSERT_TRUE(iommu.DeviceRead(kNic, *iova, std::span<uint8_t>(buf)).ok());  // warm the IOTLB
  ASSERT_TRUE(iommu.UnmapPage(kNic, *iova).ok());
  EXPECT_FALSE(iommu.DeviceRead(kNic, *iova, std::span<uint8_t>(buf)).ok());
  EXPECT_EQ(iommu.stats().stale_iotlb_accesses, 0u);
}

TEST_F(IommuTest, DeferredUnmapLeavesStaleWindow) {
  // Figure 6: after a deferred unmap, a device with a warm IOTLB entry keeps
  // access until the periodic flush.
  Iommu& iommu = MakeIommu(InvalidationMode::kDeferred);
  auto iova = iommu.MapPage(kNic, Pfn{16}, AccessRights::kBidirectional);
  ASSERT_TRUE(iova.ok());
  std::vector<uint8_t> buf(4, 0xaa);
  ASSERT_TRUE(iommu.DeviceWrite(kNic, *iova, buf).ok());  // warm the IOTLB
  ASSERT_TRUE(iommu.UnmapPage(kNic, *iova).ok());

  // PTE is gone...
  EXPECT_FALSE(iommu.Peek(kNic, *iova).has_value());
  // ...but the device can still write through the stale IOTLB entry.
  EXPECT_TRUE(iommu.DeviceWrite(kNic, *iova, buf).ok());
  EXPECT_GE(iommu.stats().stale_iotlb_accesses, 1u);

  // After the 10 ms deadline passes, the flush closes the window.
  clock_.AdvanceUs(10 * 1000 + 1);
  iommu.ProcessDeferredTimer();
  EXPECT_FALSE(iommu.DeviceWrite(kNic, *iova, buf).ok());
}

TEST_F(IommuTest, DeferredWindowClosedForColdIotlb) {
  // No stale entry -> no window: a device that never touched the buffer
  // cannot exploit deferral.
  Iommu& iommu = MakeIommu(InvalidationMode::kDeferred);
  auto iova = iommu.MapPage(kNic, Pfn{17}, AccessRights::kBidirectional);
  ASSERT_TRUE(iova.ok());
  ASSERT_TRUE(iommu.UnmapPage(kNic, *iova).ok());
  std::vector<uint8_t> buf(4);
  EXPECT_FALSE(iommu.DeviceRead(kNic, *iova, std::span<uint8_t>(buf)).ok());
}

TEST_F(IommuTest, FlushQueueCapacityForcesFlush) {
  Iommu::Config config;
  config.flush_queue_capacity = 4;
  Iommu& iommu = MakeIommu(InvalidationMode::kDeferred, config);
  std::vector<Iova> iovas;
  std::vector<uint8_t> buf(1);
  for (int i = 0; i < 4; ++i) {
    auto iova = iommu.MapPage(kNic, Pfn{static_cast<uint64_t>(40 + i)},
                              AccessRights::kBidirectional);
    ASSERT_TRUE(iova.ok());
    ASSERT_TRUE(iommu.DeviceRead(kNic, *iova, std::span<uint8_t>(buf)).ok());
    iovas.push_back(*iova);
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(iommu.UnmapPage(kNic, iovas[i]).ok());
  }
  // Window still open on the third unmapped page.
  EXPECT_TRUE(iommu.DeviceRead(kNic, iovas[2], std::span<uint8_t>(buf)).ok());
  // Fourth unmap fills the queue -> global flush -> all windows closed.
  ASSERT_TRUE(iommu.UnmapPage(kNic, iovas[3]).ok());
  EXPECT_EQ(iommu.pending_invalidation_count(), 0u);
  for (const Iova iova : iovas) {
    EXPECT_FALSE(iommu.DeviceRead(kNic, iova, std::span<uint8_t>(buf)).ok());
  }
  EXPECT_EQ(iommu.stats().flushes, 1u);
}

TEST_F(IommuTest, StrictCostsMoreInvalidationCyclesPerUnmap) {
  Iommu& strict = MakeIommu(InvalidationMode::kStrict);
  Iommu& deferred = MakeIommu(InvalidationMode::kDeferred);
  constexpr int kOps = 100;
  for (auto* iommu : {&strict, &deferred}) {
    for (int i = 0; i < kOps; ++i) {
      auto iova = iommu->MapPage(kNic, Pfn{static_cast<uint64_t>(i % 64)},
                                 AccessRights::kRead);
      ASSERT_TRUE(iova.ok());
      ASSERT_TRUE(iommu->UnmapPage(kNic, *iova).ok());
    }
  }
  EXPECT_EQ(strict.stats().invalidation_cycles,
            kOps * kIotlbInvalidationCycles);
  // Deferred amortizes: nothing flushed yet within the window.
  EXPECT_LT(deferred.stats().invalidation_cycles, strict.stats().invalidation_cycles / 10);

  // A multi-page strict unmap is one ranged invalidation command, and it
  // still revokes every page of the range.
  const Pfn pfns[] = {Pfn{80}, Pfn{81}, Pfn{82}, Pfn{83}, Pfn{84}};
  auto base = strict.MapRange(kNic, pfns, AccessRights::kRead);
  ASSERT_TRUE(base.ok());
  std::vector<uint8_t> buf(4);
  for (uint64_t i = 0; i < std::size(pfns); ++i) {  // warm the IOTLB
    ASSERT_TRUE(strict.DeviceRead(kNic, *base + (i << kPageShift), std::span<uint8_t>(buf)).ok());
  }
  const uint64_t cycles_before = strict.stats().invalidation_cycles;
  const uint64_t targeted_before = strict.stats().targeted_invalidations;
  ASSERT_TRUE(strict.UnmapRange(kNic, *base, std::size(pfns)).ok());
  EXPECT_EQ(strict.stats().invalidation_cycles - cycles_before, kIotlbInvalidationCycles);
  EXPECT_EQ(strict.stats().targeted_invalidations - targeted_before, 1u);
  for (uint64_t i = 0; i < std::size(pfns); ++i) {
    EXPECT_FALSE(strict.DeviceRead(kNic, *base + (i << kPageShift), std::span<uint8_t>(buf)).ok())
        << "page " << i;
  }
  EXPECT_EQ(strict.stats().stale_iotlb_accesses, 0u);
}

TEST_F(IommuTest, FailedUnmapRangeChangesNothing) {
  // The range runs one page past the mapping. The unmap must fail without
  // touching the two mapped pages: no PTE cleared behind a warm IOTLB entry,
  // no invalidation charged, and the mapping can still be unmapped whole.
  for (const InvalidationMode mode : {InvalidationMode::kStrict, InvalidationMode::kDeferred}) {
    SCOPED_TRACE(InvalidationModeName(mode));
    Iommu& iommu = MakeIommu(mode);
    const Pfn pfns[] = {Pfn{90}, Pfn{91}};
    auto base = iommu.MapRange(kNic, pfns, AccessRights::kBidirectional);
    ASSERT_TRUE(base.ok());
    std::vector<uint8_t> buf(4);
    for (uint64_t i = 0; i < 2; ++i) {  // warm the IOTLB
      ASSERT_TRUE(iommu.DeviceRead(kNic, *base + (i << kPageShift), std::span<uint8_t>(buf)).ok());
    }

    EXPECT_EQ(iommu.UnmapRange(kNic, *base, 3).code(), StatusCode::kNotFound);
    for (uint64_t i = 0; i < 2; ++i) {
      const std::optional<PteEntry> pte = iommu.Peek(kNic, *base + (i << kPageShift));
      ASSERT_TRUE(pte.has_value()) << "page " << i;
      EXPECT_EQ(pte->pfn.value, pfns[i].value);
      EXPECT_EQ(pte->rights, AccessRights::kBidirectional);
      EXPECT_TRUE(iommu.DeviceRead(kNic, *base + (i << kPageShift), std::span<uint8_t>(buf)).ok());
    }
    EXPECT_EQ(iommu.stats().stale_iotlb_accesses, 0u);
    EXPECT_EQ(iommu.stats().unmaps, 0u);
    EXPECT_EQ(iommu.stats().invalidation_cycles, 0u);
    EXPECT_EQ(iommu.pending_invalidation_count(), 0u);

    ASSERT_TRUE(iommu.UnmapRange(kNic, *base, 2).ok());
    iommu.FlushNow();  // deferred: the parked range comes home at the drain
    EXPECT_TRUE(iommu.iova_allocator(kNic)->live_ranges().empty());
    EXPECT_TRUE(iommu.Audit().ok());
  }
}

TEST_F(IommuTest, HubInvalidationCountersMatchStats) {
  // Every invalidation site charges the hub what it charges Stats: the
  // stalled strict unmap, the stalled deferred drain, and the per-device
  // drain plus domain invalidation of a fence.
  constexpr uint64_t kStall = 5000;
  telemetry::Hub::Config hub_config;
  hub_config.enabled = true;
  for (const InvalidationMode mode : {InvalidationMode::kStrict, InvalidationMode::kDeferred}) {
    SCOPED_TRACE(InvalidationModeName(mode));
    telemetry::Hub hub{hub_config};
    fault::FaultEngine faults;
    fault::FaultPlan plan;
    plan.OneShot(fault::FaultSite::kIotlbInvalidation)
        .Magnitude(fault::FaultSite::kIotlbInvalidation, kStall);
    faults.Arm(plan, /*seed=*/1);
    Iommu& iommu = MakeIommu(mode);
    iommu.set_telemetry(&hub);
    iommu.set_fault_engine(&faults);
    auto expect_agreement = [&](const char* step) {
      SCOPED_TRACE(step);
      EXPECT_EQ(hub.counter_value("iommu.invalidation_cycles"),
                iommu.stats().invalidation_cycles);
      EXPECT_EQ(hub.counter_value("iommu.targeted_invalidations"),
                iommu.stats().targeted_invalidations);
    };

    auto stalled = iommu.MapPage(kNic, Pfn{93}, AccessRights::kRead);
    ASSERT_TRUE(stalled.ok());
    ASSERT_TRUE(iommu.UnmapPage(kNic, *stalled).ok());
    iommu.FlushNow();  // deferred: the one stalled command is this drain
    EXPECT_EQ(iommu.stats().invalidation_cycles, kIotlbInvalidationCycles + kStall);
    expect_agreement("stalled invalidation");

    auto fenced = iommu.MapPage(kNic, Pfn{94}, AccessRights::kRead);
    ASSERT_TRUE(fenced.ok());
    ASSERT_TRUE(iommu.UnmapPage(kNic, *fenced).ok());
    ASSERT_TRUE(iommu.FenceDevice(kNic).ok());
    expect_agreement("fence");
  }
}

TEST_F(IommuTest, DeferredIovaNotReusedBeforeFlush) {
  // The parked IOVA must not be handed to a new mapping while a stale IOTLB
  // entry could still translate it.
  Iommu& iommu = MakeIommu(InvalidationMode::kDeferred);
  auto a = iommu.MapPage(kNic, Pfn{50}, AccessRights::kRead);
  ASSERT_TRUE(a.ok());
  std::vector<uint8_t> buf(1);
  ASSERT_TRUE(iommu.DeviceRead(kNic, *a, std::span<uint8_t>(buf)).ok());
  ASSERT_TRUE(iommu.UnmapPage(kNic, *a).ok());
  auto b = iommu.MapPage(kNic, Pfn{51}, AccessRights::kRead);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(b->value, a->value);
  // After the flush the IOVA may be recycled.
  iommu.FlushNow();
  auto c = iommu.MapPage(kNic, Pfn{52}, AccessRights::kRead);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->value, a->value);
}

TEST_F(IommuTest, TypeCAliasProbe) {
  // Two mappings of the same PFN -> two live IOVAs (type (c)); unmapping one
  // leaves the device full access through the other.
  Iommu& iommu = MakeIommu(InvalidationMode::kStrict);
  auto a = iommu.MapPage(kNic, Pfn{60}, AccessRights::kWrite);
  auto b = iommu.MapPage(kNic, Pfn{60}, AccessRights::kWrite);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(iommu.IovasForPfn(kNic, Pfn{60}).size(), 2u);
  ASSERT_TRUE(iommu.UnmapPage(kNic, *a).ok());
  std::vector<uint8_t> buf(4, 0x42);
  EXPECT_FALSE(iommu.DeviceWrite(kNic, *a, buf).ok());
  EXPECT_TRUE(iommu.DeviceWrite(kNic, *b, buf).ok());  // alias still valid (strict mode!)
  EXPECT_EQ(iommu.IovasForPfn(kNic, Pfn{60}).size(), 1u);
}

TEST_F(IommuTest, PeekHasNoSideEffects) {
  Iommu& iommu = MakeIommu(InvalidationMode::kStrict);
  auto iova = iommu.MapPage(kNic, Pfn{61}, AccessRights::kRead);
  ASSERT_TRUE(iova.ok());
  const uint64_t misses_before = iommu.iotlb().misses();
  auto pte = iommu.Peek(kNic, *iova);
  ASSERT_TRUE(pte.has_value());
  EXPECT_EQ(pte->pfn.value, 61u);
  EXPECT_EQ(iommu.iotlb().misses(), misses_before);
  EXPECT_TRUE(iommu.faults().empty());
}

// Parameterized: the stale window exists in deferred mode and not in strict
// mode, across a sweep of flush intervals.
struct WindowParam {
  InvalidationMode mode;
  uint64_t interval_ms;
  bool expect_window;
};

class StaleWindowTest : public ::testing::TestWithParam<WindowParam> {};

TEST_P(StaleWindowTest, WindowMatchesMode) {
  const WindowParam param = GetParam();
  mem::PhysicalMemory pm{64};
  SimClock clock;
  Iommu::Config config;
  config.mode = param.mode;
  config.flush_interval_cycles = SimClock::MsToCycles(param.interval_ms);
  Iommu iommu{pm, clock, config};
  iommu.AttachDevice(kNic);

  auto iova = iommu.MapPage(kNic, Pfn{5}, AccessRights::kBidirectional);
  ASSERT_TRUE(iova.ok());
  std::vector<uint8_t> buf(4);
  ASSERT_TRUE(iommu.DeviceRead(kNic, *iova, std::span<uint8_t>(buf)).ok());
  ASSERT_TRUE(iommu.UnmapPage(kNic, *iova).ok());

  const bool window_open = iommu.DeviceRead(kNic, *iova, std::span<uint8_t>(buf)).ok();
  EXPECT_EQ(window_open, param.expect_window);

  if (param.expect_window) {
    clock.AdvanceUs(param.interval_ms * 1000 + 1);
    iommu.ProcessDeferredTimer();
    EXPECT_FALSE(iommu.DeviceRead(kNic, *iova, std::span<uint8_t>(buf)).ok());
  }
}

// gtest names each case after the bytes of its WindowParam, padding included.
// A constant-initialized array keeps the padding zero, so the names do not
// depend on whatever the stack held during static initialization.
constexpr WindowParam kWindowParams[] = {
    {InvalidationMode::kStrict, 10, false},
    {InvalidationMode::kDeferred, 1, true},
    {InvalidationMode::kDeferred, 10, true},
    {InvalidationMode::kDeferred, 100, true},
};

INSTANTIATE_TEST_SUITE_P(ModesAndIntervals, StaleWindowTest, ::testing::ValuesIn(kWindowParams));

// ---- IOMMU domains: the §6 shared-page-table testbed ----------------------------

TEST_F(IommuTest, SharedDomainGrantsCrossDeviceAccess) {
  Iommu& iommu = MakeIommu(InvalidationMode::kStrict);
  ASSERT_TRUE(iommu.AttachDeviceToDomainOf(kFirewire, kNic).code() ==
              StatusCode::kAlreadyExists);  // kFirewire already has its own domain
  const DeviceId firewire2{7};
  ASSERT_TRUE(iommu.AttachDeviceToDomainOf(firewire2, kNic).ok());
  EXPECT_TRUE(iommu.SameDomain(firewire2, kNic));
  EXPECT_FALSE(iommu.SameDomain(kFirewire, kNic));

  // A mapping created for the NIC is usable by its domain-mate...
  auto iova = iommu.MapPage(kNic, Pfn{21}, AccessRights::kBidirectional);
  ASSERT_TRUE(iova.ok());
  std::vector<uint8_t> data(8, 0x42);
  EXPECT_TRUE(iommu.DeviceWrite(firewire2, *iova, data).ok());
  // ...but not by a device in a different domain.
  EXPECT_FALSE(iommu.DeviceWrite(kFirewire, *iova, data).ok());
}

TEST_F(IommuTest, SharedDomainSharesStaleIotlbWindow) {
  // Deferred mode: the NIC warms the translation; after unmap, the FireWire
  // device in the same domain rides the same stale entry (domain-tagged
  // IOTLB, as on VT-d).
  Iommu& iommu = MakeIommu(InvalidationMode::kDeferred);
  const DeviceId firewire2{7};
  ASSERT_TRUE(iommu.AttachDeviceToDomainOf(firewire2, kNic).ok());
  auto iova = iommu.MapPage(kNic, Pfn{22}, AccessRights::kBidirectional);
  ASSERT_TRUE(iova.ok());
  std::vector<uint8_t> data(8, 1);
  ASSERT_TRUE(iommu.DeviceWrite(kNic, *iova, data).ok());  // NIC warms the IOTLB
  ASSERT_TRUE(iommu.UnmapPage(kNic, *iova).ok());
  EXPECT_TRUE(iommu.DeviceWrite(firewire2, *iova, data).ok());  // FW uses the window
}

TEST_F(IommuTest, UnattachedDomainOwnerRejected) {
  Iommu& iommu = MakeIommu(InvalidationMode::kStrict);
  EXPECT_FALSE(iommu.AttachDeviceToDomainOf(DeviceId{50}, DeviceId{51}).ok());
}

// ---- Cross-CPU audit: every pending range is still parked -----------------------

// A deferred unmap keeps its IOVA range live (parked) in the domain's allocator
// until the flush queue drains. Audit must reject a pending range that
// is missing from its own domain's live set, wherever it sits.
class ParkedRangeAuditTest : public IommuTest {
 protected:
  static constexpr uint64_t kSizes[] = {1, 2, 1, 3, 1, 2, 1};

  // Both devices, in separate domains, map the same seven ranges. The
  // allocator carves top-down, so each range ends exactly at the base of the
  // one mapped before it. Ranges 0, 3 and 6 are then unmapped and wait on the
  // flush queue in the order nic 0, fw 0, nic 3, fw 3, nic 6, fw 6; the others
  // stay mapped.
  Iommu& MakeParkedState() {
    Iommu& iommu = MakeIommu(InvalidationMode::kDeferred);
    std::vector<Iova> bases;
    for (uint64_t i = 0; i < std::size(kSizes); ++i) {
      std::vector<Pfn> pfns;
      for (uint64_t page = 0; page < kSizes[i]; ++page) {
        pfns.push_back(Pfn{16 + 4 * i + page});
      }
      for (DeviceId device : {kNic, kFirewire}) {
        auto base = iommu.MapRange(device, pfns, AccessRights::kBidirectional);
        EXPECT_TRUE(base.ok());
        bases.push_back(base.ok() ? *base : Iova{0});
      }
    }
    for (uint64_t i : {0, 3, 6}) {
      EXPECT_TRUE(iommu.UnmapRange(kNic, bases[2 * i], kSizes[i]).ok());
      EXPECT_TRUE(iommu.UnmapRange(kFirewire, bases[2 * i + 1], kSizes[i]).ok());
    }
    EXPECT_EQ(iommu.pending_invalidation_count(), 6u);
    return iommu;
  }

  // Frees a pending range's IOVA behind the flush queue's back, as a lost or
  // prematurely recycled IOVA would be.
  static void FreeBehindQueue(Iommu& iommu, const Iommu::PendingRange& range) {
    auto* alloc = const_cast<IovaAllocator*>(iommu.iova_allocator(range.device));
    ASSERT_NE(alloc, nullptr);
    ASSERT_TRUE(alloc->Free(range.base, range.pages).ok());
  }

  static bool LiveAt(const Iommu& iommu, DeviceId device, uint64_t page) {
    for (const IovaAllocator::LiveRange& range : iommu.iova_allocator(device)->live_ranges()) {
      if (page >= range.base_page && page < range.base_page + range.pages) {
        return true;
      }
    }
    return false;
  }

  static void ExpectNotParked(const Status& audit) {
    EXPECT_FALSE(audit.ok());
    EXPECT_NE(audit.message().find("not parked"), std::string::npos) << audit.message();
  }
};

TEST_F(ParkedRangeAuditTest, CleanStatePasses) {
  Iommu& iommu = MakeParkedState();
  for (const Iommu::PendingRange& range : iommu.pending_invalidations()) {
    EXPECT_TRUE(LiveAt(iommu, range.device, range.base.value >> kPageShift));
  }
  EXPECT_TRUE(iommu.Audit().ok());
}

TEST_F(ParkedRangeAuditTest, FreedFirstMiddleAndLastPendingRangeFail) {
  for (const size_t index : {size_t{0}, size_t{3}, size_t{5}}) {
    SCOPED_TRACE(index);
    Iommu& iommu = MakeParkedState();
    const std::vector<Iommu::PendingRange> pending = iommu.pending_invalidations();
    ASSERT_EQ(pending.size(), 6u);
    FreeBehindQueue(iommu, pending[index]);
    ExpectNotParked(iommu.Audit());
  }
}

TEST_F(ParkedRangeAuditTest, FreedRangeAbuttingLowerLiveRangeFails) {
  // nic 3's lower neighbour (nic 4, still mapped) ends exactly at its base:
  // the greatest live base at or below the page is a range that stops short.
  Iommu& iommu = MakeParkedState();
  const Iommu::PendingRange victim = iommu.pending_invalidations()[2];
  ASSERT_EQ(victim.device.value, kNic.value);
  const uint64_t base_page = victim.base.value >> kPageShift;
  FreeBehindQueue(iommu, victim);
  EXPECT_TRUE(LiveAt(iommu, kNic, base_page - 1));
  EXPECT_FALSE(LiveAt(iommu, kNic, base_page));
  ExpectNotParked(iommu.Audit());
}

TEST_F(ParkedRangeAuditTest, FreedRangeStillLiveInOtherDomainFails) {
  // Both domains hand out the same IOVAs, so the freed page stays live in the
  // other domain: a live set looked up under the wrong domain would pass it.
  for (const size_t index : {size_t{2}, size_t{3}}) {
    SCOPED_TRACE(index);
    Iommu& iommu = MakeParkedState();
    const Iommu::PendingRange victim = iommu.pending_invalidations()[index];
    const DeviceId other = victim.device.value == kNic.value ? kFirewire : kNic;
    const uint64_t base_page = victim.base.value >> kPageShift;
    FreeBehindQueue(iommu, victim);
    EXPECT_TRUE(LiveAt(iommu, other, base_page));
    ExpectNotParked(iommu.Audit());
  }
}

// ---- Bypass (no-IOMMU) mode: the §2.1 classic-DMA-attack baseline --------------

class BypassTest : public ::testing::Test {
 protected:
  BypassTest() : pm_(64), iommu_(pm_, clock_, {.enabled = false}) {
    iommu_.AttachDevice(kNic);
  }
  mem::PhysicalMemory pm_;
  SimClock clock_;
  Iommu iommu_;
};

TEST_F(BypassTest, MapReturnsPhysicalAddressIdentity) {
  auto iova = iommu_.MapPage(kNic, Pfn{7}, AccessRights::kRead);
  ASSERT_TRUE(iova.ok());
  EXPECT_EQ(iova->value, 7ull << kPageShift);
}

TEST_F(BypassTest, DeviceReadsArbitraryPhysicalMemory) {
  // The Inception/FinFireWire scenario: no mapping exists, yet the device
  // dumps any page it names.
  ASSERT_TRUE(pm_.WriteU64(PhysAddr::FromPfn(Pfn{3}, 0x10), 0x5ec2e7).ok());
  std::vector<uint8_t> buf(8);
  ASSERT_TRUE(iommu_.DeviceRead(kNic, Iova{(3ull << kPageShift) + 0x10},
                                std::span<uint8_t>(buf))
                  .ok());
  uint64_t value;
  std::memcpy(&value, buf.data(), 8);
  EXPECT_EQ(value, 0x5ec2e7u);
  EXPECT_TRUE(iommu_.faults().empty());
}

TEST_F(BypassTest, DeviceWritesKernelMemoryUnchecked) {
  std::vector<uint8_t> patch(8, 0x90);  // "patch the OS code" (§2.1)
  EXPECT_TRUE(iommu_.DeviceWrite(kNic, Iova{0x1000}, patch).ok());
  EXPECT_EQ(*pm_.ReadU8(PhysAddr{0x1000}), 0x90);
}

TEST_F(BypassTest, UnmapIsANoop) {
  auto iova = iommu_.MapPage(kNic, Pfn{5}, AccessRights::kWrite);
  ASSERT_TRUE(iova.ok());
  ASSERT_TRUE(iommu_.UnmapPage(kNic, *iova).ok());
  std::vector<uint8_t> buf(4, 1);
  EXPECT_TRUE(iommu_.DeviceWrite(kNic, *iova, buf).ok());  // access never revoked
}

// ---- Randomized differential test vs a trivial reference model -------------------

TEST(IommuFuzzTest, MatchesReferenceModelUnderRandomOps) {
  mem::PhysicalMemory pm{512};
  SimClock clock;
  Iommu iommu{pm, clock, {.mode = InvalidationMode::kStrict}};
  iommu.AttachDevice(kNic);
  Xoshiro256 rng{20210426};

  struct Ref {
    Pfn pfn;
    AccessRights rights;
  };
  std::map<uint64_t, Ref> reference;  // iova page -> entry
  std::vector<Iova> live;

  for (int step = 0; step < 3000; ++step) {
    const uint64_t dice = rng.NextBelow(10);
    if (dice < 4) {  // map
      const Pfn pfn{rng.NextBelow(512)};
      const AccessRights rights = static_cast<AccessRights>(1 + rng.NextBelow(3));
      auto iova = iommu.MapPage(kNic, pfn, rights);
      ASSERT_TRUE(iova.ok());
      reference[iova->PageBase().value] = Ref{pfn, rights};
      live.push_back(*iova);
    } else if (dice < 7 && !live.empty()) {  // unmap
      const size_t victim = rng.NextBelow(live.size());
      ASSERT_TRUE(iommu.UnmapPage(kNic, live[victim]).ok());
      reference.erase(live[victim].PageBase().value);
      live[victim] = live.back();
      live.pop_back();
    } else {  // random access, compare against the model
      uint64_t raw;
      if (live.empty()) {
        raw = rng.Next() % (1ull << 32);
      } else {
        raw = (live[rng.NextBelow(live.size())] + rng.NextBelow(kPageSize - 8)).value;
      }
      const Iova iova{raw};
      const bool want_write = rng.NextBool(0.5);
      std::vector<uint8_t> buf(8, 0x7f);
      const Status status = want_write
                                ? iommu.DeviceWrite(kNic, iova, buf)
                                : iommu.DeviceRead(kNic, iova, std::span<uint8_t>(buf));
      auto it = reference.find(iova.PageBase().value);
      const bool model_ok =
          it != reference.end() &&
          Permits(it->second.rights, want_write ? AccessOp::kWrite : AccessOp::kRead) &&
          iova.page_offset() + 8 <= kPageSize;
      ASSERT_EQ(status.ok(), model_ok)
          << "step " << step << " iova 0x" << std::hex << iova.value;
    }
  }
}

}  // namespace
}  // namespace spv::iommu
