// Fast-path semantics: the rcache magazines and walk cache must be
// observationally equivalent to the slow path — in particular they must
// preserve every property the paper's attacks depend on (distinct IOVAs per
// map, parked IOVAs during the deferred window, stale IOTLB hits). DmaApi's
// mapping tracker (MappingIndex) is checked against a reference std::map.

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>
#include <vector>

#include "base/rng.h"
#include "core/machine.h"
#include "dma/mapping_index.h"
#include "iommu/io_page_table.h"
#include "iommu/iommu.h"
#include "iommu/iova_allocator.h"

namespace spv {
namespace {

using iommu::AccessRights;
using iommu::FastPathConfig;
using iommu::Iommu;
using iommu::IovaAllocator;

FastPathConfig AllOff() {
  FastPathConfig off;
  off.enabled = false;
  return off;
}

// ---- IovaAllocator rcache ----------------------------------------------------------

TEST(IovaRcacheTest, SteadyStateHitsMagazine) {
  IovaAllocator alloc;
  // Warm up: first alloc misses, free parks the range in the magazine.
  auto warm = alloc.Alloc(1);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(alloc.Free(*warm, 1).ok());
  for (int i = 0; i < 100; ++i) {
    auto iova = alloc.Alloc(1);
    ASSERT_TRUE(iova.ok());
    EXPECT_EQ(iova->value, warm->value);  // LIFO reuse of the hot range
    ASSERT_TRUE(alloc.Free(*iova, 1).ok());
  }
  EXPECT_EQ(alloc.stats().rcache_hits, 100u);
  EXPECT_EQ(alloc.stats().rcache_misses, 1u);
}

TEST(IovaRcacheTest, NeverHandsOutLiveRange) {
  FastPathConfig fast_path;
  fast_path.num_cpus = 2;
  fast_path.magazine_capacity = 8;  // small, to force depot + overflow traffic
  fast_path.depot_capacity = 2;
  IovaAllocator alloc{IovaAllocator::kDefaultWindowStart, IovaAllocator::kDefaultWindowEnd,
                      fast_path};
  Xoshiro256 rng{42};
  struct Live {
    Iova base;
    uint64_t pages;
    CpuId cpu;
  };
  std::vector<Live> live;
  std::set<uint64_t> live_pages;  // every page of every live range
  const uint64_t sizes[] = {1, 2, 3, 5, 8, 32, 64};  // cached and uncached
  for (int op = 0; op < 20000; ++op) {
    const CpuId cpu{static_cast<uint32_t>(rng.NextBelow(2))};
    if (live.size() < 64 && (live.empty() || rng.NextBelow(2) == 0)) {
      const uint64_t pages = sizes[rng.NextBelow(7)];
      auto iova = alloc.Alloc(pages, cpu);
      ASSERT_TRUE(iova.ok());
      const uint64_t base_page = iova->value >> kPageShift;
      // The rounded extent must be disjoint from every live range.
      const uint64_t rounded = pages <= 32 ? std::bit_ceil(pages) : pages;
      for (uint64_t p = base_page; p < base_page + rounded; ++p) {
        ASSERT_TRUE(live_pages.insert(p).second)
            << "allocator handed out page " << p << " twice";
      }
      live.push_back(Live{*iova, pages, cpu});
    } else {
      const size_t victim = rng.NextBelow(live.size());
      Live entry = live[victim];
      live[victim] = live.back();
      live.pop_back();
      // Free on a *different* CPU half the time (migration).
      const CpuId cpu_free =
          rng.NextBelow(2) == 0 ? entry.cpu : CpuId{entry.cpu.value ^ 1};
      ASSERT_TRUE(alloc.Free(entry.base, entry.pages, cpu_free).ok());
      const uint64_t base_page = entry.base.value >> kPageShift;
      const uint64_t rounded =
          entry.pages <= 32 ? std::bit_ceil(entry.pages) : entry.pages;
      for (uint64_t p = base_page; p < base_page + rounded; ++p) {
        live_pages.erase(p);
      }
    }
  }
  EXPECT_GT(alloc.stats().rcache_hits, 0u);
}

TEST(IovaRcacheTest, CpuMigrationRoundTrip) {
  FastPathConfig fast_path;
  fast_path.num_cpus = 4;
  IovaAllocator alloc{IovaAllocator::kDefaultWindowStart, IovaAllocator::kDefaultWindowEnd,
                      fast_path};
  // Alloc on CPU 0, free on CPU 1: the range lands in CPU 1's magazine.
  auto a = alloc.Alloc(1, CpuId{0});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(alloc.Free(*a, 1, CpuId{1}).ok());
  EXPECT_EQ(alloc.allocated_pages(), 0u);
  // CPU 1 reuses it; CPU 0's magazine is empty so it carves fresh space.
  auto b = alloc.Alloc(1, CpuId{1});
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->value, a->value);
  auto c = alloc.Alloc(1, CpuId{0});
  ASSERT_TRUE(c.ok());
  EXPECT_NE(c->value, a->value);
  ASSERT_TRUE(alloc.Free(*b, 1, CpuId{1}).ok());
  ASSERT_TRUE(alloc.Free(*c, 1, CpuId{0}).ok());
  EXPECT_EQ(alloc.allocated_pages(), 0u);
  EXPECT_EQ(alloc.cached_ranges(), 2u);
}

TEST(IovaRcacheTest, SamePfnStillYieldsDistinctIovasUnderMagazineReuse) {
  core::MachineConfig config;
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(256, "aliased_buf");

  // Churn first so later maps are served from warm magazines, not virgin
  // space — the regression this test guards against.
  for (int i = 0; i < 300; ++i) {
    auto iova = machine.dma().MapSingle(dev, buf, 256, dma::DmaDirection::kFromDevice);
    ASSERT_TRUE(iova.ok());
    ASSERT_TRUE(
        machine.dma().UnmapSingle(dev, *iova, 256, dma::DmaDirection::kFromDevice).ok());
  }
  machine.iommu().FlushNow();

  auto first = machine.dma().MapSingle(dev, buf, 256, dma::DmaDirection::kFromDevice);
  auto second = machine.dma().MapSingle(dev, buf, 256, dma::DmaDirection::kFromDevice);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // The substrate of the type (c) vulnerability: same PFN, two live IOVAs.
  EXPECT_NE(first->PageBase().value, second->PageBase().value);
  const Pfn pfn = machine.layout().DirectMapKvaToPhys(buf)->pfn();
  EXPECT_EQ(machine.iommu().IovasForPfn(dev, pfn).size(), 2u);
}

TEST(IovaRcacheTest, DeferredModeParksIovaUntilFlush) {
  core::MachineConfig config;
  config.iommu.mode = iommu::InvalidationMode::kDeferred;
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(256, "parked_buf");
  auto first = machine.dma().MapSingle(dev, buf, 256, dma::DmaDirection::kFromDevice);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(
      machine.dma().UnmapSingle(dev, *first, 256, dma::DmaDirection::kFromDevice).ok());
  // Before the flush the IOVA is still parked in the flush queue: a new map
  // must NOT reuse it (it could still be translated by a stale IOTLB entry).
  auto second = machine.dma().MapSingle(dev, buf, 256, dma::DmaDirection::kFromDevice);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second->PageBase().value, first->PageBase().value);
  // After the flush it is recyclable through the rcache.
  machine.iommu().FlushNow();
  auto third = machine.dma().MapSingle(dev, buf, 256, dma::DmaDirection::kFromDevice);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->PageBase().value, first->PageBase().value);
}

// ---- Coalescing slow path ----------------------------------------------------------

TEST(IovaCoalesceTest, AdjacentFreesMergeAndSplitBack) {
  IovaAllocator alloc{IovaAllocator::kDefaultWindowStart, IovaAllocator::kDefaultWindowEnd,
                      AllOff()};
  auto a = alloc.Alloc(64);  // uncached sizes share the tree with rcache on too
  auto b = alloc.Alloc(64);
  auto c = alloc.Alloc(64);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  // Carving is top-down, so c < b < a and the three are adjacent. Freeing a
  // and c leaves two islands; freeing b bridges them into one range.
  ASSERT_TRUE(alloc.Free(*a, 64).ok());
  ASSERT_TRUE(alloc.Free(*c, 64).ok());
  EXPECT_EQ(alloc.stats().coalesces, 0u);
  ASSERT_TRUE(alloc.Free(*b, 64).ok());
  EXPECT_GE(alloc.stats().coalesces, 1u);
  // The merged block melts back into the virgin frontier, so a fresh alloc
  // of the full 192 pages reuses the exact same space.
  auto big = alloc.Alloc(192);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->value, c->value);
}

TEST(IovaCoalesceTest, ChurnDoesNotGrowTheTree) {
  IovaAllocator alloc{IovaAllocator::kDefaultWindowStart, IovaAllocator::kDefaultWindowEnd,
                      AllOff()};
  // Unbounded-fragmentation regression: interleaved singles freed in an
  // order that never exact-fits used to pile up ranges forever. With
  // coalescing + splitting the allocator keeps reusing the same span.
  std::vector<Iova> batch;
  for (int round = 0; round < 50; ++round) {
    batch.clear();
    for (int i = 0; i < 33; ++i) {
      auto iova = alloc.Alloc(1 + (i % 3));  // 1,2,3-page mix
      ASSERT_TRUE(iova.ok());
      batch.push_back(*iova);
    }
    for (int i = 0; i < 33; ++i) {
      ASSERT_TRUE(alloc.Free(batch[i], 1 + (i % 3)).ok());
    }
  }
  EXPECT_EQ(alloc.allocated_pages(), 0u);
  EXPECT_GT(alloc.stats().coalesces, 0u);
  // Everything melted back: the whole window is virgin again, so an alloc
  // the size of the round's footprint comes back at the same top position.
  auto probe = alloc.Alloc(66);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->value + 66 * kPageSize, IovaAllocator::kDefaultWindowEnd);
}

// ---- MappingIndex ------------------------------------------------------------------

TEST(MappingIndexTest, InsertFindEraseAgainstReferenceMap) {
  dma::MappingIndex<uint64_t> index;
  std::map<std::pair<uint32_t, uint64_t>, uint64_t> reference;
  Xoshiro256 rng{7};
  for (int op = 0; op < 50000; ++op) {
    const uint32_t device = static_cast<uint32_t>(rng.NextBelow(3));
    const uint64_t page = rng.NextBelow(512);
    switch (rng.NextBelow(3)) {
      case 0: {
        const uint64_t value = rng.Next();
        index.InsertOrAssign(device, page, value);
        reference[{device, page}] = value;
        break;
      }
      case 1: {
        const uint64_t* found = index.Find(device, page);
        auto it = reference.find({device, page});
        if (it == reference.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
        }
        break;
      }
      case 2: {
        EXPECT_EQ(index.Erase(device, page), reference.erase({device, page}) > 0);
        break;
      }
    }
    ASSERT_EQ(index.size(), reference.size());
  }
  uint64_t visited = 0;
  index.ForEach([&](const uint64_t&) { ++visited; });
  EXPECT_EQ(visited, reference.size());
}

TEST(MappingIndexTest, GrowsThroughRehash) {
  dma::MappingIndex<uint64_t> index{16};
  for (uint64_t i = 0; i < 10000; ++i) {
    index.InsertOrAssign(1, i, i * 3);
  }
  EXPECT_EQ(index.size(), 10000u);
  for (uint64_t i = 0; i < 10000; ++i) {
    const uint64_t* found = index.Find(1, i);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, i * 3);
  }
  EXPECT_EQ(index.Find(2, 1), nullptr);
}

// ---- Walk cache --------------------------------------------------------------------

TEST(WalkCacheTest, HotRegionSkipsTheWalk) {
  iommu::IoPageTable table;
  ASSERT_TRUE(table.Map(Iova{0x200000}, Pfn{1}, AccessRights::kWrite).ok());
  ASSERT_TRUE(table.Map(Iova{0x201000}, Pfn{2}, AccessRights::kWrite).ok());
  int levels = 0;
  ASSERT_TRUE(table.Lookup(Iova{0x200000}, &levels).has_value());
  EXPECT_EQ(levels, 4);  // cold: full radix descent
  ASSERT_TRUE(table.Lookup(Iova{0x201000}, &levels).has_value());
  EXPECT_EQ(levels, 1);  // same 2 MiB region: leaf came from the cache
  EXPECT_EQ(table.walk_cache_stats().hits, 1u);
  EXPECT_EQ(table.walk_cache_stats().misses, 1u);
}

TEST(WalkCacheTest, UnmapInvalidatesAndNeverFakesPresence) {
  iommu::IoPageTable table;
  ASSERT_TRUE(table.Map(Iova{0x200000}, Pfn{1}, AccessRights::kWrite).ok());
  ASSERT_TRUE(table.Lookup(Iova{0x200000}).has_value());  // fill the cache
  ASSERT_TRUE(table.Unmap(Iova{0x200000}).ok());
  EXPECT_GE(table.walk_cache_stats().invalidations, 1u);
  // A post-unmap lookup must see not-present — stale translations can only
  // ever come from the IOTLB, never from the walk cache.
  EXPECT_FALSE(table.Lookup(Iova{0x200000}).has_value());
}

TEST(WalkCacheTest, GlobalInvalidateDropsEverything) {
  iommu::IoPageTable table;
  ASSERT_TRUE(table.Map(Iova{0x200000}, Pfn{1}, AccessRights::kWrite).ok());
  ASSERT_TRUE(table.Lookup(Iova{0x200000}).has_value());
  table.InvalidateWalkCache();
  int levels = 0;
  ASSERT_TRUE(table.Lookup(Iova{0x200000}, &levels).has_value());
  EXPECT_EQ(levels, 4);  // cold again
}

TEST(WalkCacheTest, DisabledTableAlwaysWalks) {
  iommu::IoPageTable table{/*walk_cache_enabled=*/false};
  ASSERT_TRUE(table.Map(Iova{0x200000}, Pfn{1}, AccessRights::kWrite).ok());
  int levels = 0;
  ASSERT_TRUE(table.Lookup(Iova{0x200000}, &levels).has_value());
  ASSERT_TRUE(table.Lookup(Iova{0x200000}, &levels).has_value());
  EXPECT_EQ(levels, 4);
  EXPECT_EQ(table.walk_cache_stats().hits, 0u);
}

// ---- Flush drain reasons -----------------------------------------------------------

TEST(FlushDrainTest, CapacityDeadlineAndManualAreDistinguished) {
  mem::PhysicalMemory pm{256};
  SimClock clock;
  Iommu::Config config;
  config.mode = iommu::InvalidationMode::kDeferred;
  config.flush_queue_capacity = 4;
  Iommu iommu{pm, clock, config};
  const DeviceId dev{1};
  iommu.AttachDevice(dev);

  auto map_unmap = [&] {
    auto iova = iommu.MapPage(dev, Pfn{10}, AccessRights::kWrite);
    ASSERT_TRUE(iova.ok());
    ASSERT_TRUE(iommu.UnmapPage(dev, *iova).ok());
  };
  for (int i = 0; i < 4; ++i) {
    map_unmap();  // 4th unmap hits flush_queue_capacity
  }
  EXPECT_EQ(iommu.stats().flush_capacity_drains, 1u);

  map_unmap();
  clock.Advance(SimClock::MsToCycles(11));
  iommu.ProcessDeferredTimer();
  EXPECT_EQ(iommu.stats().flush_deadline_drains, 1u);

  map_unmap();
  iommu.FlushNow();
  EXPECT_EQ(iommu.stats().flush_manual_drains, 1u);
  EXPECT_EQ(iommu.stats().flushes, 3u);
}

// ---- Architectural equivalence -----------------------------------------------------

// The Fig-6 deferred window must survive the fast path: a device with a warm
// IOTLB entry keeps write access after dma_unmap until the queue drains.
TEST(FastPathEquivalenceTest, StaleIotlbWindowUnchanged) {
  for (const bool fast : {true, false}) {
    core::MachineConfig config;
    config.iommu.mode = iommu::InvalidationMode::kDeferred;
    if (!fast) {
      config.iommu.fast_path = AllOff();
    }
    core::Machine machine{config};
    const DeviceId dev{1};
    machine.iommu().AttachDevice(dev);
    Kva buf = *machine.slab().Kmalloc(2048, "window_buf");
    std::vector<uint8_t> touch(8, 0xAA);
    auto iova = machine.dma().MapSingle(dev, buf, 2048, dma::DmaDirection::kFromDevice);
    ASSERT_TRUE(iova.ok());
    ASSERT_TRUE(machine.iommu().DeviceWrite(dev, *iova, touch).ok());  // warm the IOTLB
    ASSERT_TRUE(
        machine.dma().UnmapSingle(dev, *iova, 2048, dma::DmaDirection::kFromDevice).ok());
    // The stale window, in both configurations.
    EXPECT_TRUE(machine.iommu().DeviceWrite(dev, *iova, touch).ok()) << "fast=" << fast;
    EXPECT_GT(machine.iommu().stats().stale_iotlb_accesses, 0u);
    machine.iommu().FlushNow();
    EXPECT_FALSE(machine.iommu().DeviceWrite(dev, *iova, touch).ok()) << "fast=" << fast;
  }
}

TEST(FastPathEquivalenceTest, DisabledFastPathRoundTrips) {
  core::MachineConfig config;
  config.iommu.fast_path = AllOff();
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(1024, "legacy_buf");
  std::vector<uint8_t> payload{1, 2, 3, 4};
  std::vector<uint8_t> readback(4);
  for (int i = 0; i < 10; ++i) {
    auto iova = machine.dma().MapSingle(dev, buf, 1024, dma::DmaDirection::kBidirectional);
    ASSERT_TRUE(iova.ok());
    ASSERT_TRUE(machine.iommu().DeviceWrite(dev, *iova, payload).ok());
    ASSERT_TRUE(machine.iommu().DeviceRead(dev, *iova, readback).ok());
    EXPECT_EQ(readback, payload);
    ASSERT_TRUE(machine.dma().FindMapping(dev, *iova).has_value());
    ASSERT_TRUE(
        machine.dma()
            .UnmapSingle(dev, *iova, 1024, dma::DmaDirection::kBidirectional)
            .ok());
    EXPECT_FALSE(machine.dma().FindMapping(dev, *iova).has_value());
  }
  EXPECT_EQ(machine.dma().live_mappings(), 0u);
}

// Per-CPU threading through the Machine facade.
TEST(FastPathEquivalenceTest, MachineThreadsCpuToMagazines) {
  core::MachineConfig config;
  config.iommu.mode = iommu::InvalidationMode::kStrict;  // frees recycle instantly
  config.iommu.fast_path.num_cpus = 2;
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(512, "cpu_buf");

  machine.set_current_cpu(CpuId{0});
  EXPECT_EQ(machine.current_cpu().value, 0u);
  auto a = machine.dma().MapSingle(dev, buf, 512, dma::DmaDirection::kFromDevice);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(
      machine.dma().UnmapSingle(dev, *a, 512, dma::DmaDirection::kFromDevice).ok());
  // CPU 0's magazine holds the range; CPU 1 must not see it.
  machine.set_current_cpu(CpuId{1});
  auto b = machine.dma().MapSingle(dev, buf, 512, dma::DmaDirection::kFromDevice);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(b->PageBase().value, a->PageBase().value);
  // Back on CPU 0 the parked range is reused.
  machine.set_current_cpu(CpuId{0});
  auto c = machine.dma().MapSingle(dev, buf, 512, dma::DmaDirection::kFromDevice);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->PageBase().value, a->PageBase().value);
}

}  // namespace
}  // namespace spv
