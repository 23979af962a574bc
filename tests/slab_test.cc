// Tests for the slab module: kmalloc caches and the page_frag allocator.
//
// The co-location properties asserted here are not incidental: they are the
// substrate for the paper's type (b)/(c)/(d) sub-page vulnerabilities.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "base/rng.h"
#include "mem/kernel_layout.h"
#include "mem/page_allocator.h"
#include "mem/page_db.h"
#include "mem/phys_memory.h"
#include "slab/page_frag.h"
#include "slab/slab_allocator.h"
#include "telemetry/telemetry.h"

namespace spv::slab {
namespace {

constexpr uint64_t kTestPages = 4096;

class SlabFixture : public ::testing::Test {
 protected:
  SlabFixture()
      : pm_(kTestPages),
        db_(kTestPages),
        alloc_(db_, Pfn{64}, kTestPages - 64),
        layout_(MakeLayout()),
        slab_(pm_, db_, alloc_, layout_) {}

  static mem::KernelLayout MakeLayout() {
    Xoshiro256 rng{1234};
    return mem::KernelLayout::Create(kTestPages, /*kaslr=*/true, rng);
  }

  mem::PhysicalMemory pm_;
  mem::PageDb db_;
  mem::PageAllocator alloc_;
  mem::KernelLayout layout_;
  SlabAllocator slab_;
};

// ---- size classes -------------------------------------------------------------

TEST(SizeClassTest, MapsSizesToLinuxClasses) {
  EXPECT_EQ(*SlabAllocator::SizeClassIndex(1), 0);     // -> 8
  EXPECT_EQ(kKmallocSizeClasses[*SlabAllocator::SizeClassIndex(9)], 16u);
  EXPECT_EQ(kKmallocSizeClasses[*SlabAllocator::SizeClassIndex(64)], 64u);
  EXPECT_EQ(kKmallocSizeClasses[*SlabAllocator::SizeClassIndex(65)], 96u);
  EXPECT_EQ(kKmallocSizeClasses[*SlabAllocator::SizeClassIndex(100)], 128u);
  EXPECT_EQ(kKmallocSizeClasses[*SlabAllocator::SizeClassIndex(328)], 512u);
  EXPECT_EQ(kKmallocSizeClasses[*SlabAllocator::SizeClassIndex(4096)], 4096u);
  EXPECT_FALSE(SlabAllocator::SizeClassIndex(4097).has_value());
}

// ---- kmalloc ------------------------------------------------------------------

TEST_F(SlabFixture, SameSizeClassObjectsSharePage) {
  // Type (d) premise: kmalloc objects of similar size co-reside on a page.
  auto a = slab_.Kmalloc(512, "alloc_a");
  auto b = slab_.Kmalloc(512, "alloc_b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(layout_.DirectMapKvaToPhys(*a)->pfn(), layout_.DirectMapKvaToPhys(*b)->pfn());
  EXPECT_EQ(*b - *a, 512u);
}

TEST_F(SlabFixture, ObjectsAreZeroed) {
  auto a = slab_.Kmalloc(256, "t");
  ASSERT_TRUE(a.ok());
  auto phys = layout_.DirectMapKvaToPhys(*a);
  ASSERT_TRUE(phys.ok());
  ASSERT_TRUE(pm_.WriteU64(*phys, 0xdeadbeef).ok());
  ASSERT_TRUE(slab_.Kfree(*a).ok());
  auto b = slab_.Kmalloc(256, "t");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a);  // LIFO slot reuse
  EXPECT_EQ(*pm_.ReadU64(*phys), 0u);  // re-zeroed
}

TEST_F(SlabFixture, DifferentSizeClassesUseDifferentPages) {
  auto a = slab_.Kmalloc(64, "t");
  auto b = slab_.Kmalloc(512, "t");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(layout_.DirectMapKvaToPhys(*a)->pfn(), layout_.DirectMapKvaToPhys(*b)->pfn());
}

TEST_F(SlabFixture, PageFillsThenSpills) {
  // 4096/512 = 8 objects per page; the 9th lands on a new page.
  std::vector<Kva> kvas;
  for (int i = 0; i < 9; ++i) {
    auto k = slab_.Kmalloc(512, "spill");
    ASSERT_TRUE(k.ok());
    kvas.push_back(*k);
  }
  std::set<uint64_t> pfns;
  for (Kva k : kvas) {
    pfns.insert(layout_.DirectMapKvaToPhys(k)->pfn().value);
  }
  EXPECT_EQ(pfns.size(), 2u);
}

TEST_F(SlabFixture, LifoSlotReuse) {
  auto keeper = slab_.Kmalloc(128, "keeper");  // keeps the slab page alive
  auto a = slab_.Kmalloc(128, "a");
  auto b = slab_.Kmalloc(128, "b");
  ASSERT_TRUE(keeper.ok() && a.ok() && b.ok());
  ASSERT_TRUE(slab_.Kfree(*a).ok());
  ASSERT_TRUE(slab_.Kfree(*b).ok());
  auto c = slab_.Kmalloc(128, "c");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *b);  // most recently freed slot first
}

TEST_F(SlabFixture, LargeAllocationTakesWholePages) {
  auto big = slab_.Kmalloc(3 * 4096 + 100, "big");
  ASSERT_TRUE(big.ok());
  auto phys = layout_.DirectMapKvaToPhys(*big);
  ASSERT_TRUE(phys.ok());
  EXPECT_EQ(phys->page_offset(), 0u);
  auto info = slab_.Lookup(*big + 4096 * 2);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->kva, *big);
  EXPECT_EQ(info->size, 3u * 4096u + 100u);
  ASSERT_TRUE(slab_.Kfree(*big).ok());
}

TEST_F(SlabFixture, KfreeNullIsNoop) { EXPECT_TRUE(slab_.Kfree(Kva{}).ok()); }

TEST_F(SlabFixture, DoubleFreeDetected) {
  auto a = slab_.Kmalloc(64, "t");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(slab_.Kfree(*a).ok());
  EXPECT_FALSE(slab_.Kfree(*a).ok());
}

TEST_F(SlabFixture, KfreeOfForeignPointerRejected) {
  EXPECT_FALSE(slab_.Kfree(Kva{0x1234}).ok());
  EXPECT_FALSE(slab_.Kfree(layout_.PhysToDirectMapKva(PhysAddr{123 << 12})).ok());
}

TEST_F(SlabFixture, LookupFindsInteriorPointers) {
  auto a = slab_.Kmalloc(512, "sock_alloc_inode+0x4f/0x120");
  ASSERT_TRUE(a.ok());
  auto info = slab_.Lookup(*a + 100);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->kva, *a);
  EXPECT_EQ(info->size, 512u);
  EXPECT_EQ(info->site, "sock_alloc_inode+0x4f/0x120");
  EXPECT_FALSE(slab_.Lookup(*a + 512).has_value());  // next (free) slot
}

TEST_F(SlabFixture, ObjectsOnPageEnumeratesLiveOnly) {
  auto a = slab_.Kmalloc(1024, "a");
  auto b = slab_.Kmalloc(1024, "b");
  auto c = slab_.Kmalloc(1024, "c");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(slab_.Kfree(*b).ok());
  auto pfn = layout_.DirectMapKvaToPhys(*a)->pfn();
  auto objs = slab_.ObjectsOnPage(pfn);
  ASSERT_EQ(objs.size(), 2u);
  EXPECT_EQ(objs[0].kva, *a);
  EXPECT_EQ(objs[1].kva, *c);
}

TEST_F(SlabFixture, EmptySlabPageReturnsToBuddy) {
  const uint64_t before = alloc_.free_pages();
  auto a = slab_.Kmalloc(2048, "t");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(alloc_.free_pages(), before - 1);
  ASSERT_TRUE(slab_.Kfree(*a).ok());
  EXPECT_EQ(alloc_.free_pages(), before);
  EXPECT_EQ(db_.owner(layout_.DirectMapKvaToPhys(*a)->pfn()), mem::PageOwner::kFree);
}

TEST_F(SlabFixture, SlabPagesTaggedInPageDb) {
  auto a = slab_.Kmalloc(96, "t");
  ASSERT_TRUE(a.ok());
  const Pfn pfn = layout_.DirectMapKvaToPhys(*a)->pfn();
  const auto& meta = db_.Get(pfn);
  EXPECT_EQ(db_.owner(pfn), mem::PageOwner::kSlab);
  EXPECT_EQ(kKmallocSizeClasses[meta.cache_id], 96u);
}

// Decodes the alloc/free events SlabAllocator publishes on its hub.
class RecordingSink : public telemetry::EventSink {
 public:
  struct Record {
    bool alloc;
    Kva kva;
    uint64_t size;
    std::string site;
  };
  void OnEvent(const telemetry::Event& event) override {
    if (event.kind == telemetry::EventKind::kSlabAlloc ||
        event.kind == telemetry::EventKind::kSlabFree) {
      records.push_back({event.kind == telemetry::EventKind::kSlabAlloc, Kva{event.addr},
                         event.len, event.site});
    }
  }
  std::vector<Record> records;
};

TEST_F(SlabFixture, ObserverSeesAllocAndFree) {
  RecordingSink sink;
  slab_.telemetry().AddSink(&sink);
  auto a = slab_.Kmalloc(300, "__alloc_skb+0xe0/0x3f0");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(slab_.Kfree(*a).ok());
  slab_.telemetry().RemoveSink(&sink);
  ASSERT_EQ(sink.records.size(), 2u);
  EXPECT_TRUE(sink.records[0].alloc);
  EXPECT_EQ(sink.records[0].kva, *a);
  EXPECT_EQ(sink.records[0].size, 512u);  // size-class size
  EXPECT_EQ(sink.records[0].site, "__alloc_skb+0xe0/0x3f0");
  EXPECT_FALSE(sink.records[1].alloc);
  EXPECT_EQ(sink.records[1].kva, *a);
}

// Parameterized churn across every size class: allocator invariants hold.
class SlabChurnTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SlabChurnTest, ChurnKeepsObjectsDisjoint) {
  const uint32_t size = GetParam();
  mem::PhysicalMemory pm{kTestPages};
  mem::PageDb db{kTestPages};
  mem::PageAllocator alloc{db, Pfn{64}, kTestPages - 64};
  Xoshiro256 seed_rng{99};
  mem::KernelLayout layout = mem::KernelLayout::Create(kTestPages, true, seed_rng);
  SlabAllocator slab{pm, db, alloc, layout};
  Xoshiro256 rng{size};

  std::set<uint64_t> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.NextBool(0.55)) {
      auto k = slab.Kmalloc(size, "churn");
      ASSERT_TRUE(k.ok());
      ASSERT_TRUE(live.insert(k->value).second) << "same KVA handed out twice";
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(live.size())));
      ASSERT_TRUE(slab.Kfree(Kva{*it}).ok());
      live.erase(it);
    }
  }
  EXPECT_EQ(slab.live_objects(), live.size());
  // Every live object must be found by Lookup with the right base.
  for (uint64_t kva : live) {
    auto info = slab.Lookup(Kva{kva});
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->kva.value, kva);
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, SlabChurnTest,
                         ::testing::Values(8u, 16u, 64u, 96u, 192u, 512u, 2048u, 4096u, 8192u));

// ---- page_frag ----------------------------------------------------------------

class PageFragFixture : public SlabFixture {
 protected:
  PageFragFixture() : pool_(db_, alloc_, layout_, CpuId{0}) {}
  PageFragPool pool_;
};

TEST_F(PageFragFixture, AllocatesDescendingFromRegionEnd) {
  // Fig 5: offset starts at the end and B-byte allocs subtract B.
  auto a = pool_.Alloc(1000);
  auto b = pool_.Alloc(1000);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a - *b, 1000u);  // b sits exactly below a
}

TEST_F(PageFragFixture, ConsecutiveBuffersSharePages) {
  // Type (c) premise: MTU-sized buffers co-reside on 4 KiB pages.
  auto a = pool_.Alloc(2048);
  auto b = pool_.Alloc(2048);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Pfn pa = layout_.DirectMapKvaToPhys(*a)->pfn();
  const Pfn pb = layout_.DirectMapKvaToPhys(*b)->pfn();
  EXPECT_EQ(pa, pb);
  auto frags = pool_.LiveFragsOnPage(pa);
  EXPECT_EQ(frags.size(), 2u);
}

TEST_F(PageFragFixture, AlignmentRespected) {
  auto a = pool_.Alloc(100, 64);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->value % 64, 0u);
  auto b = pool_.Alloc(1, 256);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->value % 256, 0u);
}

TEST_F(PageFragFixture, RefillsWhenExhausted) {
  // 32 KiB region, 2 KiB allocs -> 16 per region; the 17th refills.
  std::vector<Kva> frags;
  for (int i = 0; i < 17; ++i) {
    auto f = pool_.Alloc(2048);
    ASSERT_TRUE(f.ok());
    frags.push_back(*f);
  }
  EXPECT_EQ(pool_.regions_allocated(), 2u);
}

TEST_F(PageFragFixture, RegionFreedOnlyWhenAllRefsDropped) {
  const uint64_t before = alloc_.free_pages();
  std::vector<Kva> frags;
  for (int i = 0; i < 16; ++i) {
    auto f = pool_.Alloc(2048);
    ASSERT_TRUE(f.ok());
    frags.push_back(*f);
  }
  // Force retirement of the first region.
  auto extra = pool_.Alloc(2048);
  ASSERT_TRUE(extra.ok());
  for (size_t i = 0; i + 1 < frags.size(); ++i) {
    ASSERT_TRUE(pool_.Free(frags[i]).ok());
  }
  const uint64_t mid = alloc_.free_pages();
  EXPECT_LT(mid, before);  // region still referenced by the last frag
  ASSERT_TRUE(pool_.Free(frags.back()).ok());
  EXPECT_GT(alloc_.free_pages(), mid);  // retired region released
}

TEST_F(PageFragFixture, OversizedAllocGetsDedicatedRegion) {
  // HW-LRO style 64 KiB buffer (§5.3).
  auto big = pool_.Alloc(64 * 1024);
  ASSERT_TRUE(big.ok());
  auto phys = layout_.DirectMapKvaToPhys(*big);
  ASSERT_TRUE(phys.ok());
  auto small = pool_.Alloc(2048);
  ASSERT_TRUE(small.ok());
  EXPECT_NE(phys->pfn(), layout_.DirectMapKvaToPhys(*small)->pfn());
  EXPECT_TRUE(pool_.Free(*big).ok());
}

TEST_F(PageFragFixture, FreeUnknownFragRejected) {
  EXPECT_FALSE(pool_.Free(Kva{0x42}).ok());
}

TEST_F(PageFragFixture, PagesTaggedAsPageFrag) {
  auto a = pool_.Alloc(512);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(db_.owner(layout_.DirectMapKvaToPhys(*a)->pfn()), mem::PageOwner::kPageFrag);
}

TEST_F(PageFragFixture, ZeroSizeRejected) { EXPECT_FALSE(pool_.Alloc(0).ok()); }

TEST_F(PageFragFixture, InvalidAlignmentRejected) { EXPECT_FALSE(pool_.Alloc(64, 3).ok()); }

// Property sweep over realistic RX buffer sizes: every allocation is disjoint
// from every other live allocation; co-location (same page) is frequent for
// sub-page sizes.
class PageFragSizeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageFragSizeTest, FragsDisjointAndCoLocatedForSubPageSizes) {
  const uint64_t size = GetParam();
  mem::PhysicalMemory pm{kTestPages};
  mem::PageDb db{kTestPages};
  mem::PageAllocator alloc{db, Pfn{64}, kTestPages - 64};
  Xoshiro256 seed_rng{7};
  mem::KernelLayout layout = mem::KernelLayout::Create(kTestPages, true, seed_rng);
  PageFragPool pool{db, alloc, layout, CpuId{0}};

  std::vector<std::pair<uint64_t, uint64_t>> extents;  // [start, end)
  uint64_t shared_page_pairs = 0;
  Kva prev{};
  for (int i = 0; i < 64; ++i) {
    auto f = pool.Alloc(size, 64);
    ASSERT_TRUE(f.ok());
    for (const auto& [start, end] : extents) {
      EXPECT_FALSE(f->value < end && f->value + size > start) << "overlapping frags";
    }
    extents.emplace_back(f->value, f->value + size);
    if (i > 0 && prev.PageBase() == f->PageBase()) {
      ++shared_page_pairs;
    }
    prev = *f;
  }
  if (size <= kPageSize / 2) {
    EXPECT_GT(shared_page_pairs, 0u) << "sub-page frags never shared a page";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PageFragSizeTest,
                         ::testing::Values(128u, 256u, 512u, 1024u, 1536u, 2048u, 4096u));

}  // namespace
}  // namespace spv::slab
