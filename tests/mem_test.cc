// Unit and property tests for the mem module: physical memory, kernel layout
// with KASLR, page metadata, buddy allocator.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "base/rng.h"
#include "mem/kernel_layout.h"
#include "mem/page_allocator.h"
#include "mem/page_db.h"
#include "mem/phys_memory.h"

namespace spv::mem {
namespace {

constexpr uint64_t kTestPages = 1024;

// ---- PhysicalMemory ----------------------------------------------------------

TEST(PhysMemoryTest, StartsZeroed) {
  PhysicalMemory pm{4};
  for (uint64_t pfn = 0; pfn < 4; ++pfn) {
    for (uint8_t byte : pm.PageSpan(Pfn{pfn})) {
      ASSERT_EQ(byte, 0);
    }
  }
}

TEST(PhysMemoryTest, FreshMemoryReadsZeroWhereFreedMemoryWasDirty) {
  // Machine-sized memory is lazily zeroed host memory. Dirty the first,
  // middle and last pages of one, free it, and a fresh one of the same size
  // must still read zero there, however the host recycles the bytes.
  constexpr uint64_t kPages = 16384;
  const Pfn pages[] = {Pfn{0}, Pfn{kPages / 2}, Pfn{kPages - 1}};
  {
    PhysicalMemory dirty{kPages};
    for (Pfn pfn : pages) {
      ASSERT_TRUE(dirty.Fill(PhysAddr::FromPfn(pfn), kPageSize, 0xff).ok());
    }
  }
  PhysicalMemory pm{kPages};
  for (Pfn pfn : pages) {
    SCOPED_TRACE(pfn.value);
    std::vector<uint8_t> buf(kPageSize, 0xee);
    ASSERT_TRUE(pm.Read(PhysAddr::FromPfn(pfn), std::span<uint8_t>(buf)).ok());
    for (uint8_t byte : buf) {
      ASSERT_EQ(byte, 0);
    }
    for (uint64_t offset = 0; offset < kPageSize; offset += 8) {
      ASSERT_EQ(*pm.ReadU64(PhysAddr::FromPfn(pfn, offset)), 0u);
    }
    for (uint8_t byte : pm.PageSpan(pfn)) {
      ASSERT_EQ(byte, 0);
    }
  }
}

TEST(PhysMemoryTest, ScalarRoundTrip) {
  PhysicalMemory pm{2};
  PhysAddr addr{0x123};
  ASSERT_TRUE(pm.WriteU64(addr, 0xdeadbeefcafef00dULL).ok());
  auto r = pm.ReadU64(addr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0xdeadbeefcafef00dULL);
}

TEST(PhysMemoryTest, LittleEndianLayout) {
  PhysicalMemory pm{1};
  ASSERT_TRUE(pm.WriteU32(PhysAddr{0}, 0x04030201).ok());
  EXPECT_EQ(*pm.ReadU8(PhysAddr{0}), 0x01);
  EXPECT_EQ(*pm.ReadU8(PhysAddr{3}), 0x04);
}

TEST(PhysMemoryTest, CrossPageAccessWorks) {
  PhysicalMemory pm{2};
  PhysAddr addr{kPageSize - 4};
  ASSERT_TRUE(pm.WriteU64(addr, 0x1122334455667788ULL).ok());
  EXPECT_EQ(*pm.ReadU64(addr), 0x1122334455667788ULL);
}

TEST(PhysMemoryTest, OutOfRangeIsRejected) {
  PhysicalMemory pm{1};
  EXPECT_FALSE(pm.WriteU64(PhysAddr{kPageSize - 4}, 1).ok());
  EXPECT_FALSE(pm.ReadU64(PhysAddr{kPageSize}).ok());
  std::vector<uint8_t> buf(16);
  EXPECT_FALSE(pm.Read(PhysAddr{kPageSize - 8}, std::span<uint8_t>(buf)).ok());
}

TEST(PhysMemoryTest, FillAndBulkRead) {
  PhysicalMemory pm{1};
  ASSERT_TRUE(pm.Fill(PhysAddr{16}, 64, 0xab).ok());
  std::vector<uint8_t> buf(64);
  ASSERT_TRUE(pm.Read(PhysAddr{16}, std::span<uint8_t>(buf)).ok());
  for (uint8_t b : buf) {
    EXPECT_EQ(b, 0xab);
  }
  EXPECT_EQ(*pm.ReadU8(PhysAddr{15}), 0);
  EXPECT_EQ(*pm.ReadU8(PhysAddr{80}), 0);
}

// ---- KernelLayout -------------------------------------------------------------

TEST(KernelLayoutTest, NoKaslrUsesTable1Defaults) {
  Xoshiro256 rng{1};
  KernelLayout layout = KernelLayout::Create(kTestPages, /*kaslr=*/false, rng);
  EXPECT_EQ(layout.page_offset_base(), LayoutRanges::kDirectMapStart);
  EXPECT_EQ(layout.vmemmap_base(), LayoutRanges::kVmemmapStart);
  EXPECT_EQ(layout.text_base(), LayoutRanges::kTextStart);
  EXPECT_EQ(layout.text_slide(), 0u);
}

TEST(KernelLayoutTest, KaslrRespectsAlignmentGuarantees) {
  // §2.4: direct map / vmemmap bases are 1 GiB aligned (low 30 bits fixed);
  // text base is 2 MiB aligned (low 21 bits fixed).
  for (uint64_t seed = 0; seed < 32; ++seed) {
    Xoshiro256 rng{seed};
    KernelLayout layout = KernelLayout::Create(kTestPages, /*kaslr=*/true, rng);
    EXPECT_EQ(layout.page_offset_base() & (kRegionBaseAlign - 1), 0u) << "seed " << seed;
    EXPECT_EQ(layout.vmemmap_base() & (kRegionBaseAlign - 1), 0u) << "seed " << seed;
    EXPECT_EQ(layout.text_base() & (kTextAlign - 1), 0u) << "seed " << seed;
  }
}

TEST(KernelLayoutTest, KaslrStaysInsideTable1Ranges) {
  for (uint64_t seed = 100; seed < 132; ++seed) {
    Xoshiro256 rng{seed};
    KernelLayout layout = KernelLayout::Create(kTestPages, /*kaslr=*/true, rng);
    EXPECT_GE(layout.page_offset_base(), LayoutRanges::kDirectMapStart);
    EXPECT_LT(layout.page_offset_base() + (kTestPages << kPageShift),
              LayoutRanges::kDirectMapEnd);
    EXPECT_GE(layout.vmemmap_base(), LayoutRanges::kVmemmapStart);
    EXPECT_LT(layout.vmemmap_base() + kTestPages * kStructPageSize, LayoutRanges::kVmemmapEnd);
    EXPECT_GE(layout.text_base(), LayoutRanges::kTextStart);
    EXPECT_LT(layout.text_base(), LayoutRanges::kTextEnd);
  }
}

TEST(KernelLayoutTest, KaslrActuallyRandomizes) {
  std::set<uint64_t> text_bases;
  std::set<uint64_t> dm_bases;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    Xoshiro256 rng{seed};
    KernelLayout layout = KernelLayout::Create(kTestPages, /*kaslr=*/true, rng);
    text_bases.insert(layout.text_base());
    dm_bases.insert(layout.page_offset_base());
  }
  EXPECT_GT(text_bases.size(), 32u);
  EXPECT_GT(dm_bases.size(), 32u);
}

TEST(KernelLayoutTest, DirectMapTranslationRoundTrip) {
  Xoshiro256 rng{42};
  KernelLayout layout = KernelLayout::Create(kTestPages, /*kaslr=*/true, rng);
  PhysAddr phys{(123ull << kPageShift) | 0x45};
  Kva kva = layout.PhysToDirectMapKva(phys);
  auto back = layout.DirectMapKvaToPhys(kva);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->value, phys.value);
  // Low 12 bits of the KVA equal the page offset (footnote 5 of the paper).
  EXPECT_EQ(kva.page_offset(), 0x45u);
}

TEST(KernelLayoutTest, DirectMapRejectsForeignKva) {
  Xoshiro256 rng{43};
  KernelLayout layout = KernelLayout::Create(kTestPages, /*kaslr=*/true, rng);
  EXPECT_FALSE(layout.DirectMapKvaToPhys(Kva{LayoutRanges::kTextStart}).ok());
  EXPECT_FALSE(layout.DirectMapKvaToPhys(Kva{0}).ok());
}

TEST(KernelLayoutTest, StructPageTranslationRoundTrip) {
  Xoshiro256 rng{44};
  KernelLayout layout = KernelLayout::Create(kTestPages, /*kaslr=*/true, rng);
  Pfn pfn{777};
  Kva spage = layout.StructPageKva(pfn);
  EXPECT_TRUE(layout.IsVmemmapKva(spage));
  auto back = layout.StructPageKvaToPfn(spage);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->value, 777u);
  // Misaligned pointer into vmemmap is rejected.
  EXPECT_FALSE(layout.StructPageKvaToPfn(spage + 8).ok());
}

TEST(KernelLayoutTest, ClassifyByRangeMatchesTable1) {
  EXPECT_EQ(KernelLayout::ClassifyByRange(Kva{0xffff888000000000ULL}), Region::kDirectMap);
  EXPECT_EQ(KernelLayout::ClassifyByRange(Kva{0xffffc90000001000ULL}), Region::kVmalloc);
  EXPECT_EQ(KernelLayout::ClassifyByRange(Kva{0xffffea0000000040ULL}), Region::kVmemmap);
  EXPECT_EQ(KernelLayout::ClassifyByRange(Kva{0xffffffff81000000ULL}), Region::kKernelText);
  EXPECT_EQ(KernelLayout::ClassifyByRange(Kva{0xffffffffa0100000ULL}), Region::kModules);
  EXPECT_EQ(KernelLayout::ClassifyByRange(Kva{0x00007f0000000000ULL}), Region::kNone);
  EXPECT_EQ(KernelLayout::ClassifyByRange(Kva{0}), Region::kNone);
}

TEST(KernelLayoutTest, TextSlidePreservesLow21Bits) {
  // The KASLR-subversion premise: symbol KVAs keep their low 21 bits across
  // boots because the slide is 2 MiB aligned.
  constexpr uint64_t kSymbolOffset = 0x123456;  // compile-time offset of a symbol
  std::set<uint64_t> low_bits;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    Xoshiro256 rng{seed};
    KernelLayout layout = KernelLayout::Create(kTestPages, /*kaslr=*/true, rng);
    low_bits.insert(layout.SymbolKva(kSymbolOffset).value & ((1ull << 21) - 1));
  }
  EXPECT_EQ(low_bits.size(), 1u);
  EXPECT_EQ(*low_bits.begin(), kSymbolOffset & ((1ull << 21) - 1));
}

// ---- PageDb -------------------------------------------------------------------

TEST(PageDbTest, CountsOwners) {
  PageDb db{16};
  db.set_owner(Pfn{0}, PageOwner::kKernelImage);
  db.set_owner(Pfn{1}, PageOwner::kSlab);
  db.set_owner(Pfn{2}, PageOwner::kSlab);
  EXPECT_EQ(db.CountOwned(PageOwner::kSlab), 2u);
  EXPECT_EQ(db.CountOwned(PageOwner::kKernelImage), 1u);
  EXPECT_EQ(db.CountOwned(PageOwner::kFree), 13u);
}

// ---- PageAllocator ------------------------------------------------------------

class PageAllocatorTest : public ::testing::Test {
 protected:
  PageAllocatorTest() : db_(kTestPages), alloc_(db_, Pfn{64}, kTestPages - 64) {}

  PageDb db_;
  PageAllocator alloc_;
};

TEST_F(PageAllocatorTest, AllocatesDistinctPages) {
  std::set<uint64_t> pfns;
  for (int i = 0; i < 100; ++i) {
    auto pfn = alloc_.AllocPage(PageOwner::kAnon);
    ASSERT_TRUE(pfn.ok());
    EXPECT_TRUE(pfns.insert(pfn->value).second) << "duplicate pfn " << pfn->value;
    EXPECT_GE(pfn->value, 64u);
    EXPECT_LT(pfn->value, kTestPages);
  }
  EXPECT_EQ(alloc_.free_pages(), kTestPages - 64 - 100);
}

TEST_F(PageAllocatorTest, SetsPageMetadata) {
  auto pfn = alloc_.AllocPages(2, PageOwner::kDriver);
  ASSERT_TRUE(pfn.ok());
  const PageMeta& head = db_.Get(*pfn);
  EXPECT_EQ(db_.owner(*pfn), PageOwner::kDriver);
  EXPECT_EQ(head.order, 2);
  EXPECT_TRUE(head.is_head);
  for (uint64_t i = 1; i < 4; ++i) {
    const PageMeta& tail = db_.Get(Pfn{pfn->value + i});
    EXPECT_EQ(db_.owner(Pfn{pfn->value + i}), PageOwner::kDriver);
    EXPECT_FALSE(tail.is_head);
  }
}

TEST_F(PageAllocatorTest, FreeReturnsPagesToPool) {
  auto pfn = alloc_.AllocPages(3, PageOwner::kAnon);
  ASSERT_TRUE(pfn.ok());
  EXPECT_EQ(alloc_.free_pages(), kTestPages - 64 - 8);
  ASSERT_TRUE(alloc_.FreePages(*pfn).ok());
  EXPECT_EQ(alloc_.free_pages(), kTestPages - 64);
  EXPECT_EQ(db_.owner(*pfn), PageOwner::kFree);
}

TEST_F(PageAllocatorTest, DoubleFreeIsRejected) {
  auto pfn = alloc_.AllocPage(PageOwner::kAnon);
  ASSERT_TRUE(pfn.ok());
  ASSERT_TRUE(alloc_.FreePages(*pfn).ok());
  EXPECT_FALSE(alloc_.FreePages(*pfn).ok());
}

TEST_F(PageAllocatorTest, FreeOfTailPageIsRejected) {
  auto pfn = alloc_.AllocPages(1, PageOwner::kAnon);
  ASSERT_TRUE(pfn.ok());
  EXPECT_FALSE(alloc_.FreePages(Pfn{pfn->value + 1}).ok());
}

TEST_F(PageAllocatorTest, HotPageReuseIsLifo) {
  // §5.2.1: freed pages are reused immediately ("hot" pages), which is what
  // exposes reallocated pages to stale IOTLB entries.
  auto a = alloc_.AllocPage(PageOwner::kAnon);
  auto b = alloc_.AllocPage(PageOwner::kAnon);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(alloc_.FreePages(*a).ok());
  ASSERT_TRUE(alloc_.FreePages(*b).ok());
  auto c = alloc_.AllocPage(PageOwner::kSlab);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->value, b->value);  // most recently freed page comes back first
  auto d = alloc_.AllocPage(PageOwner::kSlab);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->value, a->value);
}

TEST_F(PageAllocatorTest, HigherOrderAllocationsAreAligned) {
  for (unsigned order = 1; order <= 5; ++order) {
    auto pfn = alloc_.AllocPages(order, PageOwner::kDriver);
    ASSERT_TRUE(pfn.ok());
    EXPECT_EQ((pfn->value - 64) & ((1ull << order) - 1), 0u)
        << "order-" << order << " block not naturally aligned";
    ASSERT_TRUE(alloc_.FreePages(*pfn).ok());
  }
}

TEST_F(PageAllocatorTest, ExhaustionReturnsError) {
  std::vector<Pfn> held;
  while (true) {
    auto pfn = alloc_.AllocPage(PageOwner::kAnon);
    if (!pfn.ok()) {
      EXPECT_EQ(pfn.status().code(), StatusCode::kResourceExhausted);
      break;
    }
    held.push_back(*pfn);
  }
  EXPECT_EQ(held.size(), kTestPages - 64);
  EXPECT_EQ(alloc_.free_pages(), 0u);
  for (Pfn pfn : held) {
    ASSERT_TRUE(alloc_.FreePages(pfn).ok());
  }
  EXPECT_EQ(alloc_.free_pages(), kTestPages - 64);
}

TEST_F(PageAllocatorTest, CoalescingAllowsLargeAllocAfterChurn) {
  // Allocate everything order-0, free everything, then a large-order alloc
  // must succeed (buddies merged back; a few pages may linger in the hot
  // cache, so ask for less than the whole pool).
  std::vector<Pfn> held;
  while (true) {
    auto pfn = alloc_.AllocPage(PageOwner::kAnon);
    if (!pfn.ok()) {
      break;
    }
    held.push_back(*pfn);
  }
  for (Pfn pfn : held) {
    ASSERT_TRUE(alloc_.FreePages(pfn).ok());
  }
  auto big = alloc_.AllocPages(8, PageOwner::kDriver);
  EXPECT_TRUE(big.ok()) << big.status().ToString();
}

TEST_F(PageAllocatorTest, DeterministicSequenceAcrossInstances) {
  // Boot determinism premise of RingFlood (§5.3): the same request sequence
  // yields the same PFNs.
  PageDb db2{kTestPages};
  PageAllocator alloc2{db2, Pfn{64}, kTestPages - 64};
  for (int i = 0; i < 200; ++i) {
    unsigned order = static_cast<unsigned>(i % 3);
    auto p1 = alloc_.AllocPages(order, PageOwner::kDriver);
    auto p2 = alloc2.AllocPages(order, PageOwner::kDriver);
    ASSERT_TRUE(p1.ok());
    ASSERT_TRUE(p2.ok());
    EXPECT_EQ(p1->value, p2->value) << "diverged at request " << i;
  }
}

// Property sweep: alloc/free churn at every order preserves the free-page
// invariant and never hands out overlapping blocks.
class PageAllocatorOrderTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PageAllocatorOrderTest, ChurnPreservesInvariants) {
  const unsigned order = GetParam();
  PageDb db{kTestPages};
  PageAllocator alloc{db, Pfn{0}, kTestPages};
  Xoshiro256 rng{order};

  std::map<uint64_t, unsigned> live;  // head pfn -> order
  for (int step = 0; step < 500; ++step) {
    if (live.empty() || rng.NextBool(0.6)) {
      auto pfn = alloc.AllocPages(order, PageOwner::kAnon);
      if (!pfn.ok()) {
        continue;
      }
      // No overlap with any live block.
      for (const auto& [head, ord] : live) {
        const uint64_t end = head + (1ull << ord);
        EXPECT_FALSE(pfn->value >= head && pfn->value < end)
            << "overlapping allocation at step " << step;
      }
      live[pfn->value] = order;
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(live.size())));
      ASSERT_TRUE(alloc.FreePages(Pfn{it->first}).ok());
      live.erase(it);
    }
  }
  uint64_t live_pages = 0;
  for (const auto& [head, ord] : live) {
    live_pages += 1ull << ord;
  }
  EXPECT_EQ(alloc.free_pages(), kTestPages - live_pages);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, PageAllocatorOrderTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 5u, 8u, 10u));

}  // namespace
}  // namespace spv::mem
