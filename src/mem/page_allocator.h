// Buddy page allocator with a hot-page cache.
//
// Mirrors the two Linux behaviours the paper's attacks depend on:
//   * deterministic allocation order: the same boot sequence of requests
//     yields (mostly) the same PFNs, which is what makes RingFlood's
//     PFN-guessing viable (§5.3);
//   * hot-page reuse: freed order-0 pages are recycled LIFO from a per-CPU
//     style cache, so a page a device still holds a stale IOTLB entry for is
//     likely to be immediately handed to someone else (§5.2.1, point 2).

#ifndef SPV_MEM_PAGE_ALLOCATOR_H_
#define SPV_MEM_PAGE_ALLOCATOR_H_

#include <array>
#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "base/stat_counter.h"
#include "base/status.h"
#include "base/types.h"
#include "mem/page_db.h"

namespace spv::fault {
class FaultEngine;
}  // namespace spv::fault

namespace spv::mem {

class PageAllocator {
 public:
  static constexpr unsigned kMaxOrder = 10;  // up to 4 MiB contiguous
  static constexpr size_t kHotCacheCapacity = 64;

  // Manages PFNs [first_pfn, first_pfn + num_pages). Pages below first_pfn
  // are the reserved kernel image.
  PageAllocator(PageDb& page_db, Pfn first_pfn, uint64_t num_pages);

  PageAllocator(const PageAllocator&) = delete;
  PageAllocator& operator=(const PageAllocator&) = delete;

  // Allocates 2^order contiguous pages; returns the head PFN.
  Result<Pfn> AllocPages(unsigned order, PageOwner owner);
  Result<Pfn> AllocPage(PageOwner owner) { return AllocPages(0, owner); }

  // Frees an allocation previously returned by AllocPages (head PFN).
  Status FreePages(Pfn head);

  uint64_t free_pages() const { return free_pages_; }

  // Optional fault hook (kPageAlloc): nullptr detaches.
  void set_fault_engine(fault::FaultEngine* engine) { fault_ = engine; }

  // Statistics for benchmarks.
  uint64_t hot_cache_hits() const { return hot_cache_hits_; }
  uint64_t alloc_count() const { return alloc_count_; }

 private:
  struct FreeBlock {
    uint64_t pfn;
    bool operator<(const FreeBlock& other) const { return pfn < other.pfn; }
  };

  bool InRange(uint64_t pfn, unsigned order) const {
    return pfn >= first_pfn_ && pfn + (uint64_t{1} << order) <= first_pfn_ + num_pages_;
  }

  Result<Pfn> AllocFromBuddy(unsigned order);
  void FreeToBuddy(uint64_t pfn, unsigned order);

  PageDb& page_db_;
  uint64_t first_pfn_;
  uint64_t num_pages_;
  StatCounter free_pages_;

  // Ordered free sets per order: deterministic lowest-address-first policy.
  std::array<std::set<FreeBlock>, kMaxOrder + 1> free_lists_;

  // LIFO cache of recently freed order-0 pages ("hot" pages).
  std::deque<uint64_t> hot_cache_;

  StatCounter hot_cache_hits_;
  StatCounter alloc_count_;

  fault::FaultEngine* fault_ = nullptr;
};

}  // namespace spv::mem

#endif  // SPV_MEM_PAGE_ALLOCATOR_H_
