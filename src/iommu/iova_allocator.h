// Per-domain IOVA space allocator with a Linux-style rcache fast path.
//
// Two layers, mirroring the kernel's iova.c:
//
//  * Fast path: per-size-class magazine caches. Each simulated CPU keeps a
//    `loaded` and a `prev` magazine per size class; exhausted CPUs refill
//    from a shared depot of full magazines. Alloc/Free on a warm cache is a
//    vector push/pop — no tree walk, no search.
//  * Slow path: the original top-down range allocator over the 32-bit DMA
//    window, now with adjacent-free-range coalescing and range splitting so
//    churn no longer fragments the reuse cache unboundedly.
//
// The substrate of the paper's type (c) "page mapped by multiple IOVA"
// vulnerability is preserved by construction: every Alloc hands out a range
// no other live allocation holds, so two Map calls targeting the same PFN
// still receive two different IOVAs. A shadow table of live ranges enforces
// this (and catches double frees) in both paths.

#ifndef SPV_IOMMU_IOVA_ALLOCATOR_H_
#define SPV_IOMMU_IOVA_ALLOCATOR_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/stat_counter.h"
#include "base/status.h"
#include "base/types.h"
#include "iommu/fast_path.h"
#include "telemetry/telemetry.h"

namespace spv::iommu {

class IovaAllocator {
 public:
  // Default window: [1 MiB, 4 GiB) like a 32-bit DMA mask with the low
  // megabyte avoided.
  static constexpr uint64_t kDefaultWindowStart = 1ull << 20;
  static constexpr uint64_t kDefaultWindowEnd = 1ull << 32;

  // Largest request (in pages) served by the magazine caches; bigger ranges
  // always take the slow path (IOVA_RANGE_CACHE_MAX_SIZE).
  static constexpr uint64_t kMaxCachedPages = 32;
  static constexpr size_t kNumSizeClasses = 6;  // 1, 2, 4, 8, 16, 32 pages

  struct Stats {
    StatCounter rcache_hits;       // allocs served from a magazine
    StatCounter rcache_misses;     // cacheable allocs that hit the tree
    StatCounter depot_refills;     // CPU pulled a full magazine from depot
    StatCounter depot_spills;      // CPU pushed a full magazine to depot
    StatCounter depot_overflows;   // magazine dumped back to the tree
    StatCounter coalesces;         // adjacent free-range merges
    StatCounter range_splits;      // partial reuse of a cached range
  };

  explicit IovaAllocator(uint64_t window_start = kDefaultWindowStart,
                         uint64_t window_end = kDefaultWindowEnd,
                         const FastPathConfig& fast_path = {});

  // Allocates `pages` contiguous IOVA pages; returns the base IOVA. Cacheable
  // sizes are rounded up to their size class (as Linux's alloc_iova_fast
  // does), so the same request size always recycles the same class.
  Result<Iova> Alloc(uint64_t pages, CpuId cpu = CpuId{0});

  // Releases a range previously returned by Alloc; `pages` must match the
  // Alloc request. Cacheable ranges go to `cpu`'s magazine, others back to
  // the coalescing free tree.
  Status Free(Iova base, uint64_t pages, CpuId cpu = CpuId{0});

  uint64_t allocated_pages() const { return allocated_pages_; }
  const Stats& stats() const { return stats_; }
  const FastPathConfig& fast_path() const { return fast_path_; }

  // Trust-policy gate (spv::policy): while bypassed, Alloc and Free skip the
  // magazine caches and go straight to the coalescing tree — the pre-PR-2
  // slow path, reserved for devices that have not earned kTrusted. Ranges
  // already parked in magazines stay parked (AuditCaches still accounts
  // them) and resume serving allocs when the bypass lifts. Size-class
  // rounding is unaffected, so toggling mid-lifetime never desyncs Free.
  void set_cache_bypass(bool bypass) { cache_bypass_ = bypass; }
  bool cache_bypass() const { return cache_bypass_; }

  // Number of IOVA ranges currently parked in magazines + depot.
  uint64_t cached_ranges() const;

  struct LiveRange {
    uint64_t base_page;
    uint64_t pages;  // size-class-rounded (effective) count
  };

  // Magazine-ownership audit (Iommu::Audit, cross-CPU): every range parked
  // in a magazine or the depot must lie inside the window, be parked exactly
  // once, and have a base that starts no live range. `live` is this
  // allocator's live_ranges(), which the caller already holds.
  Status AuditCaches(std::span<const LiveRange> live) const;

  // Live ranges in ascending base order, sized as the rounded counts Alloc
  // actually reserved. Leak/containment audits (Machine::CheckInvariants)
  // match mapped IOVA pages against these.
  std::vector<LiveRange> live_ranges() const {
    std::vector<LiveRange> out;
    out.reserve(live_.size());
    for (const auto& [base, pages] : live_) {
      out.push_back(LiveRange{base, pages});
    }
    std::sort(out.begin(), out.end(), [](const LiveRange& a, const LiveRange& b) {
      return a.base_page < b.base_page;
    });
    return out;
  }

  // Links the rcache hit/miss/depot and coalesce tallies into `hub`
  // (nullptr detaches).
  void set_telemetry(telemetry::Hub* hub);

 private:
  // A magazine: a bounded LIFO of range base page numbers, all of one size
  // class.
  using Magazine = std::vector<uint64_t>;
  struct CpuCache {
    Magazine loaded;
    Magazine prev;
  };
  struct SizeClassCache {
    std::vector<CpuCache> cpus;
    std::vector<Magazine> depot;  // full magazines
  };

  // Size class for a cacheable request, or -1 when it must bypass the cache.
  static int SizeClassFor(uint64_t pages);

  // Request size after size-class rounding (identity for uncacheable sizes).
  uint64_t EffectivePages(uint64_t pages) const;

  // Slow path over the free tree / virgin space. Returns a base *page*.
  Result<uint64_t> AllocRange(uint64_t pages);
  void FreeRange(uint64_t base_page, uint64_t pages);

  // Per-CPU fast path; the shared depot serves a refill (pop) or takes a
  // spill (push), and a full depot dumps the magazine into the free tree.
  bool MagazinePop(int size_class, CpuId cpu, uint64_t* base_page);
  void MagazinePush(int size_class, CpuId cpu, uint64_t base_page);

  uint64_t window_start_;  // in pages
  uint64_t window_end_;    // in pages
  uint64_t next_top_;      // grows downward, in pages
  FastPathConfig fast_path_;
  bool cache_bypass_ = false;  // trust-policy slow-path gate

  std::map<uint64_t, uint64_t> free_ranges_;  // base page -> page count
  std::vector<SizeClassCache> rcaches_;       // indexed by size class

  // Live ranges (base page -> rounded page count): the invariant the type (c)
  // substrate rests on. Consulted O(1) on every alloc/free.
  std::unordered_map<uint64_t, uint64_t> live_;

  StatCounter allocated_pages_;
  Stats stats_;
  std::vector<telemetry::CounterLink> links_;  // after the tallies it reads
};

}  // namespace spv::iommu

#endif  // SPV_IOMMU_IOVA_ALLOCATOR_H_
