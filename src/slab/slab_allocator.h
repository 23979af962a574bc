// SLUB-like kmalloc allocator over simulated physical memory.
//
// The property that matters for the paper is co-location: objects of the same
// size class share 4 KiB pages (type (b)/(d) sub-page vulnerabilities, §3.2).
// Linux uses *the same* kmalloc caches for I/O buffers and for sensitive
// kernel objects, so a DMA-mapped kmalloc buffer exposes its page-mates. The
// allocator reproduces SLUB's placement behaviour: size-class caches,
// per-page object slots, LIFO slot reuse, new slab pages from the buddy
// allocator.

#ifndef SPV_SLAB_SLAB_ALLOCATOR_H_
#define SPV_SLAB_SLAB_ALLOCATOR_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/stat_counter.h"
#include "base/status.h"
#include "base/types.h"
#include "mem/kernel_layout.h"
#include "mem/page_allocator.h"
#include "mem/page_db.h"
#include "mem/phys_memory.h"
#include "telemetry/telemetry.h"

namespace spv::fault {
class FaultEngine;
}  // namespace spv::fault

namespace spv::slab {

// Linux kmalloc size classes up to one page.
inline constexpr std::array<uint32_t, 12> kKmallocSizeClasses = {
    8, 16, 32, 64, 96, 128, 192, 256, 512, 1024, 2048, 4096};

struct ObjectInfo {
  Kva kva;            // object base
  uint64_t size;      // size-class size (>= requested size)
  uint16_t cache_id;  // index into kKmallocSizeClasses, or 0xffff for large
  std::string site;   // allocating location
};

class SlabAllocator {
 public:
  // When `hub` is null a private (disabled) Hub is lazily owned, so sinks
  // such as D-KASAN always have one bus to join; core::Machine injects its
  // shared Hub.
  SlabAllocator(mem::PhysicalMemory& pm, mem::PageDb& page_db, mem::PageAllocator& page_alloc,
                const mem::KernelLayout& layout, telemetry::Hub* hub = nullptr);

  SlabAllocator(const SlabAllocator&) = delete;
  SlabAllocator& operator=(const SlabAllocator&) = delete;

  // Allocates `size` bytes; returns the direct-map KVA of the object. Sizes
  // above one page fall through to the buddy allocator (like kmalloc_large).
  // Memory is zeroed (kzalloc semantics keep tests deterministic).
  Result<Kva> Kmalloc(uint64_t size, std::string_view site = "unknown");

  Status Kfree(Kva kva);

  // Finds the live object containing `kva` (not necessarily its base).
  std::optional<ObjectInfo> Lookup(Kva kva) const;

  // All live objects on a physical page, in address order. This is the
  // ground-truth view D-KASAN and the attack analyses use to enumerate what
  // a DMA mapping actually exposes.
  std::vector<ObjectInfo> ObjectsOnPage(Pfn pfn) const;

  // The bus every slab event is published to: kSlabAlloc / kSlabFree with
  // the object size and the allocating site, what KASAN's __kasan_kmalloc
  // hooks see (`origin` = this allocator).
  telemetry::Hub& telemetry();

  // The size class an allocation of `size` lands in, or nullopt if large.
  static std::optional<uint16_t> SizeClassIndex(uint64_t size);

  uint64_t live_objects() const { return live_objects_; }

  // Optional fault hook (kSlabAlloc): nullptr detaches.
  void set_fault_engine(fault::FaultEngine* engine) { fault_ = engine; }

 private:
  struct SlabPage {
    Pfn pfn;
    uint16_t cache_id = 0;
    uint32_t object_size = 0;
    uint32_t capacity = 0;
    uint32_t used = 0;
    std::vector<bool> occupied;          // slot -> live?
    std::vector<uint16_t> free_stack;    // LIFO of free slots
    std::vector<std::string> sites;      // slot -> allocating site
  };

  struct LargeAlloc {
    Pfn head;
    uint64_t size;
    unsigned order;
    std::string site;
  };

  struct Cache {
    uint16_t id = 0;
    uint32_t object_size = 0;
    uint32_t objects_per_page = 0;
    std::deque<Pfn> partial;  // pages with at least one free slot (MRU front)
  };

  Result<Kva> KmallocLarge(uint64_t size, std::string_view site);
  Result<Pfn> NewSlabPage(Cache& cache);
  Kva SlotKva(const SlabPage& page, uint32_t slot) const;
  void Notify(bool alloc, Kva kva, uint64_t size, std::string_view site);

  mem::PhysicalMemory& pm_;
  mem::PageDb& page_db_;
  mem::PageAllocator& page_alloc_;
  const mem::KernelLayout& layout_;

  std::array<Cache, kKmallocSizeClasses.size()> caches_;
  std::unordered_map<uint64_t, SlabPage> slab_pages_;   // pfn -> slab page
  std::unordered_map<uint64_t, LargeAlloc> large_;      // head pfn -> large alloc
  telemetry::Hub* hub_;
  std::unique_ptr<telemetry::Hub> owned_hub_;  // fallback when none injected
  StatCounter live_objects_;
  fault::FaultEngine* fault_ = nullptr;
  // The hub-owned metrics bumped per event.
  telemetry::CachedCounter allocs_{"slab.allocs"};
  telemetry::CachedCounter frees_{"slab.frees"};
  telemetry::CachedHistogram alloc_bytes_{"slab.alloc_bytes"};
  telemetry::CachedHistogram co_residency_{"slab.co_residency"};
};

}  // namespace spv::slab

#endif  // SPV_SLAB_SLAB_ALLOCATOR_H_
