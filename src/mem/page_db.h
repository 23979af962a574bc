// Per-page metadata (the simulator's `struct page` array).
//
// Tracks who owns each physical page. The DMA sanitizer (D-KASAN) and the
// attack analyses both key off this: a sub-page vulnerability is precisely a
// page whose owner semantics ("driver RX buffer") and actual contents
// ("also holds a kmalloc'd socket object") disagree.

#ifndef SPV_MEM_PAGE_DB_H_
#define SPV_MEM_PAGE_DB_H_

#include <cstdint>
#include <vector>

#include "base/types.h"

namespace spv::mem {

enum class PageOwner : uint8_t {
  kFree = 0,
  kKernelImage,  // text/data reserved at boot
  kSlab,         // owned by a kmalloc cache
  kPageFrag,     // owned by a page_frag pool
  kDriver,       // whole-page driver allocation (e.g. ring descriptors)
  kAnon,         // anonymous / other kernel allocation
};

struct PageMeta {
  uint8_t order = 0;        // buddy order this page was allocated at (head page only)
  bool is_head = false;     // head of a (possibly compound) allocation
  uint16_t cache_id = 0;    // slab cache id when the owner is kSlab
  uint32_t refcount = 0;    // page_frag / frag references
};

class PageDb {
 public:
  explicit PageDb(uint64_t num_pages) : pages_(num_pages), owners_(num_pages) {}

  PageMeta& Get(Pfn pfn) { return pages_.at(pfn.value); }
  const PageMeta& Get(Pfn pfn) const { return pages_.at(pfn.value); }

  // Owners live in their own byte array, apart from PageMeta, so the
  // per-epoch page-accounting audit (CountOwned) scans one byte per page.
  PageOwner owner(Pfn pfn) const { return owners_.at(pfn.value); }
  void set_owner(Pfn pfn, PageOwner owner) { owners_.at(pfn.value) = owner; }

  uint64_t num_pages() const { return pages_.size(); }

  // Pages currently owned by `owner`.
  uint64_t CountOwned(PageOwner owner) const;

 private:
  std::vector<PageMeta> pages_;
  std::vector<PageOwner> owners_;
};

}  // namespace spv::mem

#endif  // SPV_MEM_PAGE_DB_H_
