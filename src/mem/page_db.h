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
  PageOwner owner = PageOwner::kFree;
  uint8_t order = 0;        // buddy order this page was allocated at (head page only)
  bool is_head = false;     // head of a (possibly compound) allocation
  uint16_t cache_id = 0;    // slab cache id when owner == kSlab
  uint32_t refcount = 0;    // page_frag / frag references
};

class PageDb {
 public:
  explicit PageDb(uint64_t num_pages) : pages_(num_pages) {}

  PageMeta& Get(Pfn pfn) { return pages_.at(pfn.value); }
  const PageMeta& Get(Pfn pfn) const { return pages_.at(pfn.value); }

  uint64_t num_pages() const { return pages_.size(); }

  // Convenience counters for reporting.
  uint64_t CountOwned(PageOwner owner) const;

 private:
  std::vector<PageMeta> pages_;
};

}  // namespace spv::mem

#endif  // SPV_MEM_PAGE_DB_H_
