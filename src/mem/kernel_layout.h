// Kernel virtual memory layout with KASLR (paper Table 1 and §2.4).
//
// The x86-64 Linux layout defines fixed *ranges* for each region; KASLR only
// randomizes the base offset within the range:
//   * direct map base (page_offset_base)  — 1 GiB aligned  (low 30 bits fixed)
//   * vmemmap base (vmemmap_base)         — 1 GiB aligned  (low 30 bits fixed)
//   * kernel text base                    — 2 MiB aligned  (low 21 bits fixed)
// These alignment guarantees are exactly what the paper's KASLR-subversion
// step exploits: a single leaked pointer into a region pins the whole region.

#ifndef SPV_MEM_KERNEL_LAYOUT_H_
#define SPV_MEM_KERNEL_LAYOUT_H_

#include <cstdint>
#include <optional>

#include "base/rng.h"
#include "base/status.h"
#include "base/types.h"

namespace spv::mem {

enum class Region {
  kNone,
  kDirectMap,   // ffff888000000000 .. +64 TB  (page_offset_base)
  kVmalloc,     // ffffc90000000000 .. +32 TB  (vmalloc_base)
  kVmemmap,     // ffffea0000000000 .. +1 TB   (vmemmap_base)
  kKernelText,  // ffffffff80000000 .. +512 MB
  kModules,     // ffffffffa0000000 .. +1520 MB
};

// Fixed range boundaries from Table 1. These are architectural constants an
// attacker is assumed to know.
struct LayoutRanges {
  static constexpr uint64_t kDirectMapStart = 0xffff888000000000ULL;
  static constexpr uint64_t kDirectMapEnd = 0xffffc88000000000ULL;  // 64 TB
  static constexpr uint64_t kVmallocStart = 0xffffc90000000000ULL;
  static constexpr uint64_t kVmallocEnd = 0xffffe90000000000ULL;  // 32 TB
  static constexpr uint64_t kVmemmapStart = 0xffffea0000000000ULL;
  static constexpr uint64_t kVmemmapEnd = 0xffffeb0000000000ULL;  // 1 TB
  static constexpr uint64_t kTextStart = 0xffffffff80000000ULL;
  static constexpr uint64_t kTextEnd = 0xffffffffa0000000ULL;  // 512 MB
  static constexpr uint64_t kModulesStart = 0xffffffffa0000000ULL;
  static constexpr uint64_t kModulesEnd = 0xffffffffff000000ULL;  // 1520 MB
};

// sizeof(struct page) on x86-64 Linux; vmemmap is an array of these.
inline constexpr uint64_t kStructPageSize = 64;

// KASLR alignment guarantees (page-table driven, "unlikely to change").
inline constexpr uint64_t kTextAlign = 1ULL << 21;       // 2 MiB
inline constexpr uint64_t kRegionBaseAlign = 1ULL << 30;  // 1 GiB (PUD shift)

class KernelLayout {
 public:
  // Builds the layout for a machine with `phys_pages` pages of RAM. With
  // `kaslr` enabled, bases are randomized from `rng` under the alignment
  // rules above; otherwise the compile-time defaults from Table 1 are used.
  static KernelLayout Create(uint64_t phys_pages, bool kaslr, Xoshiro256& rng);

  uint64_t page_offset_base() const { return page_offset_base_; }
  uint64_t vmalloc_base() const { return vmalloc_base_; }
  uint64_t vmemmap_base() const { return vmemmap_base_; }
  uint64_t text_base() const { return text_base_; }

  // The randomized slide of the text region relative to kTextStart.
  uint64_t text_slide() const { return text_base_ - LayoutRanges::kTextStart; }

  // ---- Address classification ---------------------------------------------

  // Which architectural range does `kva` fall into? Needs no secrets; this is
  // the check a malicious device performs on leaked qwords.
  static Region ClassifyByRange(Kva kva);

  // ---- Translations (kernel-privileged: use the secret bases) -------------

  Kva PhysToDirectMapKva(PhysAddr addr) const { return Kva{page_offset_base_ + addr.value}; }
  Result<PhysAddr> DirectMapKvaToPhys(Kva kva) const;

  // KVA of the `struct page` for a PFN (an entry in the vmemmap array).
  Kva StructPageKva(Pfn pfn) const { return Kva{vmemmap_base_ + pfn.value * kStructPageSize}; }
  Result<Pfn> StructPageKvaToPfn(Kva kva) const;

  // KVA of a kernel-image symbol given its compile-time offset from text base.
  Kva SymbolKva(uint64_t symbol_offset) const { return Kva{text_base_ + symbol_offset}; }

  bool IsDirectMapKva(Kva kva) const {
    return kva.value >= page_offset_base_ &&
           kva.value < page_offset_base_ + (phys_pages_ << kPageShift);
  }
  bool IsVmemmapKva(Kva kva) const {
    return kva.value >= vmemmap_base_ &&
           kva.value < vmemmap_base_ + phys_pages_ * kStructPageSize;
  }

  uint64_t phys_pages() const { return phys_pages_; }

  // ---- Structure-layout randomization (__randomize_layout, paper fn. 2) ----

  // Where skb_shared_info keeps its destructor_arg this boot. Default: the
  // compile-time offset (32). With CONFIG_GCC_PLUGIN_RANDSTRUCT-style
  // randomization the kernel shuffles it among the pointer-sized slots.
  uint64_t shinfo_destructor_offset() const { return shinfo_destructor_offset_; }
  void set_shinfo_destructor_offset(uint64_t offset) { shinfo_destructor_offset_ = offset; }

 private:
  uint64_t phys_pages_ = 0;
  uint64_t page_offset_base_ = LayoutRanges::kDirectMapStart;
  uint64_t vmalloc_base_ = LayoutRanges::kVmallocStart;
  uint64_t vmemmap_base_ = LayoutRanges::kVmemmapStart;
  uint64_t text_base_ = LayoutRanges::kTextStart;
  uint64_t shinfo_destructor_offset_ = 32;  // SharedInfoLayout::kDestructorArg
};

}  // namespace spv::mem

#endif  // SPV_MEM_KERNEL_LAYOUT_H_
