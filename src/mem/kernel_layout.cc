#include "mem/kernel_layout.h"

#include "base/align.h"

namespace spv::mem {

KernelLayout KernelLayout::Create(uint64_t phys_pages, bool kaslr, Xoshiro256& rng) {
  KernelLayout layout;
  layout.phys_pages_ = phys_pages;
  if (!kaslr) {
    return layout;
  }

  const uint64_t phys_bytes = phys_pages << kPageShift;

  // Direct map: base anywhere in its range (1 GiB steps) such that the whole
  // physical memory still fits before the range end.
  {
    const uint64_t span = LayoutRanges::kDirectMapEnd - LayoutRanges::kDirectMapStart;
    const uint64_t usable = span - AlignUp(phys_bytes, kRegionBaseAlign);
    const uint64_t slots = usable / kRegionBaseAlign;
    layout.page_offset_base_ =
        LayoutRanges::kDirectMapStart + rng.NextBelow(slots + 1) * kRegionBaseAlign;
  }

  // vmalloc base: 1 GiB steps within its range (we model but do not allocate
  // from vmalloc; only the base randomization is observable).
  {
    const uint64_t span = LayoutRanges::kVmallocEnd - LayoutRanges::kVmallocStart;
    const uint64_t slots = span / kRegionBaseAlign / 2;  // keep headroom
    layout.vmalloc_base_ =
        LayoutRanges::kVmallocStart + rng.NextBelow(slots) * kRegionBaseAlign;
  }

  // vmemmap base: 1 GiB steps; the struct-page array for all of RAM must fit.
  {
    const uint64_t array_bytes = phys_pages * kStructPageSize;
    const uint64_t span = LayoutRanges::kVmemmapEnd - LayoutRanges::kVmemmapStart;
    const uint64_t usable = span - AlignUp(array_bytes, kRegionBaseAlign);
    const uint64_t slots = usable / kRegionBaseAlign;
    layout.vmemmap_base_ =
        LayoutRanges::kVmemmapStart + rng.NextBelow(slots + 1) * kRegionBaseAlign;
  }

  // Kernel text: 2 MiB steps within the 512 MiB window.
  {
    const uint64_t span = LayoutRanges::kTextEnd - LayoutRanges::kTextStart;
    const uint64_t slots = span / kTextAlign;
    layout.text_base_ = LayoutRanges::kTextStart + rng.NextBelow(slots) * kTextAlign;
  }

  return layout;
}

Region KernelLayout::ClassifyByRange(Kva kva) {
  const uint64_t v = kva.value;
  if (v >= LayoutRanges::kDirectMapStart && v < LayoutRanges::kDirectMapEnd) {
    return Region::kDirectMap;
  }
  if (v >= LayoutRanges::kVmallocStart && v < LayoutRanges::kVmallocEnd) {
    return Region::kVmalloc;
  }
  if (v >= LayoutRanges::kVmemmapStart && v < LayoutRanges::kVmemmapEnd) {
    return Region::kVmemmap;
  }
  if (v >= LayoutRanges::kTextStart && v < LayoutRanges::kTextEnd) {
    return Region::kKernelText;
  }
  if (v >= LayoutRanges::kModulesStart && v < LayoutRanges::kModulesEnd) {
    return Region::kModules;
  }
  return Region::kNone;
}

Result<PhysAddr> KernelLayout::DirectMapKvaToPhys(Kva kva) const {
  if (!IsDirectMapKva(kva)) {
    return InvalidArgument("KVA not in the direct map of this machine");
  }
  return PhysAddr{kva.value - page_offset_base_};
}

Result<Pfn> KernelLayout::StructPageKvaToPfn(Kva kva) const {
  if (!IsVmemmapKva(kva)) {
    return InvalidArgument("KVA not in the vmemmap of this machine");
  }
  const uint64_t delta = kva.value - vmemmap_base_;
  if (delta % kStructPageSize != 0) {
    return InvalidArgument("KVA not struct-page aligned");
  }
  return Pfn{delta / kStructPageSize};
}

}  // namespace spv::mem
