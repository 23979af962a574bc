#include "slab/page_frag.h"

#include <algorithm>
#include <cassert>

#include "base/align.h"
#include "fault/fault.h"

namespace spv::slab {

PageFragPool::PageFragPool(mem::PageDb& page_db, mem::PageAllocator& page_alloc,
                           const mem::KernelLayout& layout, CpuId cpu, uint64_t region_bytes,
                           telemetry::Hub* hub)
    : page_db_(page_db),
      page_alloc_(page_alloc),
      layout_(layout),
      cpu_(cpu),
      region_bytes_(AlignUp(region_bytes, kPageSize)),
      hub_(hub) {
  assert(region_bytes_ >= kPageSize);
  if (hub_ != nullptr) {
    regions_link_ = hub_->Link("frag.regions", regions_allocated_);
  }
}

telemetry::Hub& PageFragPool::telemetry() {
  if (hub_ == nullptr) {
    owned_hub_ = std::make_unique<telemetry::Hub>();
    hub_ = owned_hub_.get();
  }
  return *hub_;
}

Result<PageFragPool::Region*> PageFragPool::RefillRegion(uint64_t bytes) {
  const uint64_t region_bytes = AlignUp(bytes, kPageSize);
  const unsigned order = Log2Ceil(region_bytes >> kPageShift);
  Result<Pfn> head = page_alloc_.AllocPages(order, mem::PageOwner::kPageFrag);
  if (!head.ok()) {
    return head.status();
  }
  Region region;
  region.head = *head;
  region.order = order;
  region.bytes = uint64_t{1} << (order + kPageShift);
  region.offset = region.bytes;  // offset starts at the region end (Fig 5)
  region.current = true;
  ++regions_allocated_;
  auto [it, inserted] = regions_.emplace(head->value, region);
  assert(inserted);
  return &it->second;
}

Result<Kva> PageFragPool::Alloc(uint64_t size, uint64_t align, std::string_view site) {
  if (size == 0 || !IsPowerOfTwo(align)) {
    return InvalidArgument("page_frag alloc: bad size or alignment");
  }
  if (fault_ != nullptr && fault_->armed() &&
      fault_->ShouldInject(fault::FaultSite::kPageFragAlloc)) {
    return ResourceExhausted("injected: page_frag pool exhausted");
  }

  if (size > region_bytes_) {
    // Oversized request: dedicated region (e.g. 64 KiB HW-LRO buffers, §5.3).
    Result<Region*> region = RefillRegion(size);
    if (!region.ok()) {
      return region.status();
    }
    Region* r = *region;
    r->current = false;  // dedicated; next normal alloc refills
    r->offset = AlignDown(r->bytes - size, align);
    r->refs = 1;
    const Kva kva = layout_.PhysToDirectMapKva(PhysAddr::FromPfn(r->head, 0)) + r->offset;
    frags_[kva.value] = Frag{r->head.value, size, std::string(site)};
    Notify(true, kva, size, site);
    return kva;
  }

  Region* region = nullptr;
  if (current_region_ != UINT64_MAX) {
    auto it = regions_.find(current_region_);
    if (it != regions_.end() && it->second.offset >= size) {
      region = &it->second;
    }
  }
  if (region == nullptr) {
    // Retire the current region; it lives on until its refs drop.
    if (current_region_ != UINT64_MAX) {
      auto it = regions_.find(current_region_);
      if (it != regions_.end()) {
        it->second.current = false;
        MaybeReleaseRegion(current_region_);
      }
      current_region_ = UINT64_MAX;
    }
    Result<Region*> fresh = RefillRegion(region_bytes_);
    if (!fresh.ok()) {
      return fresh.status();
    }
    region = *fresh;
    current_region_ = region->head.value;
  }

  region->offset = AlignDown(region->offset - size, align);
  ++region->refs;
  const Kva kva = layout_.PhysToDirectMapKva(PhysAddr::FromPfn(region->head, 0)) + region->offset;
  frags_[kva.value] = Frag{region->head.value, size, std::string(site)};
  Notify(true, kva, size, site);
  return kva;
}

Status PageFragPool::Free(Kva kva) {
  auto it = frags_.find(kva.value);
  if (it == frags_.end()) {
    return FailedPrecondition("page_frag free of unknown frag");
  }
  const uint64_t head = it->second.region_head;
  const uint64_t size = it->second.size;
  frags_.erase(it);

  auto rit = regions_.find(head);
  if (rit == regions_.end()) {
    return Internal("page_frag free: frag points at an unknown region");
  }
  if (rit->second.refs == 0) {
    return Internal("page_frag free: region refcount underflow");
  }
  --rit->second.refs;
  Notify(false, kva, size, "");
  MaybeReleaseRegion(head);
  return OkStatus();
}

void PageFragPool::MaybeReleaseRegion(uint64_t head_pfn) {
  auto it = regions_.find(head_pfn);
  if (it == regions_.end() || it->second.current || it->second.refs > 0) {
    return;
  }
  Status s = page_alloc_.FreePages(it->second.head);
  if (!s.ok()) {
    // Keep the region recorded rather than leaking its bookkeeping; a later
    // release attempt (or CheckInvariants) will see the inconsistency.
    return;
  }
  regions_.erase(it);
}

std::vector<FragInfo> PageFragPool::LiveFragsOnPage(Pfn pfn) const {
  std::vector<FragInfo> out;
  for (const auto& [kva_value, frag] : frags_) {
    const Kva kva{kva_value};
    auto phys = layout_.DirectMapKvaToPhys(kva);
    if (!phys.ok()) {
      continue;
    }
    const uint64_t first = phys->pfn().value;
    const uint64_t last = (phys->value + frag.size - 1) >> kPageShift;
    if (pfn.value >= first && pfn.value <= last) {
      out.push_back(FragInfo{kva, frag.size, frag.site});
    }
  }
  std::sort(out.begin(), out.end(), [](const FragInfo& a, const FragInfo& b) {
    return a.kva < b.kva;
  });
  return out;
}

void PageFragPool::Notify(bool alloc, Kva kva, uint64_t size, std::string_view site) {
  telemetry::Hub& hub = telemetry();
  if (!hub.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = alloc ? telemetry::EventKind::kFragAlloc : telemetry::EventKind::kFragFree;
  event.severity = telemetry::Severity::kTrace;
  event.device = cpu_.value;  // frag pools are per-CPU; reuse the id column
  event.addr = kva.value;
  event.len = size;
  event.origin = this;
  event.site = std::string(site);
  hub.Publish(event);
  if (hub.enabled()) {
    ++(alloc ? allocs_ : frees_).in(hub);
    if (alloc) {
      alloc_bytes_.in(hub).Record(size);
    }
  }
}

}  // namespace spv::slab
