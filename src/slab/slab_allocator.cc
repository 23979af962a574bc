#include "slab/slab_allocator.h"

#include <algorithm>

#include "base/align.h"
#include "fault/fault.h"

namespace spv::slab {

namespace {
constexpr uint16_t kLargeCacheId = 0xffff;
}  // namespace

SlabAllocator::SlabAllocator(mem::PhysicalMemory& pm, mem::PageDb& page_db,
                             mem::PageAllocator& page_alloc, const mem::KernelLayout& layout,
                             telemetry::Hub* hub)
    : pm_(pm), page_db_(page_db), page_alloc_(page_alloc), layout_(layout), hub_(hub) {
  for (size_t i = 0; i < kKmallocSizeClasses.size(); ++i) {
    caches_[i].id = static_cast<uint16_t>(i);
    caches_[i].object_size = kKmallocSizeClasses[i];
    caches_[i].objects_per_page = static_cast<uint32_t>(kPageSize / kKmallocSizeClasses[i]);
  }
}

std::optional<uint16_t> SlabAllocator::SizeClassIndex(uint64_t size) {
  if (size == 0) {
    size = 1;
  }
  for (size_t i = 0; i < kKmallocSizeClasses.size(); ++i) {
    if (size <= kKmallocSizeClasses[i]) {
      return static_cast<uint16_t>(i);
    }
  }
  return std::nullopt;
}

Result<Kva> SlabAllocator::Kmalloc(uint64_t size, std::string_view site) {
  if (fault_ != nullptr && fault_->armed() &&
      fault_->ShouldInject(fault::FaultSite::kSlabAlloc)) {
    return ResourceExhausted("injected: kmalloc cache exhausted");
  }
  std::optional<uint16_t> cls = SizeClassIndex(size);
  if (!cls.has_value()) {
    return KmallocLarge(size, site);
  }
  Cache& cache = caches_[*cls];

  // Find a partial slab page (MRU first, like SLUB's per-cpu active slab).
  while (!cache.partial.empty()) {
    auto it = slab_pages_.find(cache.partial.front().value);
    if (it == slab_pages_.end() || it->second.free_stack.empty()) {
      cache.partial.pop_front();
      continue;
    }
    break;
  }
  if (cache.partial.empty()) {
    Result<Pfn> page = NewSlabPage(cache);
    if (!page.ok()) {
      return page.status();
    }
    cache.partial.push_front(*page);
  }

  SlabPage& page = slab_pages_.at(cache.partial.front().value);
  const uint16_t slot = page.free_stack.back();
  const Kva kva = SlotKva(page, slot);
  // kzalloc semantics. Zero before carving the slot so a physical-memory
  // failure surfaces as a clean Status with no bookkeeping to roll back.
  auto phys = layout_.DirectMapKvaToPhys(kva);
  if (!phys.ok()) {
    return phys.status();
  }
  Status zero = pm_.Fill(*phys, cache.object_size, 0);
  if (!zero.ok()) {
    return zero;
  }

  page.free_stack.pop_back();
  page.occupied[slot] = true;
  page.sites[slot] = std::string(site);
  ++page.used;
  if (page.free_stack.empty()) {
    cache.partial.pop_front();  // page is now full
  }

  ++live_objects_;
  if (hub_ != nullptr && hub_->enabled()) {
    // Objects co-resident on this 4 KiB page after the allocation — the raw
    // material of the paper's type (b)/(d) sub-page exposure.
    co_residency_.in(*hub_).Record(page.used);
  }
  Notify(/*alloc=*/true, kva, cache.object_size, site);
  return kva;
}

Result<Kva> SlabAllocator::KmallocLarge(uint64_t size, std::string_view site) {
  const unsigned order = Log2Ceil(AlignUp(size, kPageSize) >> kPageShift);
  Result<Pfn> head = page_alloc_.AllocPages(order, mem::PageOwner::kAnon);
  if (!head.ok()) {
    return head.status();
  }
  const Kva kva = layout_.PhysToDirectMapKva(PhysAddr::FromPfn(*head));
  Status zero = pm_.Fill(PhysAddr::FromPfn(*head), uint64_t{1} << (order + kPageShift), 0);
  if (!zero.ok()) {
    // Zeroing failed: return the pages and surface the error instead of
    // recording a half-initialised allocation.
    (void)page_alloc_.FreePages(*head);
    return zero;
  }
  large_[head->value] = LargeAlloc{*head, size, order, std::string(site)};
  ++live_objects_;
  Notify(/*alloc=*/true, kva, size, site);
  return kva;
}

Result<Pfn> SlabAllocator::NewSlabPage(Cache& cache) {
  Result<Pfn> pfn = page_alloc_.AllocPage(mem::PageOwner::kSlab);
  if (!pfn.ok()) {
    return pfn.status();
  }
  page_db_.Get(*pfn).cache_id = cache.id;

  SlabPage page;
  page.pfn = *pfn;
  page.cache_id = cache.id;
  page.object_size = cache.object_size;
  page.capacity = cache.objects_per_page;
  page.occupied.assign(cache.objects_per_page, false);
  page.sites.assign(cache.objects_per_page, {});
  page.free_stack.reserve(cache.objects_per_page);
  // Push in reverse so the first pop yields slot 0 (SLUB fills ascending).
  for (uint32_t slot = cache.objects_per_page; slot > 0; --slot) {
    page.free_stack.push_back(static_cast<uint16_t>(slot - 1));
  }
  slab_pages_[pfn->value] = std::move(page);
  return *pfn;
}

Kva SlabAllocator::SlotKva(const SlabPage& page, uint32_t slot) const {
  return layout_.PhysToDirectMapKva(
      PhysAddr::FromPfn(page.pfn, uint64_t{slot} * page.object_size));
}

Status SlabAllocator::Kfree(Kva kva) {
  if (kva.is_null()) {
    return OkStatus();  // kfree(NULL) is a no-op, as in Linux
  }
  auto phys = layout_.DirectMapKvaToPhys(kva);
  if (!phys.ok()) {
    return InvalidArgument("kfree of non-direct-map KVA");
  }
  const Pfn pfn = phys->pfn();
  // Large allocation?
  if (auto it = large_.find(pfn.value); it != large_.end()) {
    if (phys->page_offset() != 0) {
      return FailedPrecondition("kfree of interior pointer into large allocation");
    }
    const uint64_t size = it->second.size;
    SPV_RETURN_IF_ERROR(page_alloc_.FreePages(it->second.head));
    large_.erase(it);
    --live_objects_;
    Notify(/*alloc=*/false, kva, size, "");
    return OkStatus();
  }

  auto it = slab_pages_.find(pfn.value);
  if (it == slab_pages_.end()) {
    return FailedPrecondition("kfree of pointer not owned by slab");
  }
  SlabPage& page = it->second;
  const uint64_t offset = phys->page_offset();
  if (offset % page.object_size != 0) {
    return FailedPrecondition("kfree of misaligned object pointer");
  }
  const uint32_t slot = static_cast<uint32_t>(offset / page.object_size);
  if (!page.occupied[slot]) {
    return FailedPrecondition("double kfree");
  }
  page.occupied[slot] = false;
  page.sites[slot].clear();
  page.free_stack.push_back(static_cast<uint16_t>(slot));
  const uint32_t was_used = page.used--;
  --live_objects_;
  Notify(/*alloc=*/false, kva, page.object_size, "");

  Cache& cache = caches_[page.cache_id];
  if (was_used == page.capacity) {
    // Page had been full; it is partial again. MRU front for LIFO reuse.
    cache.partial.push_front(page.pfn);
  }
  if (page.used == 0) {
    // Empty slab: release the page back to the buddy allocator.
    cache.partial.erase(std::remove_if(cache.partial.begin(), cache.partial.end(),
                                       [&](Pfn p) { return p == page.pfn; }),
                        cache.partial.end());
    const Pfn page_pfn = page.pfn;
    slab_pages_.erase(it);
    SPV_RETURN_IF_ERROR(page_alloc_.FreePages(page_pfn));
  }
  return OkStatus();
}

std::optional<ObjectInfo> SlabAllocator::Lookup(Kva kva) const {
  auto phys = layout_.DirectMapKvaToPhys(kva);
  if (!phys.ok()) {
    return std::nullopt;
  }
  const Pfn pfn = phys->pfn();
  if (auto it = slab_pages_.find(pfn.value); it != slab_pages_.end()) {
    const SlabPage& page = it->second;
    const uint32_t slot = static_cast<uint32_t>(phys->page_offset() / page.object_size);
    if (slot < page.capacity && page.occupied[slot]) {
      return ObjectInfo{SlotKva(page, slot), page.object_size, page.cache_id, page.sites[slot]};
    }
    return std::nullopt;
  }

  // Interior of a large allocation: scan heads covering this pfn.
  for (const auto& [head, alloc] : large_) {
    if (pfn.value >= head && pfn.value < head + (uint64_t{1} << alloc.order)) {
      const Kva base = layout_.PhysToDirectMapKva(PhysAddr::FromPfn(alloc.head));
      if (kva - base < alloc.size) {
        return ObjectInfo{base, alloc.size, kLargeCacheId, alloc.site};
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::vector<ObjectInfo> SlabAllocator::ObjectsOnPage(Pfn pfn) const {
  std::vector<ObjectInfo> out;
  if (auto it = slab_pages_.find(pfn.value); it != slab_pages_.end()) {
    const SlabPage& page = it->second;
    for (uint32_t slot = 0; slot < page.capacity; ++slot) {
      if (page.occupied[slot]) {
        out.push_back(
            ObjectInfo{SlotKva(page, slot), page.object_size, page.cache_id, page.sites[slot]});
      }
    }
    return out;
  }
  for (const auto& [head, alloc] : large_) {
    if (pfn.value >= head && pfn.value < head + (uint64_t{1} << alloc.order)) {
      const Kva base = layout_.PhysToDirectMapKva(PhysAddr::FromPfn(alloc.head));
      out.push_back(ObjectInfo{base, alloc.size, kLargeCacheId, alloc.site});
      return out;
    }
  }
  return out;
}

telemetry::Hub& SlabAllocator::telemetry() {
  if (hub_ == nullptr) {
    owned_hub_ = std::make_unique<telemetry::Hub>();
    hub_ = owned_hub_.get();
  }
  return *hub_;
}

void SlabAllocator::Notify(bool alloc, Kva kva, uint64_t size, std::string_view site) {
  telemetry::Hub& hub = telemetry();
  if (!hub.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = alloc ? telemetry::EventKind::kSlabAlloc : telemetry::EventKind::kSlabFree;
  event.severity = telemetry::Severity::kTrace;
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
