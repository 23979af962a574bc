#include "dma/bounce_pool.h"

#include <algorithm>
#include <span>
#include <vector>

#include "base/align.h"

namespace spv::dma {

BouncePool::BouncePool(iommu::Iommu& iommu, const mem::KernelLayout& layout,
                       mem::PhysicalMemory& pm, mem::PageAllocator& page_alloc,
                       SimClock& clock, telemetry::Hub* hub)
    : iommu_(iommu), layout_(layout), pm_(pm), page_alloc_(page_alloc), clock_(clock),
      hub_(hub) {
  if (hub_ != nullptr) {
    links_.push_back(hub_->Link("bounce.sync_for_cpu", syncs_for_cpu_));
    links_.push_back(hub_->Link("bounce.sync_for_device", syncs_for_device_));
  }
}

Status BouncePool::AttachDevice(DeviceId device, uint64_t pages) {
  if (pages == 0) {
    return InvalidArgument("bounce pool needs at least one page");
  }
  if (pools_.count(device.value) != 0) {
    return FailedPrecondition("device already has a bounce pool");
  }
  std::vector<Pfn> pfns;
  pfns.reserve(pages);
  for (uint64_t i = 0; i < pages; ++i) {
    Result<Pfn> pfn = page_alloc_.AllocPage(mem::PageOwner::kDriver);
    if (!pfn.ok()) {
      for (Pfn got : pfns) {
        (void)page_alloc_.FreePages(got);
      }
      return pfn.status();
    }
    pfns.push_back(*pfn);
  }
  // One contiguous IOVA block, mapped once, never unmapped on the I/O path:
  // no invalidation traffic, no deferred window, and multi-page buffers can
  // ride runs of consecutive slots.
  Result<Iova> base = iommu_.MapRange(device, pfns, iommu::AccessRights::kBidirectional);
  if (!base.ok()) {
    for (Pfn got : pfns) {
      (void)page_alloc_.FreePages(got);
    }
    return base.status();
  }
  Pool& pool = pools_[device.value];
  pool.base = *base;
  pool.slots.reserve(pages);
  for (Pfn pfn : pfns) {
    pool.slots.push_back(Slot{pfn, false});
  }
  return OkStatus();
}

Status BouncePool::DetachDevice(DeviceId device) {
  auto it = pools_.find(device.value);
  if (it == pools_.end()) {
    return NotFound("device has no bounce pool");
  }
  Pool& pool = it->second;
  if (!pool.active.empty()) {
    return FailedPrecondition("bounce pool detach with bounces in flight");
  }
  // A fenced/revoked device may already have lost the block's PTEs
  // (RevokeDeviceMappings does not know about the pool); tolerate that and
  // still reclaim the pages.
  (void)iommu_.UnmapRange(device, pool.base, pool.slots.size());
  for (const Slot& slot : pool.slots) {
    SPV_RETURN_IF_ERROR(page_alloc_.FreePages(slot.pfn));
  }
  pools_.erase(it);
  return OkStatus();
}

bool BouncePool::HasPool(DeviceId device) const {
  return pools_.count(device.value) != 0;
}

Kva BouncePool::SlotKva(const Pool& pool, size_t slot) const {
  return layout_.PhysToDirectMapKva(PhysAddr::FromPfn(pool.slots[slot].pfn));
}

Status BouncePool::Copy(Kva dst, Kva src, uint64_t len) {
  Result<PhysAddr> src_phys = layout_.DirectMapKvaToPhys(src);
  Result<PhysAddr> dst_phys = layout_.DirectMapKvaToPhys(dst);
  if (!src_phys.ok() || !dst_phys.ok()) {
    return InvalidArgument("bounce copy outside the direct map");
  }
  std::vector<uint8_t> buf(len);
  SPV_RETURN_IF_ERROR(pm_.Read(*src_phys, std::span<uint8_t>(buf)));
  SPV_RETURN_IF_ERROR(pm_.Write(*dst_phys, std::span<const uint8_t>(buf)));
  ++copies_;
  const uint64_t cycles = kCopyCyclesPerCacheLine * (AlignUp(len, 64) / 64);
  copy_cycles_ += cycles;
  clock_.Advance(cycles);
  return OkStatus();
}

template <typename Fn>
Status BouncePool::ForEachChunkRange(const Active& active, uint64_t from,
                                     uint64_t span, Fn&& fn) const {
  // Buffer offset `off` lives in slot (first_offset + off) / page at page
  // offset (first_offset + off) % page, where first_offset is the buffer's
  // sub-page start inside its first slot.
  const uint64_t first_offset = active.orig_kva.page_offset();
  uint64_t off = from;
  const uint64_t end = from + span;
  while (off < end) {
    const uint64_t abs = first_offset + off;
    const size_t slot = active.first_slot + (abs >> kPageShift);
    const uint64_t slot_offset = abs & (kPageSize - 1);
    const uint64_t chunk = std::min(end - off, kPageSize - slot_offset);
    SPV_RETURN_IF_ERROR(fn(slot, slot_offset, off, chunk));
    off += chunk;
  }
  return OkStatus();
}

Status BouncePool::CopyInRange(Pool& pool, const Active& active, uint64_t from,
                               uint64_t span) {
  return ForEachChunkRange(active, from, span,
                           [&](size_t slot, uint64_t slot_off, uint64_t buf_off,
                               uint64_t chunk) {
    return Copy(SlotKva(pool, slot) + slot_off, active.orig_kva + buf_off, chunk);
  });
}

Status BouncePool::CopyOutRange(Pool& pool, const Active& active, uint64_t from,
                                uint64_t span) {
  // Only the buffer's own bytes travel back: a device write anywhere else in
  // the dedicated pages is simply never copied (type (a)/(d) confinement).
  return ForEachChunkRange(active, from, span,
                           [&](size_t slot, uint64_t slot_off, uint64_t buf_off,
                               uint64_t chunk) {
    return Copy(active.orig_kva + buf_off, SlotKva(pool, slot) + slot_off, chunk);
  });
}

Status BouncePool::Scrub(Pool& pool, const Active& active) {
  // Whole pages, not just the buffer's bytes: nothing but this I/O may ever
  // be visible through the static mapping.
  for (size_t i = 0; i < active.num_slots; ++i) {
    SPV_RETURN_IF_ERROR(
        pm_.Fill(PhysAddr::FromPfn(pool.slots[active.first_slot + i].pfn), kPageSize, 0));
  }
  return OkStatus();
}

Status BouncePool::ScrubRange(Pool& pool, const Active& active, uint64_t from,
                              uint64_t span) {
  // Partial re-arm: other byte ranges of the same persistent mapping may be
  // live (other SQEs in a ring, other slots of a shared run), so only the
  // handed-over bytes are cleared.
  return ForEachChunkRange(active, from, span,
                           [&](size_t slot, uint64_t slot_off, uint64_t /*buf_off*/,
                               uint64_t chunk) {
    return pm_.Fill(PhysAddr::FromPfn(pool.slots[slot].pfn, slot_off), chunk, 0);
  });
}

void BouncePool::PublishEvent(telemetry::EventKind kind, DeviceId device,
                              const Active& active, Iova iova, uint64_t len,
                              uint64_t cycles_spent) {
  if (hub_ == nullptr || !hub_->active()) {
    return;
  }
  telemetry::Event event;
  event.kind = kind;
  event.severity = telemetry::Severity::kTrace;
  event.device = device.value;
  event.addr = active.orig_kva.value;
  event.addr2 = iova.value;
  event.len = len;
  event.aux = cycles_spent;
  event.origin = this;
  event.site = active.site;
  hub_->Publish(event);
  if (hub_->enabled() && (kind == telemetry::EventKind::kBounceMap ||
                          kind == telemetry::EventKind::kBounceUnmap)) {
    ++(kind == telemetry::EventKind::kBounceMap ? maps_ : unmaps_).in(*hub_);
  }
}

Result<Iova> BouncePool::Map(DeviceId device, Kva kva, uint64_t len, DmaDirection dir,
                             std::string_view site) {
  return MapInternal(device, kva, len, dir, site, /*persistent=*/false);
}

Result<Iova> BouncePool::MapPersistent(DeviceId device, Kva kva, uint64_t len,
                                       DmaDirection dir, std::string_view site) {
  return MapInternal(device, kva, len, dir, site, /*persistent=*/true);
}

Result<Iova> BouncePool::MapInternal(DeviceId device, Kva kva, uint64_t len,
                                     DmaDirection dir, std::string_view site,
                                     bool persistent) {
  auto pool_it = pools_.find(device.value);
  if (pool_it == pools_.end()) {
    return FailedPrecondition("device has no bounce pool");
  }
  if (len == 0) {
    return InvalidArgument("bounce map with zero length");
  }
  if (!layout_.DirectMapKvaToPhys(kva).ok()) {
    return InvalidArgument("bounce map of non-direct-map KVA");
  }
  Pool& pool = pool_it->second;
  const uint64_t need = (kva.page_offset() + len + kPageSize - 1) >> kPageShift;
  if (need > pool.slots.size()) {
    return ResourceExhausted("buffer larger than the bounce pool");
  }
  // First-fit run of consecutive free slots (the block is one contiguous
  // IOVA range, so a run is a contiguous device-visible buffer).
  size_t first = 0;
  uint64_t run = 0;
  for (size_t i = 0; i < pool.slots.size(); ++i) {
    if (pool.slots[i].in_use) {
      run = 0;
      continue;
    }
    if (run == 0) {
      first = i;
    }
    if (++run == need) {
      break;
    }
  }
  if (run < need) {
    return ResourceExhausted("bounce pool exhausted");
  }
  Active active{first, need, kva, len, dir, std::string(site), persistent};
  SPV_RETURN_IF_ERROR(Scrub(pool, active));
  if (dir == DmaDirection::kToDevice || dir == DmaDirection::kBidirectional) {
    SPV_RETURN_IF_ERROR(CopyInRange(pool, active, 0, active.len));
  }
  for (size_t i = 0; i < need; ++i) {
    pool.slots[first + i].in_use = true;
  }
  const Iova slot_base = pool.base + first * kPageSize;
  const Iova iova = slot_base + kva.page_offset();
  const uint64_t spent = kCopyCyclesPerCacheLine * (AlignUp(len, 64) / 64);
  pool.active[slot_base.value] = active;
  PublishEvent(telemetry::EventKind::kBounceMap, device, active, iova, len, spent);
  return iova;
}

Status BouncePool::Unmap(DeviceId device, Iova iova, uint64_t len, DmaDirection dir) {
  auto pool_it = pools_.find(device.value);
  if (pool_it == pools_.end()) {
    return FailedPrecondition("device has no bounce pool");
  }
  Pool& pool = pool_it->second;
  auto it = pool.active.find(iova.PageBase().value);
  if (it == pool.active.end()) {
    return FailedPrecondition("bounce unmap of unknown IOVA");
  }
  Active active = it->second;
  if (active.len != len || active.dir != dir) {
    return InvalidArgument("bounce unmap with mismatched length or direction");
  }
  const uint64_t before = copy_cycles_;
  if (dir == DmaDirection::kFromDevice || dir == DmaDirection::kBidirectional) {
    SPV_RETURN_IF_ERROR(CopyOutRange(pool, active, 0, active.len));
  }
  // No unmap, no invalidation: the static block stays; just recycle slots.
  for (size_t i = 0; i < active.num_slots; ++i) {
    pool.slots[active.first_slot + i].in_use = false;
  }
  pool.active.erase(it);
  PublishEvent(telemetry::EventKind::kBounceUnmap, device, active, iova, len,
               copy_cycles_ - before);
  return OkStatus();
}

std::map<uint64_t, BouncePool::Active>::iterator BouncePool::FindContaining(
    Pool& pool, Iova iova, uint64_t* rel_out) {
  // The active table is keyed by the run's first slot IOVA; the sync target
  // may sit pages into a multi-slot run, so find the last run at or below
  // `iova` and range-check against the buffer's device-visible bytes.
  auto it = pool.active.upper_bound(iova.value);
  if (it == pool.active.begin()) {
    return pool.active.end();
  }
  --it;
  const uint64_t mapped_start = it->first + it->second.orig_kva.page_offset();
  if (iova.value < mapped_start || iova.value >= mapped_start + it->second.len) {
    return pool.active.end();
  }
  *rel_out = iova.value - mapped_start;
  return it;
}

Status BouncePool::SyncForCpu(DeviceId device, Iova iova, uint64_t len, DmaDirection dir) {
  auto pool_it = pools_.find(device.value);
  if (pool_it == pools_.end()) {
    return FailedPrecondition("device has no bounce pool");
  }
  Pool& pool = pool_it->second;
  uint64_t rel = 0;
  auto it = FindContaining(pool, iova, &rel);
  if (it == pool.active.end()) {
    return FailedPrecondition("bounce sync_for_cpu of unknown IOVA");
  }
  Active& active = it->second;
  if (active.dir != dir) {
    return InvalidArgument("bounce sync_for_cpu with mismatched direction");
  }
  if (len == 0 || rel + len > active.len) {
    return InvalidArgument("bounce sync_for_cpu beyond the mapped buffer");
  }
  const uint64_t before = copy_cycles_;
  if (dir == DmaDirection::kFromDevice || dir == DmaDirection::kBidirectional) {
    SPV_RETURN_IF_ERROR(CopyOutRange(pool, active, rel, len));
  }
  ++pool.syncs_for_cpu;
  ++syncs_for_cpu_;
  PublishEvent(telemetry::EventKind::kBounceSyncCpu, device, active, iova, len,
               copy_cycles_ - before);
  return OkStatus();
}

Status BouncePool::SyncForDevice(DeviceId device, Iova iova, uint64_t len,
                                 DmaDirection dir) {
  auto pool_it = pools_.find(device.value);
  if (pool_it == pools_.end()) {
    return FailedPrecondition("device has no bounce pool");
  }
  Pool& pool = pool_it->second;
  uint64_t rel = 0;
  auto it = FindContaining(pool, iova, &rel);
  if (it == pool.active.end()) {
    return FailedPrecondition("bounce sync_for_device of unknown IOVA");
  }
  Active& active = it->second;
  if (active.dir != dir) {
    return InvalidArgument("bounce sync_for_device with mismatched direction");
  }
  if (len == 0 || rel + len > active.len) {
    return InvalidArgument("bounce sync_for_device beyond the mapped buffer");
  }
  const uint64_t before = copy_cycles_;
  // Ownership returns to the device: re-arm so the previous I/O's bytes are
  // not re-exposed. A full-mapping sync scrubs the whole pages (the map-time
  // guarantee); a partial sync touches only the handed-over range, because
  // the rest of the mapping may still be in flight.
  if (rel == 0 && len == active.len) {
    SPV_RETURN_IF_ERROR(Scrub(pool, active));
  } else {
    SPV_RETURN_IF_ERROR(ScrubRange(pool, active, rel, len));
  }
  if (dir == DmaDirection::kToDevice || dir == DmaDirection::kBidirectional) {
    SPV_RETURN_IF_ERROR(CopyInRange(pool, active, rel, len));
  }
  ++pool.syncs_for_device;
  ++syncs_for_device_;
  PublishEvent(telemetry::EventKind::kBounceSyncDevice, device, active, iova, len,
               copy_cycles_ - before);
  return OkStatus();
}

bool BouncePool::Owns(DeviceId device, Iova iova) const {
  auto it = pools_.find(device.value);
  if (it == pools_.end()) {
    return false;
  }
  const Pool& pool = it->second;
  return iova.value >= pool.base.value &&
         iova.value < pool.base.value + pool.slots.size() * kPageSize;
}

std::optional<DmaMapping> BouncePool::Lookup(DeviceId device, Iova iova) const {
  auto pool_it = pools_.find(device.value);
  if (pool_it == pools_.end()) {
    return std::nullopt;
  }
  const Pool& pool = pool_it->second;
  // Containing-run lookup, so audits may ask about any page of a multi-slot
  // bounce, not just the first.
  auto it = pool.active.upper_bound(iova.value);
  if (it == pool.active.begin()) {
    return std::nullopt;
  }
  --it;
  const Active& active = it->second;
  if (iova.value >= it->first + active.num_slots * kPageSize) {
    return std::nullopt;
  }
  const Iova mapped = Iova{it->first} + active.orig_kva.page_offset();
  return DmaMapping{device, mapped, active.orig_kva, active.len, active.dir, active.site};
}

uint64_t BouncePool::ReleaseAll(DeviceId device) {
  auto pool_it = pools_.find(device.value);
  if (pool_it == pools_.end()) {
    return 0;
  }
  Pool& pool = pool_it->second;
  const uint64_t released = pool.active.size();
  for (Slot& slot : pool.slots) {
    slot.in_use = false;
  }
  pool.active.clear();
  return released;
}

uint64_t BouncePool::total_active() const {
  uint64_t total = 0;
  for (const auto& [id, pool] : pools_) {
    total += pool.active.size();
  }
  return total;
}

uint64_t BouncePool::pool_pages(DeviceId device) const {
  auto it = pools_.find(device.value);
  return it == pools_.end() ? 0 : it->second.slots.size();
}

uint64_t BouncePool::active_bounces(DeviceId device) const {
  auto it = pools_.find(device.value);
  return it == pools_.end() ? 0 : it->second.active.size();
}

uint64_t BouncePool::persistent_bounces(DeviceId device) const {
  auto it = pools_.find(device.value);
  if (it == pools_.end()) {
    return 0;
  }
  uint64_t count = 0;
  for (const auto& [iova, active] : it->second.active) {
    count += active.persistent ? 1 : 0;
  }
  return count;
}

uint64_t BouncePool::syncs_for_cpu(DeviceId device) const {
  auto it = pools_.find(device.value);
  return it == pools_.end() ? 0 : it->second.syncs_for_cpu;
}

uint64_t BouncePool::syncs_for_device(DeviceId device) const {
  auto it = pools_.find(device.value);
  return it == pools_.end() ? 0 : it->second.syncs_for_device;
}

Status BouncePool::Audit() const {
  for (const auto& [id, pool] : pools_) {
    const DeviceId device{id};
    std::vector<bool> claimed(pool.slots.size(), false);
    for (const auto& [slot_iova, active] : pool.active) {
      const uint64_t offset_pages = (Iova{slot_iova} - pool.base) >> kPageShift;
      if (offset_pages != active.first_slot ||
          active.first_slot + active.num_slots > pool.slots.size()) {
        return Internal("bounce audit: active run outside its pool");
      }
      for (uint64_t i = 0; i < active.num_slots; ++i) {
        if (claimed[active.first_slot + i]) {
          return Internal("bounce audit: overlapping active runs");
        }
        claimed[active.first_slot + i] = true;
        if (!pool.slots[active.first_slot + i].in_use) {
          return Internal("bounce audit: active run over a free slot");
        }
      }
    }
    for (size_t i = 0; i < pool.slots.size(); ++i) {
      if (pool.slots[i].in_use != claimed[i]) {
        return Internal("bounce audit: slot in-use bit without an active run");
      }
      // The mappings are supposed to be static: a detached/revoked device is
      // exempt (its PTEs are legitimately gone), anything else must still
      // translate to exactly this slot's page.
      const std::optional<iommu::PteEntry> pte =
          iommu_.Peek(device, pool.base + i * kPageSize);
      if (pte.has_value() && pte->pfn != pool.slots[i].pfn) {
        return Internal("bounce audit: static mapping points at a foreign page");
      }
    }
  }
  return OkStatus();
}

}  // namespace spv::dma
