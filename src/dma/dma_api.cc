#include "dma/dma_api.h"

#include <algorithm>
#include <tuple>

#include "dma/bounce_pool.h"
#include "forensics/flight_recorder.h"

namespace spv::dma {

namespace {

// True when [iova, iova + len) lies inside the mapped buffer, the same check
// the bounce pool applies to a sync of a bounced mapping.
bool SyncRangeInside(const DmaMapping& mapping, Iova iova, uint64_t len) {
  if (iova.value < mapping.iova.value) {
    return false;
  }
  const uint64_t rel = iova.value - mapping.iova.value;
  return rel <= mapping.len && len <= mapping.len - rel;
}

}  // namespace

iommu::AccessRights RightsFor(DmaDirection dir) {
  switch (dir) {
    case DmaDirection::kToDevice:
      return iommu::AccessRights::kRead;
    case DmaDirection::kFromDevice:
      return iommu::AccessRights::kWrite;
    case DmaDirection::kBidirectional:
      return iommu::AccessRights::kBidirectional;
  }
  return iommu::AccessRights::kNone;
}

std::string_view ServiceModeName(ServiceMode mode) {
  switch (mode) {
    case ServiceMode::kZeroCopy:
      return "zero_copy";
    case ServiceMode::kBounceSync:
      return "bounce_sync";
  }
  return "?";
}

DmaApi::DmaApi(iommu::Iommu& iommu, const mem::KernelLayout& layout, telemetry::Hub* hub)
    : iommu_(iommu), layout_(layout), hub_(hub) {}

telemetry::Hub& DmaApi::telemetry() {
  if (hub_ == nullptr) {
    owned_hub_ = std::make_unique<telemetry::Hub>();
    hub_ = owned_hub_.get();
  }
  return *hub_;
}

Result<Iova> DmaApi::MapSingle(DeviceId device, Kva kva, uint64_t len, DmaDirection dir,
                               std::string_view site) {
  trace::ScopedSpan span(tracer_, "dma.map_single");
  if (len == 0) {
    return InvalidArgument("dma_map_single with zero length");
  }
  // Trust gate: an untrusted device gets no direct mapping at all — its
  // transfer goes through dedicated bounce pages (whole-page exposure and
  // deferred-invalidation windows never arise on that path).
  if (router_ != nullptr && bounce_pool_ != nullptr && router_->ShouldBounce(device)) {
    Result<Iova> bounced = bounce_pool_->Map(device, kva, len, dir, site);
    if (recorder_ != nullptr && bounced.ok()) {
      recorder_->RecordMap(device, *bounced, kva, len, static_cast<uint8_t>(dir),
                           /*bounced=*/true, site);
    }
    return bounced;
  }
  Result<PhysAddr> phys = layout_.DirectMapKvaToPhys(kva);
  if (!phys.ok()) {
    return InvalidArgument("dma_map_single of non-direct-map KVA");
  }
  // The mapping covers *every page the buffer touches*, not just the bytes.
  const uint64_t pages = (kva.page_offset() + len + kPageSize - 1) >> kPageShift;
  std::vector<Pfn> pfns;
  pfns.reserve(pages);
  for (uint64_t i = 0; i < pages; ++i) {
    pfns.push_back(Pfn{phys->pfn().value + i});
  }
  Result<Iova> base = iommu_.MapRange(device, pfns, RightsFor(dir));
  if (!base.ok()) {
    return base.status();
  }
  const Iova iova = *base + kva.page_offset();
  DmaMapping mapping{device, iova, kva, len, dir, std::string(site)};
  index_.InsertOrAssign(device.value, base->value >> kPageShift, mapping);
  Notify(mapping, /*map=*/true);
  if (recorder_ != nullptr) {
    // After the kDmaMap event, so its window events follow it on the bus.
    recorder_->RecordMap(device, iova, kva, len, static_cast<uint8_t>(dir),
                         /*bounced=*/false, site);
  }
  return iova;
}

Result<Iova> DmaApi::MapPersistent(DeviceId device, Kva kva, uint64_t len,
                                   DmaDirection dir, std::string_view site) {
  // Bounce-routed devices get a *persistent* pool run: the driver keeps the
  // slot across many I/Os and moves bytes with the syncs, swiotlb-style.
  if (router_ != nullptr && bounce_pool_ != nullptr && router_->ShouldBounce(device)) {
    trace::ScopedSpan span(tracer_, "dma.map_persistent");
    if (len == 0) {
      return InvalidArgument("dma_map_persistent with zero length");
    }
    Result<Iova> bounced = bounce_pool_->MapPersistent(device, kva, len, dir, site);
    if (recorder_ != nullptr && bounced.ok()) {
      recorder_->RecordMap(device, *bounced, kva, len, static_cast<uint8_t>(dir),
                           /*bounced=*/true, site);
    }
    return bounced;
  }
  // Trusted devices: exactly the zero-copy MapSingle path (same site, same
  // telemetry), so nothing changes for them observably.
  return MapSingle(device, kva, len, dir, site);
}

ServiceMode DmaApi::service_mode(DeviceId device) const {
  return router_ != nullptr && bounce_pool_ != nullptr && router_->ShouldBounce(device)
             ? ServiceMode::kBounceSync
             : ServiceMode::kZeroCopy;
}

Status DmaApi::UnmapSingle(DeviceId device, Iova iova, uint64_t len, DmaDirection dir) {
  trace::ScopedSpan span(tracer_, "dma.unmap_single");
  // Pool IOVAs first: the mapping may predate a trust promotion, so the
  // router's *current* verdict must not decide where the unmap goes.
  if (bounce_pool_ != nullptr && bounce_pool_->Owns(device, iova)) {
    Status status = bounce_pool_->Unmap(device, iova, len, dir);
    if (recorder_ != nullptr && status.ok()) {
      recorder_->RecordUnmap(device, iova, len, static_cast<uint8_t>(dir),
                             /*bounced=*/true);
    }
    return status;
  }
  const uint64_t iova_page = iova.value >> kPageShift;
  // The index is keyed by IOVA page, but only the exact handle MapSingle
  // returned names a mapping: a stale handle whose page a later mapping
  // reuses (at another offset) must not tear that mapping down.
  const DmaMapping* found = index_.Find(device.value, iova_page);
  if (found == nullptr || found->iova.value != iova.value) {
    return FailedPrecondition("dma_unmap_single of unmapped IOVA");
  }
  const DmaMapping mapping = *found;
  if (mapping.len != len || mapping.dir != dir) {
    return InvalidArgument("dma_unmap_single with mismatched length or direction");
  }
  // Unmap in the IOMMU first: if that fails the tracker must still know the
  // mapping, or the IOVA range and its PTEs leak with no record of them.
  SPV_RETURN_IF_ERROR(iommu_.UnmapRange(device, iova.PageBase(), mapping.pages()));
  index_.Erase(device.value, iova_page);
  Notify(mapping, /*map=*/false);
  if (recorder_ != nullptr) {
    // `iova` is exactly the removed mapping's handle (a stale one was
    // rejected above), so the edge closes that mapping's life.
    recorder_->RecordUnmap(device, iova, len, static_cast<uint8_t>(dir),
                           /*bounced=*/false);
  }
  return OkStatus();
}

Result<uint64_t> DmaApi::RevokeDeviceMappings(DeviceId device, std::string_view site) {
  trace::ScopedSpan span(tracer_, "dma.revoke_device");
  // Snapshot first: unmapping mutates the tracker under iteration otherwise.
  std::vector<DmaMapping> victims;
  ForEachMapping([&](const DmaMapping& mapping) {
    if (mapping.device.value == device.value) {
      victims.push_back(mapping);
    }
  });
  uint64_t revoked = 0;
  for (DmaMapping mapping : victims) {
    mapping.site = std::string(site);
    SPV_RETURN_IF_ERROR(iommu_.UnmapRange(device, mapping.iova.PageBase(), mapping.pages()));
    index_.Erase(device.value, mapping.iova.value >> kPageShift);
    Notify(mapping, /*map=*/false);
    if (recorder_ != nullptr) {
      recorder_->RecordUnmap(device, mapping.iova, mapping.len,
                             static_cast<uint8_t>(mapping.dir), /*bounced=*/false);
    }
    ++revoked;
  }
  // In-flight bounces are dropped without copy-out: the device is suspect,
  // so whatever it wrote into the dedicated pages is discarded.
  if (bounce_pool_ != nullptr) {
    revoked += bounce_pool_->ReleaseAll(device);
  }
  return revoked;
}

Status DmaApi::SyncSingleForCpu(DeviceId device, Iova iova, uint64_t len, DmaDirection dir) {
  if (bounce_pool_ != nullptr && bounce_pool_->Owns(device, iova)) {
    Status status = bounce_pool_->SyncForCpu(device, iova, len, dir);
    if (recorder_ != nullptr && status.ok()) {
      recorder_->RecordSync(device, iova, len, static_cast<uint8_t>(dir),
                            /*for_cpu=*/true, /*bounced=*/true);
    }
    return status;
  }
  std::optional<DmaMapping> mapping = FindMapping(device, iova);
  if (!mapping.has_value() || mapping->dir != dir || !SyncRangeInside(*mapping, iova, len)) {
    return FailedPrecondition("dma_sync_single_for_cpu on invalid mapping");
  }
  // CPU takes ownership of the synced bytes; the translation stays live.
  const Kva kva = mapping->kva + (iova.value - mapping->iova.value);
  telemetry::Hub& hub = telemetry();
  if (hub.active()) {
    telemetry::Event event;
    event.kind = telemetry::EventKind::kDmaSync;
    event.severity = telemetry::Severity::kTrace;
    event.device = device.value;
    event.addr = kva.value;
    event.addr2 = iova.value;
    event.len = len;
    event.origin = this;
    event.site = "dma_sync_single_for_cpu";
    hub.Publish(event);
    if (hub.enabled()) {
      ++syncs_.in(hub);
    }
  }
  NotifyCpuAccess(kva, len, /*is_write=*/false);
  return OkStatus();
}

Status DmaApi::SyncSingleForDevice(DeviceId device, Iova iova, uint64_t len,
                                   DmaDirection dir) {
  if (bounce_pool_ != nullptr && bounce_pool_->Owns(device, iova)) {
    Status status = bounce_pool_->SyncForDevice(device, iova, len, dir);
    if (recorder_ != nullptr && status.ok()) {
      recorder_->RecordSync(device, iova, len, static_cast<uint8_t>(dir),
                            /*for_cpu=*/false, /*bounced=*/true);
    }
    return status;
  }
  std::optional<DmaMapping> mapping = FindMapping(device, iova);
  if (!mapping.has_value() || mapping->dir != dir || !SyncRangeInside(*mapping, iova, len)) {
    return FailedPrecondition("dma_sync_single_for_device on invalid mapping");
  }
  return OkStatus();
}

Result<std::vector<Iova>> DmaApi::MapSg(DeviceId device, std::span<const SgEntry> entries,
                                        DmaDirection dir, std::string_view site) {
  trace::ScopedSpan span(tracer_, "dma.map_sg");
  std::vector<Iova> iovas;
  iovas.reserve(entries.size());
  for (const SgEntry& entry : entries) {
    Result<Iova> iova = MapSingle(device, entry.kva, entry.len, dir, site);
    if (!iova.ok()) {
      // Roll back the partial list.
      for (size_t i = 0; i < iovas.size(); ++i) {
        (void)UnmapSingle(device, iovas[i], entries[i].len, dir);
      }
      return iova.status();
    }
    iovas.push_back(*iova);
  }
  return iovas;
}

Status DmaApi::UnmapSg(DeviceId device, std::span<const Iova> iovas,
                       std::span<const SgEntry> entries, DmaDirection dir) {
  trace::ScopedSpan span(tracer_, "dma.unmap_sg");
  if (iovas.size() != entries.size()) {
    return InvalidArgument("dma_unmap_sg with mismatched list sizes");
  }
  for (size_t i = 0; i < iovas.size(); ++i) {
    SPV_RETURN_IF_ERROR(UnmapSingle(device, iovas[i], entries[i].len, dir));
  }
  return OkStatus();
}

std::vector<DmaMapping> DmaApi::MappingsForPfn(Pfn pfn) const {
  std::vector<DmaMapping> out;
  ForEachMapping([&](const DmaMapping& mapping) {
    auto phys = layout_.DirectMapKvaToPhys(mapping.kva);
    if (!phys.ok()) {
      return;
    }
    const uint64_t first = phys->pfn().value;
    if (pfn.value >= first && pfn.value < first + mapping.pages()) {
      out.push_back(mapping);
    }
  });
  return out;
}

void DmaApi::ForEachMapping(const std::function<void(const DmaMapping&)>& fn) const {
  // The flat table iterates in probe order; sort for a deterministic visit.
  std::vector<DmaMapping> all;
  all.reserve(index_.size());
  index_.ForEach([&](const DmaMapping& mapping) { all.push_back(mapping); });
  std::sort(all.begin(), all.end(), [](const DmaMapping& a, const DmaMapping& b) {
    return std::tie(a.device.value, a.iova.value) < std::tie(b.device.value, b.iova.value);
  });
  for (const DmaMapping& mapping : all) {
    fn(mapping);
  }
}

std::optional<DmaMapping> DmaApi::FindMapping(DeviceId device, Iova iova) const {
  if (const DmaMapping* found = index_.Find(device.value, iova.value >> kPageShift);
      found != nullptr) {
    return *found;
  }
  // Bounced buffers live in the pool, not the tracker; synthesize the
  // mapping so FindMapping-based ring audits keep working.
  if (bounce_pool_ != nullptr && bounce_pool_->Owns(device, iova)) {
    return bounce_pool_->Lookup(device, iova);
  }
  return std::nullopt;
}

void DmaApi::NotifyCpuAccess(Kva kva, uint64_t len, bool is_write) {
  telemetry::Hub& hub = telemetry();
  if (!hub.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = telemetry::EventKind::kCpuAccess;
  event.severity = telemetry::Severity::kTrace;
  event.addr = kva.value;
  event.len = len;
  event.flag = is_write;
  event.origin = this;
  hub.Publish(event);
  if (hub.enabled()) {
    ++cpu_accesses_.in(hub);
  }
}

void DmaApi::Notify(const DmaMapping& mapping, bool map) {
  telemetry::Hub& hub = telemetry();
  if (!hub.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = map ? telemetry::EventKind::kDmaMap : telemetry::EventKind::kDmaUnmap;
  event.severity = telemetry::Severity::kInfo;
  event.device = mapping.device.value;
  event.addr = mapping.kva.value;
  event.addr2 = mapping.iova.value;
  event.len = mapping.len;
  event.aux = static_cast<uint64_t>(RightsFor(mapping.dir));
  event.origin = this;
  event.site = mapping.site;
  hub.Publish(event);
  if (hub.enabled()) {
    ++(map ? maps_ : unmaps_).in(hub);
    // Per-device map/unmap accounting (Table-1 style breakdowns).
    DeviceCounters& device = device_counters_[mapping.device.value];
    StatCounter*& per_device = map ? device.maps : device.unmaps;
    if (per_device == nullptr) {
      per_device = &hub.counter((map ? "dma.maps.dev" : "dma.unmaps.dev") +
                                std::to_string(mapping.device.value));
    }
    ++*per_device;
    if (map) {
      map_bytes_.in(hub).Record(mapping.len);
      exposed_bytes_.in(hub).Record(mapping.exposed_bytes());
    }
  }
}

}  // namespace spv::dma
