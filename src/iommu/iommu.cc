#include "iommu/iommu.h"

#include <algorithm>
#include <utility>

#include "fault/fault.h"
#include "forensics/flight_recorder.h"

namespace spv::iommu {

std::string_view FlushReasonName(FlushReason reason) {
  switch (reason) {
    case FlushReason::kManual:
      return "manual";
    case FlushReason::kCapacity:
      return "capacity";
    case FlushReason::kDeadline:
      return "deadline";
  }
  return "?";
}

Iommu::Iommu(mem::PhysicalMemory& pm, SimClock& clock, Config config)
    : pm_(pm), clock_(clock), config_(config), iotlb_(config.iotlb_capacity) {}

void Iommu::set_telemetry(telemetry::Hub* hub) {
  // Every Stats tally is a fact the hub reports under one name (the drain
  // reasons as iommu.flush_drain.<reason>).
  static constexpr std::pair<std::string_view, StatCounter Stats::*> kStatNames[] = {
      {"iommu.maps", &Stats::maps},
      {"iommu.unmaps", &Stats::unmaps},
      {"iommu.flushes", &Stats::flushes},
      {"iommu.targeted_invalidations", &Stats::targeted_invalidations},
      {"iommu.invalidation_cycles", &Stats::invalidation_cycles},
      {"iommu.device_accesses", &Stats::device_accesses},
      {"iommu.stale_iotlb_accesses", &Stats::stale_iotlb_accesses},
      {"iommu.flush_drain.capacity", &Stats::flush_capacity_drains},
      {"iommu.flush_drain.deadline", &Stats::flush_deadline_drains},
      {"iommu.flush_drain.manual", &Stats::flush_manual_drains},
      {"iommu.device_fences", &Stats::device_fences},
      {"iommu.device_detaches", &Stats::device_detaches},
      {"iommu.fenced_accesses", &Stats::fenced_accesses},
      {"iommu.drained_device_entries", &Stats::drained_device_entries},
  };
  hub_ = hub;
  links_.clear();
  if (hub != nullptr) {
    for (const auto& [name, tally] : kStatNames) {
      links_.push_back(hub->Link(name, stats_.*tally));
    }
  }
  iotlb_.set_telemetry(hub);
  for (auto& [id, domain] : device_domain_) {
    domain->iova_alloc.set_telemetry(hub);
    domain->table.set_telemetry(hub);
  }
}

void Iommu::AttachDevice(DeviceId device) {
  if (device_domain_.contains(device.value)) {
    return;
  }
  // A fresh attach (or a supervised re-attach after detach) restores the
  // device to good standing: the revocation memory is cleared.
  fenced_.erase(device.value);
  revoked_.erase(device.value);
  auto domain = std::make_shared<Domain>(config_.fast_path);
  domain->id = next_domain_id_++;
  domain->iova_alloc.set_telemetry(hub_);
  domain->table.set_telemetry(hub_);
  device_domain_[device.value] = std::move(domain);
}

Status Iommu::AttachDeviceToDomainOf(DeviceId device, DeviceId domain_owner) {
  auto owner_it = device_domain_.find(domain_owner.value);
  if (owner_it == device_domain_.end()) {
    return NotFound("domain owner not attached");
  }
  if (device_domain_.contains(device.value)) {
    return AlreadyExists("device already attached");
  }
  device_domain_[device.value] = owner_it->second;
  return OkStatus();
}

bool Iommu::IsAttached(DeviceId device) const { return device_domain_.contains(device.value); }

bool Iommu::IsFenced(DeviceId device) const { return fenced_.contains(device.value); }

bool Iommu::IsRevoked(DeviceId device) const { return revoked_.contains(device.value); }

bool Iommu::SameDomain(DeviceId a, DeviceId b) const {
  auto ia = device_domain_.find(a.value);
  auto ib = device_domain_.find(b.value);
  return ia != device_domain_.end() && ib != device_domain_.end() &&
         ia->second == ib->second;
}

Iommu::DeviceRef Iommu::Resolve(DeviceId device) const {
  DeviceRef ref;
  auto it = device_domain_.find(device.value);
  if (it != device_domain_.end()) {
    ref.domain = it->second.get();
  }
  ref.fenced = fenced_.contains(device.value);
  ref.revoked = revoked_.contains(device.value);
  return ref;
}

Status Iommu::FenceDevice(DeviceId device) {
  DeviceRef ref = Resolve(device);
  if (ref.domain == nullptr) {
    return NotFound("device not attached to IOMMU");
  }
  if (ref.fenced) {
    return OkStatus();  // idempotent: already quarantined
  }
  trace::ScopedSpan span(tracer_, "iommu.fence_device");
  // Order matters: first retire this device's deferred unmaps (their parked
  // IOVAs come home, their stale IOTLB pages die), then drop every remaining
  // cached translation for the domain so no warm entry survives the fence.
  DrainDeviceInvalidations(device);
  iotlb_.InvalidateDevice(DeviceId{ref.domain->id});
  ref.domain->table.InvalidateWalkCache();
  ChargeInvalidation(/*stall=*/0, /*targeted=*/false);
  fenced_.insert(device.value);
  revoked_.insert(device.value);
  ++stats_.device_fences;
  return OkStatus();
}

Status Iommu::UnfenceDevice(DeviceId device) {
  if (!device_domain_.contains(device.value)) {
    return NotFound("device not attached to IOMMU");
  }
  fenced_.erase(device.value);
  revoked_.erase(device.value);
  return OkStatus();
}

uint64_t Iommu::DrainDeviceInvalidations(DeviceId device) {
  Domain* state = Resolve(device).domain;
  std::deque<PendingInvalidation> mine;
  std::deque<PendingInvalidation> keep;
  for (PendingInvalidation& pending : flush_queue_) {
    (pending.device.value == device.value ? mine : keep).push_back(pending);
  }
  flush_queue_.swap(keep);
  for (const PendingInvalidation& pending : mine) {
    stats_.drained_device_entries += 1;
    if (state == nullptr) {
      continue;
    }
    // Kill the stale IOTLB pages *before* the IOVAs become reusable —
    // freeing first would let a recycled IOVA translate through the
    // still-warm stale entry (the exact window quarantine must close).
    uint64_t cycles = 0;
    for (uint64_t i = 0; i < pending.pages; ++i) {
      iotlb_.InvalidateRange(DeviceId{state->id}, pending.base + (i << kPageShift), 1);
      cycles += ChargeInvalidation(/*stall=*/0, /*targeted=*/true);
    }
    if (hub_ != nullptr && hub_->active()) {
      telemetry::Event event;
      event.kind = telemetry::EventKind::kIotlbInvalidate;
      event.severity = telemetry::Severity::kTrace;
      event.device = device.value;
      event.addr2 = pending.base.value;
      event.len = pending.pages << kPageShift;
      event.aux = cycles;  // what the range's page commands cost
      event.origin = this;
      event.site = "drain_device";
      hub_->Publish(event);
    }
    if (recorder_ != nullptr) {
      // Quarantine flush edge: the drain closes this range's stale window.
      recorder_->RecordFlush(device, pending.base, pending.pages, cycles, "flush:device");
    }
    (void)state->iova_alloc.Free(pending.base, pending.pages, pending.cpu);
  }
  return mine.size();
}

Status Iommu::DetachDevice(DeviceId device) {
  if (!device_domain_.contains(device.value)) {
    // Idempotent for devices we detached earlier; never-attached is an error.
    return revoked_.contains(device.value) ? OkStatus()
                                           : NotFound("device not attached to IOMMU");
  }
  trace::ScopedSpan span(tracer_, "iommu.detach_device");
  SPV_RETURN_IF_ERROR(FenceDevice(device));
  // Drop the device's domain membership. A shared domain survives through
  // the other members' shared_ptr refs — their PTEs and IOVA ranges are
  // theirs, not ours to tear down.
  device_domain_.erase(device.value);
  fenced_.erase(device.value);    // no longer attached, nothing left to fence
  revoked_.insert(device.value);  // but the revocation memory persists
  ++stats_.device_detaches;
  return OkStatus();
}

void Iommu::NoteFencedAccess(DeviceId device, Iova iova, std::string_view what) {
  ++stats_.fenced_accesses;
  if (hub_ != nullptr && hub_->active()) {
    telemetry::Event event;
    event.kind = telemetry::EventKind::kDeviceFencedAccess;
    event.severity = telemetry::Severity::kTrace;
    event.device = device.value;
    event.addr2 = iova.value;
    event.origin = this;
    event.site = std::string(what);
    hub_->Publish(event);
  }
}

Result<Iova> Iommu::MapPage(DeviceId device, Pfn pfn, AccessRights rights) {
  const Pfn pfns[] = {pfn};
  return MapRange(device, pfns, rights);
}

Result<Iova> Iommu::MapRange(DeviceId device, std::span<const Pfn> pfns, AccessRights rights) {
  trace::ScopedSpan span(tracer_, "iommu.map_range");
  ProcessDeferredTimer();
  DeviceRef ref = Resolve(device);
  Domain* state = ref.domain;
  if (state == nullptr) {
    return ref.revoked ? Revoked("device detached: new mappings revoked")
                       : InvalidArgument("device not attached to IOMMU");
  }
  if (ref.fenced) {
    return Revoked("device quarantined: new mappings revoked");
  }
  if (pfns.empty()) {
    return InvalidArgument("empty pfn list");
  }
  if (!config_.enabled) {
    // Bypass: dma_addr == physical address. Scatter lists must be contiguous
    // (a real no-IOMMU dma_map_sg would yield one segment per entry; our
    // callers map entries separately anyway).
    for (size_t i = 1; i < pfns.size(); ++i) {
      if (pfns[i].value != pfns[0].value + i) {
        return InvalidArgument("bypass mode requires contiguous pfns");
      }
    }
    stats_.maps += pfns.size();
    return Iova{pfns[0].PhysBase()};
  }
  if (fault_ != nullptr && fault_->armed() &&
      fault_->ShouldInject(fault::FaultSite::kIovaAlloc)) {
    return ResourceExhausted("injected: IOVA space exhausted");
  }
  Result<Iova> base = state->iova_alloc.Alloc(pfns.size(), CurrentCpu());
  if (!base.ok()) {
    return base.status();
  }
  for (size_t i = 0; i < pfns.size(); ++i) {
    Status s = (fault_ != nullptr && fault_->armed() &&
                fault_->ShouldInject(fault::FaultSite::kIoPageTableMap))
                   ? ResourceExhausted("injected: I/O page table allocation failure")
                   : state->table.Map(*base + (i << kPageShift), pfns[i], rights);
    if (!s.ok()) {
      // Roll back partial mappings.
      for (size_t j = 0; j < i; ++j) {
        (void)state->table.Unmap(*base + (j << kPageShift));
      }
      (void)state->iova_alloc.Free(*base, pfns.size(), CurrentCpu());
      return s;
    }
  }
  clock_.Advance(kMapPteCycles * pfns.size());
  stats_.maps += pfns.size();
  return *base;
}

Status Iommu::UnmapPage(DeviceId device, Iova iova) { return UnmapRange(device, iova, 1); }

Status Iommu::UnmapRange(DeviceId device, Iova base, uint64_t pages) {
  trace::ScopedSpan span(tracer_, "iommu.unmap_range");
  ProcessDeferredTimer();
  DeviceRef ref = Resolve(device);
  Domain* state = ref.domain;
  if (state == nullptr) {
    // OS-side unmaps on a *fenced* device stay allowed (teardown must make
    // progress), but once detached the translations are gone with the domain.
    return ref.revoked ? Revoked("device detached: mappings already revoked")
                       : InvalidArgument("device not attached to IOMMU");
  }
  if (!config_.enabled) {
    stats_.unmaps += pages;  // nothing to revoke: the device never lost access
    return OkStatus();
  }
  // All or nothing: a hole anywhere in the range re-maps the PTEs already
  // cleared, so a failed unmap leaves no translation uninvalidated and no
  // IOVA range half torn down. The scratch list is reused so the success
  // path allocates nothing once warm.
  thread_local std::vector<PteEntry> cleared;
  cleared.clear();
  for (uint64_t i = 0; i < pages; ++i) {
    Result<PteEntry> old = state->table.Unmap(base + (i << kPageShift));
    if (!old.ok()) {
      for (uint64_t j = 0; j < cleared.size(); ++j) {
        (void)state->table.Map(base + (j << kPageShift), cleared[j].pfn, cleared[j].rights);
      }
      return old.status();
    }
    cleared.push_back(*old);
  }
  stats_.unmaps += pages;

  if (config_.mode == InvalidationMode::kStrict) {
    // One synchronous invalidation command for the whole range, then the
    // IOVA is immediately reusable: Linux's strict unmap gathers the range
    // (iommu_iotlb_gather) into one page-selective VT-d descriptor plus one
    // invalidation-wait. This is the expensive-but-safe path.
    iotlb_.InvalidateRange(DeviceId{state->id}, base, pages);
    const uint64_t cycles = ChargeInvalidation(InvalidationStall(), /*targeted=*/true);
    if (hub_ != nullptr && hub_->active()) {
      telemetry::Event event;
      event.kind = telemetry::EventKind::kIotlbInvalidate;
      event.severity = telemetry::Severity::kTrace;
      event.device = device.value;
      event.addr2 = base.value;
      event.len = pages << kPageShift;
      event.aux = cycles;  // what the command cost, stall included
      event.origin = this;
      event.site = "unmap_strict";
      hub_->Publish(event);
    }
    if (recorder_ != nullptr) {
      // Strict flush edge: the translation dies before the unmap edge, so
      // the mapping's stale window is the invalidation latency itself.
      recorder_->RecordFlush(device, base, pages, cycles, "strict");
    }
    return state->iova_alloc.Free(base, pages, CurrentCpu());
  }

  // Deferred: PTE is gone but the IOTLB may still translate. The IOVA is
  // parked until the flush so it cannot be handed out while stale.
  EnqueueInvalidation(device, base, pages);
  return OkStatus();
}

void Iommu::EnqueueInvalidation(DeviceId device, Iova base, uint64_t pages) {
  if (flush_queue_.empty()) {
    flush_deadline_ = clock_.now() + config_.flush_interval_cycles;
  }
  flush_queue_.push_back(PendingInvalidation{device, base, pages, CurrentCpu()});
  if (flush_queue_.size() >= config_.flush_queue_capacity) {
    FlushNow(FlushReason::kCapacity);
  }
}

Status Iommu::SetDeviceFastPath(DeviceId device, bool enabled) {
  Domain* domain = Resolve(device).domain;
  if (domain == nullptr) {
    return NotFound("fast-path gate on unattached device");
  }
  domain->iova_alloc.set_cache_bypass(!enabled);
  return OkStatus();
}

bool Iommu::device_fast_path(DeviceId device) const {
  const Domain* domain = Resolve(device).domain;
  return domain == nullptr || !domain->iova_alloc.cache_bypass();
}

void Iommu::FlushNow(FlushReason reason) {
  if (flush_queue_.empty()) {
    return;
  }
  std::deque<PendingInvalidation> batch;
  batch.swap(flush_queue_);
  flush_deadline_ = 0;
  trace::ScopedSpan span(tracer_, "iommu.flush_drain");
  // One global invalidation amortizes the whole batch — this is why deferred
  // mode wins on throughput (§5.2.1).
  const uint64_t amortized = batch.size();
  iotlb_.InvalidateAll();
  // A global IOTLB invalidation also drops the intermediate-structure
  // caches, so the page-table walk caches start cold.
  for (auto& [id, domain] : device_domain_) {
    domain->table.InvalidateWalkCache();
  }
  const uint64_t cycles = ChargeInvalidation(InvalidationStall(), /*targeted=*/false);
  ++stats_.flushes;
  switch (reason) {
    case FlushReason::kManual:
      ++stats_.flush_manual_drains;
      break;
    case FlushReason::kCapacity:
      ++stats_.flush_capacity_drains;
      break;
    case FlushReason::kDeadline:
      ++stats_.flush_deadline_drains;
      break;
  }
  if (hub_ != nullptr && hub_->active()) {
    telemetry::Event event;
    event.kind = telemetry::EventKind::kIommuFlush;
    event.severity = telemetry::Severity::kInfo;
    event.aux = amortized;  // queued unmaps retired by this one invalidation
    event.origin = this;
    event.site = std::string("flush_now:") + std::string(FlushReasonName(reason));
    hub_->Publish(event);
    if (hub_->enabled()) {
      hub_->histogram("iommu.flush_batch").Record(amortized);
    }
  }
  const std::string close_reason =
      recorder_ != nullptr ? "flush:" + std::string(FlushReasonName(reason)) : "";
  for (const PendingInvalidation& pending : batch) {
    if (recorder_ != nullptr) {
      // Deferred flush edge: this drain is what finally closes the stale
      // window the queued unmap opened.
      recorder_->RecordFlush(pending.device, pending.base, pending.pages, cycles,
                             close_reason);
    }
    if (Domain* domain = Resolve(pending.device).domain; domain != nullptr) {
      (void)domain->iova_alloc.Free(pending.base, pending.pages, pending.cpu);
    }
  }
}

uint64_t Iommu::InvalidationStall() {
  if (fault_ == nullptr || !fault_->armed() ||
      !fault_->ShouldInject(fault::FaultSite::kIotlbInvalidation)) {
    return 0;
  }
  // The wait descriptor takes far longer than the nominal cost (a latency
  // spike, not a failure).
  return fault_->magnitude(fault::FaultSite::kIotlbInvalidation, 10 * kIotlbInvalidationCycles);
}

uint64_t Iommu::ChargeInvalidation(uint64_t stall, bool targeted) {
  const uint64_t cycles = kIotlbInvalidationCycles + stall;
  clock_.Advance(cycles);
  stats_.invalidation_cycles += cycles;
  if (targeted) {
    ++stats_.targeted_invalidations;
  }
  return cycles;
}

void Iommu::ProcessDeferredTimer() {
  if (!flush_queue_.empty() && clock_.now() >= flush_deadline_) {
    FlushNow(FlushReason::kDeadline);
  }
}

Status Iommu::DeviceRead(DeviceId device, Iova iova, std::span<uint8_t> out) {
  return Access(device, iova, AccessOp::kRead, out, {});
}

Status Iommu::DeviceWrite(DeviceId device, Iova iova, std::span<const uint8_t> data) {
  return Access(device, iova, AccessOp::kWrite, {}, data);
}

Status Iommu::Access(DeviceId device, Iova iova, AccessOp op, std::span<uint8_t> read_out,
                     std::span<const uint8_t> write_data) {
  // The "use" step of map -> use -> unmap: translation cycles (IOTLB hit or
  // page walk) accrue to this span in cycle-attribution profiles.
  trace::ScopedSpan span(tracer_, "iommu.device_access");
  ProcessDeferredTimer();
  DeviceRef ref = Resolve(device);
  Domain* state = ref.domain;
  if (state == nullptr) {
    if (ref.revoked) {
      NoteFencedAccess(device, iova, "DMA after detach");
      return Revoked("device detached: DMA revoked");
    }
    return InvalidArgument("device not attached to IOMMU");
  }
  if (ref.fenced) {
    NoteFencedAccess(device, iova, "DMA while fenced");
    return Revoked("device quarantined: DMA fenced");
  }
  ++stats_.device_accesses;

  if (!config_.enabled) {
    // No translation, no checks: the device masters the bus directly.
    const PhysAddr phys{iova.value};
    return op == AccessOp::kRead ? pm_.Read(phys, read_out) : pm_.Write(phys, write_data);
  }

  const uint64_t total = op == AccessOp::kRead ? read_out.size() : write_data.size();
  uint64_t done = 0;
  while (done < total) {
    const Iova cursor = iova + done;
    const uint64_t in_page = std::min(total - done, kPageSize - cursor.page_offset());
    Result<PteEntry> entry = TranslateForDevice(device, *state, cursor.PageBase(), op);
    if (!entry.ok()) {
      return entry.status();
    }
    const PhysAddr phys = PhysAddr::FromPfn(entry->pfn, cursor.page_offset());
    if (recorder_ != nullptr) {
      recorder_->RecordAccess(device, cursor, phys.value, in_page,
                              op == AccessOp::kWrite);
    }
    if (op == AccessOp::kRead) {
      SPV_RETURN_IF_ERROR(pm_.Read(phys, read_out.subspan(done, in_page)));
    } else {
      SPV_RETURN_IF_ERROR(pm_.Write(phys, write_data.subspan(done, in_page)));
    }
    done += in_page;
  }
  return OkStatus();
}

Result<PteEntry> Iommu::TranslateForDevice(DeviceId device, Domain& state, Iova page_iova,
                                           AccessOp op) {
  // IOTLB first. A hit is authoritative even if the PTE has since been
  // cleared — the hardware does not re-walk on hits. This single line is the
  // deferred-invalidation vulnerability.
  std::optional<PteEntry> cached = iotlb_.Lookup(DeviceId{state.id}, page_iova);
  if (cached.has_value()) {
    clock_.Advance(kIotlbHitCycles);
    if (!Permits(cached->rights, op)) {
      Fault(device, page_iova, op, "access rights violation (cached translation)");
      return PermissionDenied("IOMMU fault: rights violation");
    }
    if (!state.table.Lookup(page_iova).has_value()) {
      ++stats_.stale_iotlb_accesses;  // translated with no live PTE
      if (recorder_ != nullptr) {
        recorder_->RecordStaleHit(device, page_iova,
                                  PhysAddr::FromPfn(cached->pfn, 0).value);
      }
      if (hub_ != nullptr && hub_->active()) {
        telemetry::Event event;
        event.kind = telemetry::EventKind::kStaleIotlbHit;
        event.severity = telemetry::Severity::kCritical;
        event.device = device.value;
        event.addr2 = page_iova.value;
        event.len = kPageSize;
        event.flag = op == AccessOp::kWrite;
        event.origin = this;
        event.site = "stale translation served from IOTLB";
        hub_->Publish(event);
      }
    }
    return *cached;
  }

  int walk_levels = 0;
  std::optional<PteEntry> pte = state.table.Lookup(page_iova, &walk_levels);
  clock_.Advance(kPageWalkCyclesPerLevel * static_cast<uint64_t>(std::max(walk_levels, 1)));
  if (!pte.has_value()) {
    Fault(device, page_iova, op, "translation not present");
    return PermissionDenied("IOMMU fault: not present");
  }
  iotlb_.Insert(DeviceId{state.id}, page_iova, *pte);
  if (!Permits(pte->rights, op)) {
    Fault(device, page_iova, op, "access rights violation");
    return PermissionDenied("IOMMU fault: rights violation");
  }
  return *pte;
}

void Iommu::Fault(DeviceId device, Iova iova, AccessOp op, std::string reason) {
  if (recorder_ != nullptr) {
    recorder_->RecordFault(device, iova, kPageSize, op == AccessOp::kWrite);
  }
  if (hub_ != nullptr && hub_->active()) {
    telemetry::Event event;
    event.kind = telemetry::EventKind::kIommuFault;
    event.severity = telemetry::Severity::kWarn;
    event.device = device.value;
    event.addr2 = iova.value;
    event.flag = op == AccessOp::kWrite;
    event.origin = this;
    event.site = reason;
    hub_->Publish(event);
    if (hub_->enabled()) {
      ++hub_->counter("iommu.faults");
    }
  }
  // Bound the fault log; a scanning attacker can generate millions.
  constexpr size_t kMaxFaults = 4096;
  if (faults_.size() < kMaxFaults) {
    faults_.push_back(IommuFault{device, iova, op, clock_.now(), std::move(reason)});
  }
}

std::vector<Iova> Iommu::IovasForPfn(DeviceId device, Pfn pfn) const {
  const Domain* domain = Resolve(device).domain;
  if (domain == nullptr) {
    return {};
  }
  return domain->table.FindIovasForPfn(pfn);
}

std::optional<PteEntry> Iommu::Peek(DeviceId device, Iova iova) const {
  const Domain* domain = Resolve(device).domain;
  if (domain == nullptr) {
    return std::nullopt;
  }
  return domain->table.PeekTranslation(iova.PageBase());
}

const IovaAllocator* Iommu::iova_allocator(DeviceId device) const {
  const Domain* domain = Resolve(device).domain;
  return domain == nullptr ? nullptr : &domain->iova_alloc;
}

const IoPageTable* Iommu::page_table(DeviceId device) const {
  const Domain* domain = Resolve(device).domain;
  return domain == nullptr ? nullptr : &domain->table;
}

std::vector<DeviceId> Iommu::attached_devices() const {
  std::vector<DeviceId> out;
  out.reserve(device_domain_.size());
  for (const auto& [id, domain] : device_domain_) {
    out.push_back(DeviceId{id});
  }
  std::sort(out.begin(), out.end(),
            [](DeviceId a, DeviceId b) { return a.value < b.value; });
  return out;
}

std::vector<Iommu::PendingRange> Iommu::pending_invalidations() const {
  std::vector<PendingRange> out;
  out.reserve(flush_queue_.size());
  for (const PendingInvalidation& pending : flush_queue_) {
    out.push_back(PendingRange{pending.device, pending.base, pending.pages});
  }
  return out;
}

Status Iommu::Audit() const {
  // One snapshot of the device -> domain map, in ascending device order.
  // A domain is audited once, under its lowest member id (the device a
  // containment failure names), and its live set is copied once (ascending
  // by base) to serve containment, parking and the magazine audit.
  struct DomainAudit {
    DeviceId device;  // lowest attached member
    const Domain* domain;
    std::vector<IovaAllocator::LiveRange> live;
  };
  struct Member {
    uint32_t device;
    const Domain* domain;
    size_t audit = 0;  // index of its domain's record
  };
  std::vector<Member> members;
  members.reserve(device_domain_.size());
  for (const auto& [device, domain] : device_domain_) {
    members.push_back(Member{device, domain.get()});
  }
  std::sort(members.begin(), members.end(),
            [](const Member& a, const Member& b) { return a.device < b.device; });
  std::vector<DomainAudit> domains;
  for (Member& member : members) {
    auto seen = std::find_if(domains.begin(), domains.end(), [&](const DomainAudit& audit) {
      return audit.domain == member.domain;
    });
    member.audit = static_cast<size_t>(seen - domains.begin());
    if (seen == domains.end()) {
      domains.push_back(DomainAudit{DeviceId{member.device}, member.domain,
                                    member.domain->iova_alloc.live_ranges()});
    }
  }

  // (2) Containment, walking the PTEs (ascending) in step with the live
  // ranges: ranges ending at or below a page cannot hold it or any later one.
  for (const DomainAudit& audit : domains) {
    auto range = audit.live.begin();
    Status failure = OkStatus();
    audit.domain->table.ForEachMapping([&](Iova iova, const PteEntry&) {
      const uint64_t page = iova.value >> kPageShift;
      while (range != audit.live.end() && range->base_page + range->pages <= page) {
        ++range;
      }
      if (failure.ok() && (range == audit.live.end() || page < range->base_page)) {
        failure = Internal("invariant: PTE at iova page " + std::to_string(page) + " (device " +
                           std::to_string(audit.device.value) +
                           ") outside every live IOVA range");
      }
    });
    SPV_RETURN_IF_ERROR(failure);
  }

  // Every pending range with its domain, resolved once through the snapshot
  // (null when the device was detached while pending).
  struct Pending {
    const DomainAudit* domain;
    uint64_t base;  // IOVA
    uint64_t end;   // IOVA, exclusive
  };
  std::vector<Pending> pending;
  pending.reserve(flush_queue_.size());
  for (const PendingInvalidation& entry : flush_queue_) {
    auto member = std::lower_bound(
        members.begin(), members.end(), entry.device.value,
        [](const Member& member, uint32_t device) { return member.device < device; });
    const bool attached = member != members.end() && member->device == entry.device.value;
    pending.push_back(Pending{attached ? &domains[member->audit] : nullptr, entry.base.value,
                              entry.base.value + (entry.pages << kPageShift)});
  }

  // (3) A cached translation with no live PTE must await a pending
  // invalidation of its own domain.
  Status stale_failure = OkStatus();
  iotlb_.ForEachEntry([&](DeviceId tag, Iova iova_page, const PteEntry&) {
    if (!stale_failure.ok()) {
      return;
    }
    auto audit = std::find_if(domains.begin(), domains.end(), [&](const DomainAudit& candidate) {
      return candidate.domain->id == tag.value;
    });
    if (audit == domains.end() || audit->domain->table.PeekTranslation(iova_page).has_value()) {
      return;  // domain gone, or a live PTE backs this cached translation
    }
    for (const Pending& range : pending) {
      if (range.domain == &*audit && iova_page.value >= range.base &&
          iova_page.value < range.end) {
        return;  // awaiting the queued flush
      }
    }
    stale_failure = Internal("invariant: stale IOTLB entry at iova " +
                             std::to_string(iova_page.value) + " (domain " +
                             std::to_string(tag.value) + ") with no pending invalidation");
  });
  SPV_RETURN_IF_ERROR(stale_failure);

  // (5) Queue liveness: a non-empty queue must have an armed deadline
  // (otherwise its entries can never deadline-drain), and every pending range
  // must still be parked (live) in its domain's allocator — parked IOVAs are
  // freed only at drain, so a pending range absent from the live set has
  // leaked or been handed out while stale. A pending base page is parked when
  // the live range with the greatest base at or below it still covers it.
  if (!flush_queue_.empty() && flush_deadline_ == 0) {
    return Internal("flush queue non-empty with unarmed deadline");
  }
  for (const Pending& range : pending) {
    if (range.domain == nullptr) {
      continue;  // detached while pending: DrainDeviceInvalidations missed it
    }
    const std::vector<IovaAllocator::LiveRange>& live = range.domain->live;
    const uint64_t base_page = range.base >> kPageShift;
    auto above = std::upper_bound(live.begin(), live.end(), base_page,
                                  [](uint64_t page, const IovaAllocator::LiveRange& live_range) {
                                    return page < live_range.base_page;
                                  });
    if (above == live.begin() || base_page >= (above - 1)->base_page + (above - 1)->pages) {
      return Internal("pending invalidation not parked in live set");
    }
  }
  // (5) Magazine ownership: every CPU magazine and the depot, per domain.
  for (const DomainAudit& audit : domains) {
    SPV_RETURN_IF_ERROR(audit.domain->iova_alloc.AuditCaches(audit.live));
  }
  return OkStatus();
}

}  // namespace spv::iommu
