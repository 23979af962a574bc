#include "forensics/flight_recorder.h"

#include <algorithm>

#include "base/json.h"

namespace spv::forensics {

namespace {

constexpr uint64_t PagesFor(uint64_t addr, uint64_t len) {
  return ((addr & kPageMask) + len + kPageSize - 1) >> kPageShift;
}

// The first entry of `index` (sorted by start address) starting at or above
// `key`, and the first starting above it.
template <typename Index>
auto LowerBound(Index& index, uint64_t key) {
  return std::lower_bound(index.begin(), index.end(), key,
                          [](const auto& entry, uint64_t k) { return entry.iova < k; });
}

template <typename Index>
auto UpperBound(Index& index, uint64_t key) {
  return std::upper_bound(index.begin(), index.end(), key,
                          [](uint64_t k, const auto& entry) { return k < entry.iova; });
}

// The first entry of `index` that may overlap [lo, ...): the last one
// starting at or below `lo`, else the first above.
template <typename Index>
auto FirstCandidate(Index& index, uint64_t lo) {
  auto it = UpperBound(index, lo);
  return it == index.begin() ? it : std::prev(it);
}

// The min-heap order of the retired lives: the oldest generation on top.
constexpr auto kNewerFirst = [](const auto& a, const auto& b) {
  return a.generation > b.generation;
};

}  // namespace

std::string_view RecordOpName(RecordOp op) {
  switch (op) {
    case RecordOp::kMap:
      return "map";
    case RecordOp::kUnmap:
      return "unmap";
    case RecordOp::kDeviceRead:
      return "device_read";
    case RecordOp::kDeviceWrite:
      return "device_write";
    case RecordOp::kStaleHit:
      return "stale_hit";
    case RecordOp::kFault:
      return "fault";
    case RecordOp::kFlush:
      return "flush";
    case RecordOp::kSyncCpu:
      return "sync_cpu";
    case RecordOp::kSyncDevice:
      return "sync_device";
  }
  return "?";
}

bool RecordOpCritical(RecordOp op) {
  return op == RecordOp::kStaleHit || op == RecordOp::kFault;
}

std::string_view WindowKindName(WindowKind kind) {
  switch (kind) {
    case WindowKind::kStaleIotlb:
      return "stale_iotlb";
    case WindowKind::kSubPage:
      return "sub_page";
  }
  return "?";
}

FlightRecorder::FlightRecorder(const SimClock* clock, ForensicsConfig config,
                               uint32_t num_cpus, bool iommu_enabled)
    : clock_(clock), config_(config), num_cpus_(num_cpus), iommu_enabled_(iommu_enabled) {
  if (config_.ring_capacity == 0) {
    config_.ring_capacity = 1;
  }
  if (config_.ledger_capacity == 0) {
    config_.ledger_capacity = 1;
  }
  window_event_.origin = this;
}

void FlightRecorder::Ring::Push(const FlightRecord& record, size_t capacity) {
  FlightRecord* slot;
  if (slots.size() < capacity) {
    if (slots.capacity() < capacity) {
      slots.reserve(capacity);  // the whole ring at once: no regrowth
    }
    slot = &slots.emplace_back(record);
  } else {
    slot = &slots[next_seq % capacity];
    // Overwriting the oldest live record: account the drop by what is being
    // *lost*, so a ring churning device reads cannot silently swallow a
    // fault or stale hit — the trace-ring `dropped_critical` parity.
    if (RecordOpCritical(slot->op)) {
      ++dropped_critical;
    } else {
      ++dropped_info;
    }
    *slot = record;
  }
  slot->seq = next_seq++;
}

void FlightRecorder::Ring::AppendTo(std::vector<FlightRecord>& out, size_t capacity) const {
  for (uint64_t i = next_seq - slots.size(); i < next_seq; ++i) {
    out.push_back(slots[i % capacity]);
  }
}

FlightRecorder::Lane& FlightRecorder::LaneFor(DeviceId device) {
  if (last_lane_ == nullptr || last_device_ != device.value) {
    auto [it, inserted] = lanes_.try_emplace(device.value);
    if (inserted && config_.enabled) {
      it->second.rings.resize(num_cpus_);  // empty rings: storage comes per CPU
    }
    last_device_ = device.value;
    last_lane_ = &it->second;
  }
  return *last_lane_;
}

const FlightRecorder::Lane* FlightRecorder::FindLane(DeviceId device) const {
  const auto it = lanes_.find(device.value);
  return it == lanes_.end() ? nullptr : &it->second;
}

std::vector<std::pair<uint32_t, const FlightRecorder::Lane*>> FlightRecorder::LanesByDevice()
    const {
  std::vector<std::pair<uint32_t, const Lane*>> out;
  out.reserve(lanes_.size());
  for (const auto& [device, lane] : lanes_) {
    out.emplace_back(device, &lane);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

FlightRecorder::Life* FlightRecorder::FindLive(Lane& lane, uint64_t iova) {
  const auto it = UpperBound(lane.by_iova, iova);
  if (it == lane.by_iova.begin()) {
    return nullptr;
  }
  Life* life = std::prev(it)->life;
  const MappingLife& facts = life->facts;
  return facts.unmap_cycle == 0 && iova < facts.iova + facts.len ? life : nullptr;
}

FlightRecorder::Life* FlightRecorder::FindPending(Lane& lane, uint64_t page) {
  // The life's key may sit a sub-page offset above its first page.
  const auto it = UpperBound(lane.by_iova, page | kPageMask);
  if (it == lane.by_iova.begin()) {
    return nullptr;
  }
  Life* life = std::prev(it)->life;
  const MappingLife& facts = life->facts;
  return facts.unmap_cycle != 0 &&
                 page < (facts.iova & ~kPageMask) + (PagesFor(facts.iova, facts.len) << kPageShift)
             ? life
             : nullptr;
}

FlightRecorder::Life& FlightRecorder::NewLife(Lane& lane) {
  ++lane.retained;
  if (Life* life = lane.free; life != nullptr) {
    lane.free = life->next_free;
    life->next_free = nullptr;
    return *life;
  }
  return lane.pool.emplace_back();
}

void FlightRecorder::FreeLife(Lane& lane, Life& life) {
  // Everything back to its default but the string buffers, which the slot's
  // next life reuses.
  std::string site = std::move(life.facts.site);
  std::string reason = std::move(life.stale_reason);
  site.clear();
  reason.clear();
  life = Life{};
  life.facts.site = std::move(site);
  life.stale_reason = std::move(reason);
  life.next_free = lane.free;
  lane.free = &life;
  --lane.retained;
}

void FlightRecorder::Retire(Lane& lane, Life& life) {
  const RetiredEntry entry{life.facts.generation, &life};
  if (lane.retired.size() < config_.ledger_capacity) {
    lane.retired.push_back(entry);
    std::push_heap(lane.retired.begin(), lane.retired.end(), kNewerFirst);
    return;
  }
  // Full: the oldest of the retained lives and this one is evicted.
  ++lane.dropped;
  if (entry.generation < lane.retired.front().generation) {
    FreeLife(lane, life);
    return;
  }
  std::pop_heap(lane.retired.begin(), lane.retired.end(), kNewerFirst);
  FreeLife(lane, *lane.retired.back().life);
  lane.retired.back() = entry;
  std::push_heap(lane.retired.begin(), lane.retired.end(), kNewerFirst);
}

void FlightRecorder::LinkOpen(Life& life) {
  life.older_open = newest_open_;
  if (newest_open_ != nullptr) {
    newest_open_->newer_open = &life;
  }
  newest_open_ = &life;
  ++stale_windows_open_;
}

void FlightRecorder::UnlinkOpen(Life& life) {
  (life.newer_open != nullptr ? life.newer_open->older_open : newest_open_) = life.older_open;
  if (life.older_open != nullptr) {
    life.older_open->newer_open = life.newer_open;
  }
  life.older_open = life.newer_open = nullptr;
  --stale_windows_open_;
}

void FlightRecorder::Push(Lane& lane, FlightRecord record) {
  if (lane.rings.empty()) {
    return;
  }
  record.cycle = clock_->now();
  record.cpu = CurrentCpu().value;
  lane.rings[CurrentCpu().value % lane.rings.size()].Push(record, config_.ring_capacity);
}

Window FlightRecorder::SubPageView(const Life& life) {
  const MappingLife& facts = life.facts;
  Window window;
  window.kind = WindowKind::kSubPage;
  window.generation = facts.generation;
  window.span = life.subpage_span;
  window.device = facts.device;
  window.iova_page = facts.iova & ~kPageMask;
  window.pages = PagesFor(facts.iova, facts.len);
  window.exposed_bytes = (window.pages << kPageShift) - facts.len;
  window.open_cycle = facts.map_cycle;
  window.open = facts.unmap_cycle == 0;
  if (!window.open) {
    window.close_cycle = facts.unmap_cycle;
    window.close_reason = "unmap";
  }
  return window;
}

Window FlightRecorder::StaleView(const Life& life) {
  const MappingLife& facts = life.facts;
  Window window;
  window.generation = facts.generation;
  window.span = life.stale_span;
  window.device = facts.device;
  window.iova_page = facts.iova & ~kPageMask;
  window.pages = PagesFor(facts.iova, facts.len);
  window.open_cycle = life.stale_open;
  window.close_cycle = life.stale_close;
  window.open = life.stale_close == 0;
  window.device_hits = facts.stale_hits;
  window.first_hit_cycle = life.first_hit_cycle;
  window.detected = life.detected;
  window.close_reason = life.stale_reason;
  return window;
}

void FlightRecorder::CloseStale(Life& life, uint64_t cycle, std::string_view reason,
                                std::vector<Announcement>& out) {
  life.stale_close = cycle;
  life.stale_reason.assign(reason);
  UnlinkOpen(life);
  stale_open_cycles_.Record(cycle - life.stale_open);
  if (tracer_ != nullptr) {
    out.push_back(Announcement{StaleView(life), nullptr, /*open=*/false});
  }
}

void FlightRecorder::RecordMap(DeviceId device, Iova iova, Kva kva, uint64_t len,
                               uint8_t dir, bool bounced, std::string_view site) {
  FlightRecord record{.device = device.value, .op = RecordOp::kMap, .dir = dir,
                      .bounced = bounced, .iova = iova.value, .gpa = kva.value, .len = len};
  std::vector<Announcement> announcements = TakeAnnouncements();
  Lane& lane = LaneFor(device);
  // A live life still indexed over these bytes lost its mapping without an
  // unmap edge (a bounce released by revocation): it retires as it is. An
  // unmapped one cannot overlap: its IOVA stays parked until the
  // invalidation that takes it out of the index.
  const uint64_t end = iova.value + len;
  for (auto it = FirstCandidate(lane.by_iova, iova.value);
       it != lane.by_iova.end() && it->iova < end;) {
    Life& old = *it->life;
    if (old.facts.unmap_cycle == 0 && it->iova + old.facts.len > iova.value) {
      it = lane.by_iova.erase(it);
      Retire(lane, old);
    } else {
      ++it;
    }
  }
  record.generation = lane.next_generation++;
  Life& life = NewLife(lane);
  MappingLife& facts = life.facts;
  facts.generation = record.generation;
  facts.device = device.value;
  facts.iova = iova.value;
  facts.kva = kva.value;
  facts.len = len;
  facts.dir = dir;
  facts.bounced = bounced;
  facts.site.assign(site);  // into the slot's buffer
  facts.map_cycle = clock_->now();
  // An unmapped life indexed at this very IOVA (the loop above leaves it)
  // hands its entry to the new one.
  const auto at = LowerBound(lane.by_iova, iova.value);
  if (at != lane.by_iova.end() && at->iova == iova.value) {
    at->life = &life;
  } else {
    lane.by_iova.insert(at, IndexEntry{iova.value, &life});
  }
  // Sub-page exposure: the mapping covers whole pages; a device-writable
  // one (any direction but DMA_TO_DEVICE, raw 0) whose buffer does not fill
  // them exposes the remainder.
  if (!bounced && dir != 0 && (PagesFor(iova.value, len) << kPageShift) > len) {
    life.subpage_seq = next_window_seq_++;
    ++subpage_windows_open_;
    if (tracer_ != nullptr) {
      announcements.push_back(Announcement{SubPageView(life), &life, /*open=*/true});
    }
  }
  Push(lane, record);
  Announce(announcements);
}

void FlightRecorder::RecordUnmap(DeviceId device, Iova iova, uint64_t len, uint8_t dir,
                                 bool bounced) {
  FlightRecord record{.device = device.value, .op = RecordOp::kUnmap, .dir = dir,
                      .bounced = bounced, .iova = iova.value, .len = len};
  std::vector<Announcement> announcements = TakeAnnouncements();
  Lane& lane = LaneFor(device);
  const auto it = LowerBound(lane.by_iova, iova.value);
  if (it != lane.by_iova.end() && it->iova == iova.value && it->life->facts.unmap_cycle == 0) {
    Life& life = *it->life;
    MappingLife& facts = life.facts;
    const uint64_t now = clock_->now();
    facts.unmap_cycle = now;
    record.generation = facts.generation;
    record.gpa = facts.kva;
    if (life.subpage_seq != 0) {
      --subpage_windows_open_;
      subpage_open_cycles_.Record(now - facts.map_cycle);
      if (tracer_ != nullptr) {
        announcements.push_back(Announcement{SubPageView(life), nullptr, /*open=*/false});
      }
    }
    bool pending = false;
    if (!facts.bounced && iommu_enabled_) {
      life.stale_seq = next_window_seq_++;
      last_stale_ = &life;
      last_stale_generation_ = facts.generation;
      if (facts.flush_cycle != 0) {
        // Invalidated before this edge: the window was the synchronous
        // invalidation itself and is closed on arrival.
        life.stale_close = now;
        stale_open_cycles_.Record(now - life.stale_open);
        if (tracer_ != nullptr) {
          announcements.push_back(Announcement{StaleView(life), nullptr, /*open=*/false,
                                               /*opened_closed=*/true});
        }
      } else {
        // Its translation may linger until the invalidation of its range.
        pending = true;
        life.stale_open = now;
        LinkOpen(life);
        if (tracer_ != nullptr) {
          announcements.push_back(Announcement{StaleView(life), &life, /*open=*/true});
        }
      }
      last_stale_open_ = life.stale_open;
    }
    if (!pending) {
      lane.by_iova.erase(it);
      Retire(lane, life);  // last: it may evict `life` itself
    }
  }
  Push(lane, record);
  Announce(announcements);
}

void FlightRecorder::RecordFlush(DeviceId device, Iova page_iova, uint64_t pages,
                                 uint64_t cost, std::string_view reason) {
  FlightRecord record{.device = device.value, .op = RecordOp::kFlush,
                      .iova = page_iova.value, .len = pages << kPageShift};
  std::vector<Announcement> announcements = TakeAnnouncements();
  Lane& lane = LaneFor(device);
  const uint64_t now = clock_->now();
  const uint64_t lo = page_iova.value;
  const uint64_t hi = lo + (pages << kPageShift);
  for (auto it = FirstCandidate(lane.by_iova, lo);
       it != lane.by_iova.end() && it->iova < hi;) {
    Life& life = *it->life;
    MappingLife& facts = life.facts;
    if ((facts.iova & ~kPageMask) + (PagesFor(facts.iova, facts.len) << kPageShift) <= lo ||
        facts.bounced || facts.flush_cycle != 0) {
      ++it;
      continue;
    }
    facts.flush_cycle = now;
    if (facts.unmap_cycle == 0) {
      // Still mapped: the invalidation precedes the unmap edge (a strict
      // unmap, or a capacity drain inside the unmap call).
      life.stale_open = now > cost ? now - cost : 0;
      life.stale_reason.assign(reason);
      ++it;
      continue;
    }
    // Unmapped: this invalidation revokes its lingering translation.
    if (life.stale_close == 0) {
      CloseStale(life, now, reason, announcements);
    }
    it = lane.by_iova.erase(it);
    Retire(lane, life);
  }
  Push(lane, record);
  Announce(announcements);
}

void FlightRecorder::RecordAccess(DeviceId device, Iova iova, uint64_t gpa, uint64_t len,
                                  bool is_write) {
  FlightRecord record{.device = device.value,
                      .op = is_write ? RecordOp::kDeviceWrite : RecordOp::kDeviceRead,
                      .iova = iova.value, .gpa = gpa, .len = len};
  Lane& lane = LaneFor(device);
  if (Life* life = FindLive(lane, iova.value); life != nullptr) {
    ++life->facts.accesses;
    record.generation = life->facts.generation;
  }
  Push(lane, record);
}

void FlightRecorder::RecordStaleHit(DeviceId device, Iova page_iova, uint64_t gpa) {
  FlightRecord record{.device = device.value, .op = RecordOp::kStaleHit,
                      .iova = page_iova.value, .gpa = gpa, .len = kPageSize};
  Lane& lane = LaneFor(device);
  if (Life* life = FindPending(lane, page_iova.value); life != nullptr) {
    if (life->facts.stale_hits++ == 0) {
      life->first_hit_cycle = clock_->now();
    }
    record.generation = life->facts.generation;
  }
  Push(lane, record);
  if (record.generation != 0 && tracer_ != nullptr && tracer_->hub().enabled()) {
    ++metrics_.stale_hits.in(tracer_->hub());
  }
}

void FlightRecorder::RecordFault(DeviceId device, Iova iova, uint64_t len, bool is_write) {
  FlightRecord record{.device = device.value, .op = RecordOp::kFault,
                      .dir = static_cast<uint8_t>(is_write ? 1 : 0), .iova = iova.value,
                      .len = len};
  Push(LaneFor(device), record);
}

void FlightRecorder::RecordSync(DeviceId device, Iova iova, uint64_t len, uint8_t dir,
                                bool for_cpu, bool bounced) {
  FlightRecord record{.device = device.value,
                      .op = for_cpu ? RecordOp::kSyncCpu : RecordOp::kSyncDevice, .dir = dir,
                      .bounced = bounced, .iova = iova.value, .len = len};
  Lane& lane = LaneFor(device);
  if (Life* life = FindLive(lane, iova.value); life != nullptr) {
    record.generation = life->facts.generation;
    record.gpa = life->facts.kva;
  }
  Push(lane, record);
}

void FlightRecorder::OnEvent(const telemetry::Event& event) {
  const bool dkasan = event.kind == telemetry::EventKind::kDkasanReport;
  // The most recently opened window still open; else the most recent
  // stale window of any state (the detector may fire right after a flush
  // closed the window it caught).
  Life* target = nullptr;
  uint64_t open_cycle = 0;
  if (newest_open_ != nullptr) {
    target = newest_open_;
    open_cycle = target->stale_open;
  } else if (last_stale_generation_ != 0) {
    open_cycle = last_stale_open_;
    // Generations only grow, so a slot evicted and reused never matches.
    if (last_stale_->facts.generation == last_stale_generation_) {
      target = last_stale_;
    }
  } else {
    return;
  }
  const uint64_t latency = event.cycle > open_cycle ? event.cycle - open_cycle : 0;
  if (target != nullptr) {
    target->detected = true;
  }
  // D-KASAN is a runtime detector: its report ends the exploitable
  // interval (the kernel now knows). A SPADE finding cannot invalidate a
  // live translation, so the window stays open.
  std::vector<Announcement> announcements = TakeAnnouncements();
  if (dkasan && target != nullptr && target->stale_close == 0) {
    CloseStale(*target, event.cycle, "detected:dkasan", announcements);
  }
  (dkasan ? detect_latency_dkasan_ : detect_latency_spade_).Record(latency);
  if (tracer_ != nullptr && tracer_->hub().enabled()) {
    telemetry::Hub& hub = tracer_->hub();
    (dkasan ? metrics_.detect_latency_dkasan : metrics_.detect_latency_spade)
        .in(hub)
        .Record(latency);
    ++(dkasan ? metrics_.detected_dkasan : metrics_.detected_spade).in(hub);
  }
  Announce(announcements);
}

void FlightRecorder::Announce(std::vector<Announcement>& announcements) {
  for (Announcement& a : announcements) {
    Window& window = a.window;
    const bool stale = window.kind == WindowKind::kStaleIotlb;
    telemetry::Hub& hub = tracer_->hub();
    const std::string_view kind = stale ? "window.stale" : "window.subpage";
    if (a.open) {
      // Spans cannot be backdated, so only windows that open now get one.
      window.span = tracer_->OpenDetached(kind, trace::SpanId{hub.current_span()});
      (stale ? a.life->stale_span : a.life->subpage_span) = window.span;
    }
    if (hub.enabled()) {
      if (a.open || a.opened_closed) {
        ++(stale ? metrics_.stale_opened : metrics_.subpage_opened).in(hub);
      }
      if (!a.open) {
        ++(stale ? metrics_.stale_closed : metrics_.subpage_closed).in(hub);
        (stale ? metrics_.stale_open_cycles : metrics_.subpage_open_cycles)
            .in(hub)
            .Record(window.duration());
      }
    }
    PublishWindowEvent(window, a.open);
    if (!a.open && window.span.valid()) {
      tracer_->Close(window.span);
    }
  }
  announcements.clear();
  announcements_ = std::move(announcements);
}

void FlightRecorder::PublishWindowEvent(const Window& window, bool open) {
  telemetry::Hub& hub = tracer_->hub();
  if (!hub.active()) {
    return;
  }
  const bool stale = window.kind == WindowKind::kStaleIotlb;
  // Every field but seq, cycle and addr (always 0) is set here; the site is
  // assigned into the Event's own buffer.
  telemetry::Event& event = window_event_;
  event.kind = open ? telemetry::EventKind::kWindowOpen : telemetry::EventKind::kWindowClose;
  event.severity = stale ? telemetry::Severity::kInfo : telemetry::Severity::kTrace;
  event.device = window.device;
  event.addr2 = window.iova_page;
  event.len = window.pages << kPageShift;
  event.aux = open ? window.exposed_bytes : window.duration();
  event.flag = window.detected;
  event.span = window.span.value;  // 0 lets the Hub stamp the current span
  event.site.assign(stale ? "window.stale" : "window.subpage");
  if (!open && !window.close_reason.empty()) {
    event.site += ':';
    event.site += window.close_reason;
  }
  hub.Publish(event);
}

std::vector<FlightRecord> FlightRecorder::SnapshotTimeline(DeviceId device) const {
  const Lane* lane = FindLane(device);
  if (lane == nullptr) {
    return {};
  }
  std::vector<FlightRecord> merged;
  for (const Ring& ring : lane->rings) {
    ring.AppendTo(merged, config_.ring_capacity);
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const FlightRecord& a, const FlightRecord& b) {
                     if (a.cycle != b.cycle) {
                       return a.cycle < b.cycle;
                     }
                     if (a.cpu != b.cpu) {
                       return a.cpu < b.cpu;
                     }
                     return a.seq < b.seq;
                   });
  return merged;
}

std::vector<MappingLife> FlightRecorder::SnapshotLedger(DeviceId device) const {
  const Lane* lane = FindLane(device);
  std::vector<MappingLife> out;
  if (lane != nullptr) {
    out.reserve(lane->retained);
    for (const Life& life : lane->pool) {
      if (life.facts.generation != 0) {
        out.push_back(life.facts);
      }
    }
    std::sort(out.begin(), out.end(), [](const MappingLife& a, const MappingLife& b) {
      return a.generation < b.generation;
    });
  }
  return out;
}

std::vector<Window> FlightRecorder::SnapshotWindows(DeviceId device) const {
  const Lane* lane = FindLane(device);
  if (lane == nullptr) {
    return {};
  }
  std::vector<std::pair<uint64_t, Window>> ordered;
  for (const Life& life : lane->pool) {
    if (life.subpage_seq != 0) {
      ordered.emplace_back(life.subpage_seq, SubPageView(life));
    }
    if (life.stale_seq != 0) {
      ordered.emplace_back(life.stale_seq, StaleView(life));
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Window> out;
  out.reserve(ordered.size());
  for (auto& [seq, window] : ordered) {
    out.push_back(std::move(window));
  }
  return out;
}

size_t FlightRecorder::open_windows(WindowKind kind) const {
  return kind == WindowKind::kStaleIotlb ? stale_windows_open_ : subpage_windows_open_;
}

template <typename Fn>
uint64_t FlightRecorder::SumRings(Fn per_ring) const {
  uint64_t total = 0;
  for (const auto& [device, lane] : lanes_) {
    for (const Ring& ring : lane.rings) {
      total += per_ring(ring);
    }
  }
  return total;
}

uint64_t FlightRecorder::total_recorded() const {
  return SumRings([](const Ring& ring) { return ring.next_seq; });
}

uint64_t FlightRecorder::total_dropped() const {
  return SumRings([](const Ring& ring) { return ring.dropped_info + ring.dropped_critical; });
}

uint64_t FlightRecorder::total_dropped_critical() const {
  return SumRings([](const Ring& ring) { return ring.dropped_critical; });
}

uint64_t FlightRecorder::ledger_dropped() const {
  uint64_t total = 0;
  for (const auto& [device, lane] : lanes_) {
    total += lane.dropped;
  }
  return total;
}

std::string FlightRecorder::AccountingJson() const {
  json::Writer w;
  w.BeginObject().Key("ring_capacity").Uint(config_.ring_capacity);
  w.Key("ledger_capacity").Uint(config_.ledger_capacity).Key("rings").BeginArray();
  // Lanes in device order, rings in CPU order: deterministic output.
  const std::vector<std::pair<uint32_t, const Lane*>> lanes = LanesByDevice();
  for (const auto& [device, lane] : lanes) {
    for (size_t cpu = 0; cpu < lane->rings.size(); ++cpu) {
      const Ring& ring = lane->rings[cpu];
      if (ring.next_seq == 0) {
        continue;  // untouched rings stay out of the report
      }
      w.BeginObject().Key("device").Uint(device).Key("cpu").Uint(cpu);
      w.Key("recorded").Uint(ring.next_seq);
      w.Key("dropped").Uint(ring.dropped_info + ring.dropped_critical);
      w.Key("dropped_critical").Uint(ring.dropped_critical).EndObject();
    }
  }
  w.EndArray().Key("ledgers").BeginArray();
  for (const auto& [device, lane] : lanes) {
    w.BeginObject().Key("device").Uint(device).Key("lives").Uint(lane->next_generation - 1);
    w.Key("retained").Uint(lane->retained).Key("dropped").Uint(lane->dropped);
    w.EndObject();
  }
  return w.EndArray().EndObject().Take();
}

}  // namespace spv::forensics
