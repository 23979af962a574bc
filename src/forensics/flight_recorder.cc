#include "forensics/flight_recorder.h"

#include <algorithm>

#include "base/json.h"

namespace spv::forensics {

namespace {

// Scoped atomic_flag spinlock (the Histogram::Record idiom): ~1 uncontended
// RMW on the hot path, TSan-visible acquire/release edges.
class SpinGuard {
 public:
  explicit SpinGuard(std::atomic_flag& flag) : flag_(flag) {
    while (flag_.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~SpinGuard() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag& flag_;
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

FlightRecorder::FlightRecorder(const SimClock* clock, ForensicsConfig config,
                               uint32_t num_cpus)
    : clock_(clock), config_(config), num_cpus_(num_cpus) {
  if (config_.ring_capacity == 0) {
    config_.ring_capacity = 1;
  }
  if (config_.ledger_capacity == 0) {
    config_.ledger_capacity = 1;
  }
}

void FlightRecorder::Ring::Push(const FlightRecord& record) {
  SpinGuard guard(lock);
  const size_t capacity = slots.size();
  if (next_seq >= capacity) {
    // Overwriting the oldest live record: account the drop by what is being
    // *lost*, so a ring churning device reads cannot silently swallow a
    // fault or stale hit — the trace-ring `dropped_critical` parity.
    const FlightRecord& lost = slots[next_seq % capacity];
    if (RecordOpCritical(lost.op)) {
      ++dropped_critical;
    } else {
      ++dropped_info;
    }
  }
  FlightRecord stamped = record;
  stamped.seq = next_seq;
  slots[next_seq % capacity] = stamped;
  ++next_seq;
}

std::vector<FlightRecord> FlightRecorder::Ring::Snapshot() const {
  SpinGuard guard(lock);
  const size_t capacity = slots.size();
  const uint64_t live = next_seq < capacity ? next_seq : capacity;
  std::vector<FlightRecord> out;
  out.reserve(live);
  for (uint64_t i = next_seq - live; i < next_seq; ++i) {
    out.push_back(slots[i % capacity]);
  }
  return out;
}

FlightRecorder::Lane& FlightRecorder::LaneFor(DeviceId device) {
  SpinGuard guard(lanes_lock_);
  std::unique_ptr<Lane>& slot = lanes_[device.value];
  if (slot == nullptr) {
    slot = std::make_unique<Lane>();
    slot->rings.reserve(num_cpus_);
    for (uint32_t c = 0; c < num_cpus_; ++c) {
      slot->rings.push_back(std::make_unique<Ring>(config_.ring_capacity));
    }
  }
  return *slot;
}

const FlightRecorder::Lane* FlightRecorder::FindLane(DeviceId device) const {
  SpinGuard guard(lanes_lock_);
  const auto it = lanes_.find(device.value);
  return it == lanes_.end() ? nullptr : it->second.get();
}

FlightRecorder::Ring& FlightRecorder::RingFor(Lane& lane) const {
  return *lane.rings[CurrentCpu().value % lane.rings.size()];
}

void FlightRecorder::Push(Lane& lane, FlightRecord record) {
  record.cycle = clock_->now();
  record.cpu = CurrentCpu().value;
  RingFor(lane).Push(record);
}

void FlightRecorder::RecordMap(DeviceId device, Iova iova, Kva kva, uint64_t len,
                               uint8_t dir, bool bounced, std::string_view site) {
  Lane& lane = LaneFor(device);
  FlightRecord record;
  record.device = device.value;
  record.op = RecordOp::kMap;
  record.dir = dir;
  record.bounced = bounced;
  record.iova = iova.value;
  record.gpa = kva.value;
  record.len = len;
  {
    SpinGuard guard(lane.ledger_lock);
    record.generation = lane.next_generation++;
    MappingLife life;
    life.generation = record.generation;
    life.device = device.value;
    life.iova = iova.value;
    life.kva = kva.value;
    life.len = len;
    life.dir = dir;
    life.bounced = bounced;
    life.site.assign(site);
    life.map_cycle = clock_->now();
    if (lane.ledger.size() >= config_.ledger_capacity) {
      lane.ledger.pop_front();
      ++lane.ledger_dropped;
    }
    lane.ledger.push_back(std::move(life));
  }
  Push(lane, record);
}

void FlightRecorder::RecordUnmap(DeviceId device, Iova iova, uint64_t len,
                                 uint8_t dir, bool bounced) {
  Lane& lane = LaneFor(device);
  FlightRecord record;
  record.device = device.value;
  record.op = RecordOp::kUnmap;
  record.dir = dir;
  record.bounced = bounced;
  record.iova = iova.value;
  record.len = len;
  {
    SpinGuard guard(lane.ledger_lock);
    // Latest live life at this IOVA — reverse scan so remap-at-same-IOVA
    // retires the newest generation first.
    for (auto it = lane.ledger.rbegin(); it != lane.ledger.rend(); ++it) {
      if (it->unmap_cycle == 0 && it->iova == iova.value) {
        it->unmap_cycle = clock_->now();
        record.generation = it->generation;
        record.gpa = it->kva;
        break;
      }
    }
  }
  Push(lane, record);
}

void FlightRecorder::RecordAccess(DeviceId device, Iova iova, uint64_t gpa,
                                  uint64_t len, bool is_write) {
  Lane& lane = LaneFor(device);
  FlightRecord record;
  record.device = device.value;
  record.op = is_write ? RecordOp::kDeviceWrite : RecordOp::kDeviceRead;
  record.iova = iova.value;
  record.gpa = gpa;
  record.len = len;
  {
    SpinGuard guard(lane.ledger_lock);
    for (auto it = lane.ledger.rbegin(); it != lane.ledger.rend(); ++it) {
      if (it->unmap_cycle == 0 && iova.value >= it->iova &&
          iova.value < it->iova + it->len) {
        ++it->accesses;
        record.generation = it->generation;
        break;
      }
    }
  }
  Push(lane, record);
}

void FlightRecorder::RecordStaleHit(DeviceId device, Iova page_iova, uint64_t gpa) {
  Lane& lane = LaneFor(device);
  FlightRecord record;
  record.device = device.value;
  record.op = RecordOp::kStaleHit;
  record.iova = page_iova.value;
  record.gpa = gpa;
  record.len = kPageSize;
  {
    SpinGuard guard(lane.ledger_lock);
    // The life this translation belonged to: latest *unmapped* entry whose
    // page covers the faulting page (the stale window's owner).
    for (auto it = lane.ledger.rbegin(); it != lane.ledger.rend(); ++it) {
      const uint64_t first_page = it->iova & ~kPageMask;
      const uint64_t last_page = (it->iova + (it->len ? it->len - 1 : 0)) & ~kPageMask;
      if (it->unmap_cycle != 0 && page_iova.value >= first_page &&
          page_iova.value <= last_page) {
        ++it->stale_hits;
        record.generation = it->generation;
        break;
      }
    }
  }
  Push(lane, record);
}

void FlightRecorder::RecordFault(DeviceId device, Iova iova, uint64_t len,
                                 bool is_write) {
  Lane& lane = LaneFor(device);
  FlightRecord record;
  record.device = device.value;
  record.op = RecordOp::kFault;
  record.dir = is_write ? 1 : 0;
  record.iova = iova.value;
  record.len = len;
  Push(lane, record);
}

void FlightRecorder::RecordSync(DeviceId device, Iova iova, uint64_t len,
                                uint8_t dir, bool for_cpu, bool bounced) {
  Lane& lane = LaneFor(device);
  FlightRecord record;
  record.device = device.value;
  record.op = for_cpu ? RecordOp::kSyncCpu : RecordOp::kSyncDevice;
  record.dir = dir;
  record.bounced = bounced;
  record.iova = iova.value;
  record.len = len;
  {
    SpinGuard guard(lane.ledger_lock);
    // Latest live life covering the sync'd range — syncs never retire a
    // life, they just stamp which generation the handoff belonged to.
    for (auto it = lane.ledger.rbegin(); it != lane.ledger.rend(); ++it) {
      if (it->unmap_cycle == 0 && iova.value >= it->iova &&
          iova.value < it->iova + it->len) {
        record.generation = it->generation;
        record.gpa = it->kva;
        break;
      }
    }
  }
  Push(lane, record);
}

void FlightRecorder::RecordFlush(DeviceId device, Iova page_iova, uint64_t pages) {
  Lane& lane = LaneFor(device);
  FlightRecord record;
  record.device = device.value;
  record.op = RecordOp::kFlush;
  record.iova = page_iova.value;
  record.len = pages << kPageShift;
  {
    SpinGuard guard(lane.ledger_lock);
    const uint64_t flush_base = page_iova.value;
    const uint64_t flush_end = flush_base + (pages << kPageShift);
    for (MappingLife& life : lane.ledger) {
      if (life.unmap_cycle != 0 && life.flush_cycle == 0 &&
          life.iova < flush_end && life.iova + life.len > flush_base) {
        life.flush_cycle = clock_->now();
      }
    }
  }
  Push(lane, record);
}

std::vector<FlightRecord> FlightRecorder::SnapshotTimeline(DeviceId device) const {
  const Lane* lane = FindLane(device);
  if (lane == nullptr) {
    return {};
  }
  std::vector<FlightRecord> merged;
  for (const std::unique_ptr<Ring>& ring : lane->rings) {
    std::vector<FlightRecord> part = ring->Snapshot();
    merged.insert(merged.end(), part.begin(), part.end());
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
  if (lane == nullptr) {
    return {};
  }
  SpinGuard guard(lane->ledger_lock);
  return std::vector<MappingLife>(lane->ledger.begin(), lane->ledger.end());
}

uint64_t FlightRecorder::total_recorded() const {
  SpinGuard guard(lanes_lock_);
  uint64_t total = 0;
  for (const auto& [device, lane] : lanes_) {
    for (const std::unique_ptr<Ring>& ring : lane->rings) {
      SpinGuard ring_guard(ring->lock);
      total += ring->next_seq;
    }
  }
  return total;
}

uint64_t FlightRecorder::total_dropped() const {
  SpinGuard guard(lanes_lock_);
  uint64_t total = 0;
  for (const auto& [device, lane] : lanes_) {
    for (const std::unique_ptr<Ring>& ring : lane->rings) {
      SpinGuard ring_guard(ring->lock);
      total += ring->dropped_info + ring->dropped_critical;
    }
  }
  return total;
}

uint64_t FlightRecorder::total_dropped_critical() const {
  SpinGuard guard(lanes_lock_);
  uint64_t total = 0;
  for (const auto& [device, lane] : lanes_) {
    for (const std::unique_ptr<Ring>& ring : lane->rings) {
      SpinGuard ring_guard(ring->lock);
      total += ring->dropped_critical;
    }
  }
  return total;
}

uint64_t FlightRecorder::ledger_dropped() const {
  SpinGuard guard(lanes_lock_);
  uint64_t total = 0;
  for (const auto& [device, lane] : lanes_) {
    SpinGuard ledger_guard(lane->ledger_lock);
    total += lane->ledger_dropped;
  }
  return total;
}

std::string FlightRecorder::AccountingJson() const {
  SpinGuard guard(lanes_lock_);
  json::Writer w;
  w.BeginObject().Key("ring_capacity").Uint(config_.ring_capacity);
  w.Key("ledger_capacity").Uint(config_.ledger_capacity).Key("rings").BeginArray();
  // lanes_ is an ordered map, rings are CPU-ordered: deterministic output.
  for (const auto& [device, lane] : lanes_) {
    for (size_t cpu = 0; cpu < lane->rings.size(); ++cpu) {
      const Ring& ring = *lane->rings[cpu];
      SpinGuard ring_guard(ring.lock);
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
  for (const auto& [device, lane] : lanes_) {
    SpinGuard ledger_guard(lane->ledger_lock);
    w.BeginObject().Key("device").Uint(device).Key("lives").Uint(lane->next_generation - 1);
    w.Key("retained").Uint(lane->ledger.size()).Key("dropped").Uint(lane->ledger_dropped);
    w.EndObject();
  }
  return w.EndArray().EndObject().Take();
}

}  // namespace spv::forensics
