#include "forensics/incident.h"

#include <algorithm>

#include "base/json.h"

namespace spv::forensics {

namespace {

constexpr size_t kMaxIncidents = 32;            // hard cap on frozen reports
constexpr uint64_t kCooldownCycles = 200'000;   // per (device, trigger) rate limit
constexpr size_t kTimelineLimit = 96;           // records exported per report

bool LifetimesOverlap(const MappingLife& a, const MappingLife& b) {
  const uint64_t a_end = a.unmap_cycle == 0 ? UINT64_MAX : a.unmap_cycle;
  const uint64_t b_end = b.unmap_cycle == 0 ? UINT64_MAX : b.unmap_cycle;
  return a.map_cycle <= b_end && b.map_cycle <= a_end;
}

bool LiveAt(const MappingLife& life, uint64_t cycle) {
  return life.map_cycle <= cycle &&
         (life.unmap_cycle == 0 || cycle <= life.unmap_cycle);
}

// The sub-page byte range a life occupies inside its first KVA page.
void SubPageRange(const MappingLife& life, uint64_t* begin, uint64_t* end) {
  *begin = life.kva & kPageMask;
  const uint64_t span = *begin + life.len;
  *end = span < kPageSize ? span : kPageSize;
}

// Provenance split for the out-of-range READ classes: a metadata segment
// carved from the page-frag pool (PRP lists and kin) names class (b); a
// plain co-located slab buffer names class (d).
bool LooksLikeMetaSegment(const MappingLife& life) {
  if (life.len != 0 && life.len <= 256) {
    return true;
  }
  return life.site.find("prp") != std::string::npos ||
         life.site.find("seg") != std::string::npos ||
         life.site.find("frag") != std::string::npos;
}

void AppendRecordJson(json::Writer& w, const FlightRecord& r) {
  w.BeginObject().Key("cycle").Uint(r.cycle).Key("cpu").Uint(r.cpu);
  w.Key("op").String(RecordOpName(r.op)).Key("iova").Uint(r.iova).Key("gpa").Uint(r.gpa);
  w.Key("len").Uint(r.len).Key("dir").Uint(r.dir).Key("bounced").Bool(r.bounced);
  w.Key("generation").Uint(r.generation).EndObject();
}

void AppendLifeJson(json::Writer& w, const MappingLife& life) {
  w.BeginObject().Key("generation").Uint(life.generation).Key("iova").Uint(life.iova);
  w.Key("kva").Uint(life.kva).Key("len").Uint(life.len).Key("dir").Uint(life.dir);
  w.Key("bounced").Bool(life.bounced).Key("site").String(life.site);
  w.Key("map_cycle").Uint(life.map_cycle).Key("unmap_cycle").Uint(life.unmap_cycle);
  w.Key("flush_cycle").Uint(life.flush_cycle).Key("accesses").Uint(life.accesses);
  w.Key("stale_hits").Uint(life.stale_hits).EndObject();
}

}  // namespace

std::string_view AttackClassName(AttackClass c) {
  switch (c) {
    case AttackClass::kUnknown:
      return "unknown";
    case AttackClass::kClassA:
      return "class_a";
    case AttackClass::kClassB:
      return "class_b";
    case AttackClass::kClassC:
      return "class_c";
    case AttackClass::kClassD:
      return "class_d";
    case AttackClass::kPoisonedCompletion:
      return "poisoned_completion";
  }
  return "unknown";
}

AttackClass ClassifyEvidence(const std::vector<FlightRecord>& timeline,
                             const std::vector<MappingLife>& ledger,
                             size_t* implicated_out) {
  size_t implicated = SIZE_MAX;
  if (implicated_out != nullptr) {
    *implicated_out = SIZE_MAX;
  }

  auto find_generation = [&](uint64_t generation) -> size_t {
    for (size_t i = 0; i < ledger.size(); ++i) {
      if (ledger[i].generation == generation) {
        return i;
      }
    }
    return SIZE_MAX;
  };

  // Rule 1 — a translation served after its unmap is the stale window the
  // poisoned-completion storage attack (and the Fig. 6 replay) rides.
  for (auto it = timeline.rbegin(); it != timeline.rend(); ++it) {
    if (it->op == RecordOp::kStaleHit) {
      if (implicated_out != nullptr) {
        *implicated_out = find_generation(it->generation);
      }
      return AttackClass::kPoisonedCompletion;
    }
  }

  // Rule 2 — double mapping: lives A (retired) and B (the survivor) shared a
  // KVA page under distinct IOVA pages, and after A's unmap the device
  // reached A's sub-page byte range through B's IOVA page.
  for (size_t a = 0; a < ledger.size(); ++a) {
    const MappingLife& dead = ledger[a];
    if (dead.unmap_cycle == 0) {
      continue;
    }
    for (size_t b = 0; b < ledger.size(); ++b) {
      const MappingLife& alias = ledger[b];
      if (a == b || (dead.kva & ~kPageMask) != (alias.kva & ~kPageMask) ||
          (dead.iova & ~kPageMask) == (alias.iova & ~kPageMask) ||
          !LifetimesOverlap(dead, alias)) {
        continue;
      }
      uint64_t dead_begin = 0;
      uint64_t dead_end = 0;
      SubPageRange(dead, &dead_begin, &dead_end);
      for (const FlightRecord& r : timeline) {
        if ((r.op != RecordOp::kDeviceRead && r.op != RecordOp::kDeviceWrite) ||
            r.cycle < dead.unmap_cycle || !LiveAt(alias, r.cycle) ||
            (r.iova & ~kPageMask) != (alias.iova & ~kPageMask)) {
          continue;
        }
        const uint64_t off = r.iova & kPageMask;
        if (off < dead_end && off + r.len > dead_begin) {
          if (implicated_out != nullptr) {
            *implicated_out = b;
          }
          return AttackClass::kClassC;
        }
      }
    }
  }

  // Rules 3/4 — ownerless accesses touching a live mapping's IOVA page: the
  // sub-page co-location classes. generation == 0 already means no live
  // mapping contained the access, so any overlap with a live life's page is
  // by definition a reach *outside* that life's byte range — both the
  // disjoint probe (WriteU64 off the end) and the page-wide scan
  // (ReadPageQwords) that spans the mapped bytes and their neighbours.
  auto out_of_range_neighbour = [&](const FlightRecord& r) -> size_t {
    if (r.generation != 0) {
      return SIZE_MAX;  // served by a live mapping: in-range traffic
    }
    for (size_t i = 0; i < ledger.size(); ++i) {
      const MappingLife& life = ledger[i];
      if (LiveAt(life, r.cycle) &&
          (life.iova & ~kPageMask) == (r.iova & ~kPageMask)) {
        return i;
      }
    }
    return SIZE_MAX;
  };
  for (auto it = timeline.rbegin(); it != timeline.rend(); ++it) {
    if (it->op != RecordOp::kDeviceWrite) {
      continue;
    }
    if (const size_t neighbour = out_of_range_neighbour(*it); neighbour != SIZE_MAX) {
      if (implicated_out != nullptr) {
        *implicated_out = neighbour;
      }
      return AttackClass::kClassA;
    }
  }
  for (auto it = timeline.rbegin(); it != timeline.rend(); ++it) {
    if (it->op != RecordOp::kDeviceRead) {
      continue;
    }
    if (const size_t neighbour = out_of_range_neighbour(*it); neighbour != SIZE_MAX) {
      if (implicated_out != nullptr) {
        *implicated_out = neighbour;
      }
      return LooksLikeMetaSegment(ledger[neighbour]) ? AttackClass::kClassB
                                                     : AttackClass::kClassD;
    }
  }

  if (implicated_out != nullptr) {
    *implicated_out = implicated;
  }
  return AttackClass::kUnknown;
}

IncidentEngine::IncidentEngine(telemetry::Hub& hub, FlightRecorder& recorder,
                               const SimClock* clock)
    : hub_(hub), recorder_(recorder), clock_(clock) {}

telemetry::KindSet IncidentEngine::kinds() const {
  using telemetry::EventKind;
  return {EventKind::kDkasanReport,  EventKind::kSpadeFinding,      EventKind::kStaleIotlbHit,
          EventKind::kHealthBreach,  EventKind::kDeviceQuarantined, EventKind::kTrustDemoted};
}

void IncidentEngine::OnEvent(const telemetry::Event& event) {
  Freeze(DeviceId{event.device}, telemetry::EventKindName(event.kind), event.site,
         /*manual=*/false);
}

void IncidentEngine::OpenIncident(DeviceId device, std::string_view reason) {
  Freeze(device, "manual", reason, /*manual=*/true);
}

void IncidentEngine::Freeze(DeviceId device, std::string_view trigger,
                            std::string_view reason, bool manual) {
  const uint64_t now = clock_->now();
  if (incidents_.size() >= kMaxIncidents) {
    ++suppressed_;
    return;
  }
  if (!manual) {
    const auto key = std::make_pair(device.value, std::string(trigger));
    const auto it = last_trigger_cycle_.find(key);
    if (it != last_trigger_cycle_.end() && now - it->second < kCooldownCycles) {
      ++suppressed_;
      return;
    }
    last_trigger_cycle_[key] = now;
  }

  Incident incident;
  incident.id = next_id_++;
  incident.cycle = now;
  incident.device = device.value;
  incident.trigger.assign(trigger);
  incident.reason.assign(reason);
  std::vector<FlightRecord> full = recorder_.SnapshotTimeline(device);
  incident.ledger = recorder_.SnapshotLedger(device);
  incident.inferred = ClassifyEvidence(full, incident.ledger, &incident.implicated);
  if (full.size() > kTimelineLimit) {
    full.erase(full.begin(), full.end() - kTimelineLimit);
  }
  incident.timeline = std::move(full);
  const uint64_t from =
      incident.timeline.empty() ? now : incident.timeline.front().cycle;
  incident.windows_json = WindowsJson(device, from, now);
  incident.trust_json = trust_ ? trust_(device.value) : "";
  incident.recovery_json = recovery_ ? recovery_(device.value) : "";

  const uint64_t id = incident.id;
  const AttackClass inferred = incident.inferred;
  incidents_.push_back(std::move(incident));

  // Announce on the bus once the report is stored.
  if (hub_.active()) {
    telemetry::Event open;
    open.kind = telemetry::EventKind::kIncidentOpen;
    open.severity = telemetry::Severity::kWarn;
    open.device = device.value;
    open.aux = id;
    open.flag = manual;
    open.site.assign(trigger);
    hub_.Publish(open);

    telemetry::Event sealed;
    sealed.kind = telemetry::EventKind::kIncidentReport;
    sealed.severity = telemetry::Severity::kCritical;
    sealed.device = device.value;
    sealed.aux = static_cast<uint64_t>(inferred);
    sealed.flag = manual;
    sealed.site.assign(AttackClassName(inferred));
    hub_.Publish(sealed);
  }
}

std::string IncidentEngine::WindowsJson(DeviceId device, uint64_t from_cycle,
                                        uint64_t to_cycle) const {
  json::Writer out;
  out.BeginArray();
  for (const Window& w : recorder_.SnapshotWindows(device)) {
    if (w.open_cycle > to_cycle || (!w.open && w.close_cycle < from_cycle)) {
      continue;
    }
    out.BeginObject().Key("kind").String(WindowKindName(w.kind));
    out.Key("generation").Uint(w.generation).Key("iova_page").Uint(w.iova_page);
    out.Key("pages").Uint(w.pages).Key("exposed_bytes").Uint(w.exposed_bytes);
    out.Key("open_cycle").Uint(w.open_cycle).Key("close_cycle").Uint(w.close_cycle);
    out.Key("open").Bool(w.open).Key("device_hits").Uint(w.device_hits);
    out.Key("detected").Bool(w.detected).Key("close_reason").String(w.close_reason).EndObject();
  }
  return out.EndArray().Take();
}

size_t IncidentEngine::incident_count() const { return incidents_.size(); }

uint64_t IncidentEngine::suppressed() const { return suppressed_; }

std::string IncidentEngine::ReportsJson() const {
  json::Writer w;
  w.BeginObject().Key("count").Uint(incidents_.size()).Key("suppressed").Uint(suppressed_);
  w.Key("incidents").BeginArray();
  for (const Incident& incident : incidents_) {
    w.BeginObject().Key("id").Uint(incident.id).Key("cycle").Uint(incident.cycle);
    w.Key("device").Uint(incident.device).Key("trigger").String(incident.trigger);
    w.Key("reason").String(incident.reason);
    w.Key("inferred_class").String(AttackClassName(incident.inferred)).Key("implicated");
    if (incident.implicated < incident.ledger.size()) {
      AppendLifeJson(w, incident.ledger[incident.implicated]);
    } else {
      w.Null();
    }
    w.Key("timeline").BeginArray();
    for (const FlightRecord& record : incident.timeline) {
      AppendRecordJson(w, record);
    }
    w.EndArray().Key("ledger").BeginArray();
    for (const MappingLife& life : incident.ledger) {
      AppendLifeJson(w, life);
    }
    w.EndArray().Key("windows").Raw(incident.windows_json);
    w.Key("trust").Raw(incident.trust_json).Key("recovery").Raw(incident.recovery_json);
    w.EndObject();
  }
  w.EndArray().Key("recorder").Raw(recorder_.AccountingJson());
  return w.EndObject().Take();
}

std::string IncidentEngine::SummaryJson() const {
  std::map<std::string, uint64_t> by_trigger;
  std::map<std::string, uint64_t> by_class;
  for (const Incident& incident : incidents_) {
    ++by_trigger[incident.trigger];
    ++by_class[std::string(AttackClassName(incident.inferred))];
  }
  json::Writer w;
  w.BeginObject().Key("count").Uint(incidents_.size()).Key("suppressed").Uint(suppressed_);
  w.Key("by_trigger").BeginObject();
  for (const auto& [name, count] : by_trigger) {
    w.Key(name).Uint(count);
  }
  w.EndObject().Key("by_class").BeginObject();
  for (const auto& [name, count] : by_class) {
    w.Key(name).Uint(count);
  }
  return w.EndObject().EndObject().Take();
}

}  // namespace spv::forensics
