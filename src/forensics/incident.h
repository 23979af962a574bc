// spv::forensics — the incident engine (ISSUE 9 tentpole, part 2).
//
// An EventSink on the telemetry hub that turns a detector firing into a
// frozen, deterministic JSON *incident report*. Trigger kinds — D-KASAN
// reports, SPADE findings, stale-IOTLB hits, health breaches, quarantines,
// trust demotions — freeze the flight recorder's evidence for the implicated
// device at that instant: the reconstructed access timeline, the implicated
// mapping's full map→access→unmap→flush lifecycle, the windows of the
// device's lives that overlapped the timeline, the trust-ladder and recovery
// state at trigger time, and an attack-class inference labeling the incident
// as paper type (a)–(d), poisoned completion, or unknown — from recorded
// evidence alone, never from detector-internal state.
//
// Classifier rules, applied in order (first match wins):
//   1. poisoned_completion — the timeline holds a stale-IOTLB hit: a
//      translation was served after its mapping's unmap (the Fig. 6 window
//      the deferred-completion storage attack rides).
//   2. class_c — two mapping lives shared a physical (KVA) page under
//      distinct IOVA pages with overlapping lifetimes, and after the older
//      life's unmap the device reached bytes in the *older* life's sub-page
//      range through the survivor's IOVA page (the double-mapping alias).
//   3. class_a — a device WRITE with no owning mapping landed inside the
//      IOVA page of a live mapping but outside its byte range: the
//      off-the-end sub-page corruption of a co-located neighbour.
//   4. class_b / class_d — the READ analogue (sub-page co-location harvest);
//      split on the implicated mapping's provenance: a page-frag-carved
//      metadata segment (site mentions prp/seg/frag, or a tiny buffer)
//      means the PRP/page_frag class (b), anything else the slab
//      co-location exfiltration class (d).
//   5. unknown.
//
// Trust and recovery snapshots arrive through injected std::function
// providers, so spv_forensics never links spv_policy / spv_recovery — the
// Machine wires lambdas over whatever engines it actually runs.
//
// Rate limiting: a global cap of kMaxIncidents (32) reports plus a
// per-(device, trigger) cooldown of kCooldownCycles (200,000 sim cycles;
// both in incident.cc), so a stale-hit storm yields one report, not one per
// access. Manual OpenIncident() lets an operator (or a test replaying an
// attack that fires no automatic detector) freeze evidence on demand.

#ifndef SPV_FORENSICS_INCIDENT_H_
#define SPV_FORENSICS_INCIDENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/clock.h"
#include "base/types.h"
#include "forensics/flight_recorder.h"
#include "telemetry/telemetry.h"

namespace spv::forensics {

enum class AttackClass : uint8_t {
  kUnknown = 0,
  kClassA,              // sub-page off-the-end write (neighbour corruption)
  kClassB,              // PRP/page_frag metadata segment co-location read
  kClassC,              // one physical page under two IOVAs (double mapping)
  kClassD,              // slab co-location page-wide exfiltration read
  kPoisonedCompletion,  // completion forged, data phase rode a stale window
};

std::string_view AttackClassName(AttackClass c);

// Evidence-only classification; exposed for tests. `implicated_out` (may be
// null) receives the index into `ledger` of the implicated mapping life, or
// SIZE_MAX when no life could be attributed.
AttackClass ClassifyEvidence(const std::vector<FlightRecord>& timeline,
                             const std::vector<MappingLife>& ledger,
                             size_t* implicated_out);

struct Incident {
  uint64_t id = 0;
  uint64_t cycle = 0;    // trigger time (sim cycles)
  uint32_t device = 0;
  std::string trigger;   // telemetry kind name, or "manual"
  std::string reason;    // trigger event site / operator reason
  AttackClass inferred = AttackClass::kUnknown;
  size_t implicated = SIZE_MAX;          // index into `ledger`
  std::vector<FlightRecord> timeline;    // last kTimelineLimit (96) records
  std::vector<MappingLife> ledger;       // full ledger snapshot at freeze
  // Frozen JSON values, embedded with json::Writer::Raw ("" reads as null).
  std::string windows_json;              // windows overlapping the timeline
  std::string trust_json;                // "" without a policy engine
  std::string recovery_json;             // "" without a recovery manager
};

class IncidentEngine : public telemetry::EventSink {
 public:
  // Returns a serialized JSON value describing the device's state in the
  // providing subsystem, or "" (reported as null) when it has none.
  using StateSnapshotFn = std::function<std::string(uint32_t device)>;

  // `recorder` and `clock` must outlive the engine. The engine does not add
  // itself to the hub — the owner wires AddSink/RemoveSink.
  IncidentEngine(telemetry::Hub& hub, FlightRecorder& recorder, const SimClock* clock);

  void set_trust_provider(StateSnapshotFn fn) { trust_ = std::move(fn); }
  void set_recovery_provider(StateSnapshotFn fn) { recovery_ = std::move(fn); }

  // The triggers: detector findings, stale-IOTLB hits, health breaches,
  // quarantines and demotions (never its own kIncidentOpen/kIncidentReport).
  void OnEvent(const telemetry::Event& event) override;
  telemetry::KindSet kinds() const override;

  // Operator-initiated freeze: same evidence pipeline, trigger "manual".
  // Bypasses the cooldown (an explicit ask is never rate-limited) but not
  // the kMaxIncidents cap.
  void OpenIncident(DeviceId device, std::string_view reason);

  size_t incident_count() const;
  uint64_t suppressed() const;  // triggers dropped by cooldown / cap

  // Deterministic exports: fixed field order, integers, sim-cycle timebase.
  // ReportsJson is the full document ({"count","suppressed","incidents":[…],
  // "recorder":{…}}); SummaryJson the per-trigger / per-class rollup the
  // soak report embeds.
  std::string ReportsJson() const;
  std::string SummaryJson() const;

 private:
  void Freeze(DeviceId device, std::string_view trigger, std::string_view reason,
              bool manual);
  std::string WindowsJson(DeviceId device, uint64_t from_cycle,
                          uint64_t to_cycle) const;

  telemetry::Hub& hub_;
  FlightRecorder& recorder_;
  const SimClock* clock_;
  StateSnapshotFn trust_;
  StateSnapshotFn recovery_;

  std::vector<Incident> incidents_;
  std::map<std::pair<uint32_t, std::string>, uint64_t> last_trigger_cycle_;
  uint64_t next_id_ = 1;
  uint64_t suppressed_ = 0;
};

}  // namespace spv::forensics

#endif  // SPV_FORENSICS_INCIDENT_H_
