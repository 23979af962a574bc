#include "recovery/health.h"

#include <algorithm>
#include <cmath>

#include "base/clock.h"

namespace spv::recovery {

namespace {

// Signal weights, tuned so a handful of security findings (or a sustained
// fault storm) breach while sporadic recoverable faults decay away.
constexpr double kWeightIommuFault = 1.0;
constexpr double kWeightRingReset = 8.0;        // kNicTxReset / kNvmeQueueReset
constexpr double kWeightStaleIotlbHit = 5.0;
constexpr double kWeightDkasanReport = 25.0;
constexpr double kWeightSpadeFinding = 25.0;
constexpr double kWeightBadCompletion = 2.0;    // kNicRxError / kNvmeCompletionError
constexpr double kWeightPollDeadline = 2.0;     // kNicPollDeadline / kNvmePollDeadline
constexpr double kBreachThreshold = 24.0;       // score that triggers quarantine
// Score half-life in simulated cycles: after this long with no new signal,
// half the score is gone.
constexpr uint64_t kHalfLifeCycles = SimClock::MsToCycles(50);

double WeightFor(const telemetry::Event& event) {
  switch (event.kind) {
    case telemetry::EventKind::kIommuFault:
      return kWeightIommuFault;
    case telemetry::EventKind::kNicTxReset:
    case telemetry::EventKind::kNvmeQueueReset:
      return kWeightRingReset;
    case telemetry::EventKind::kStaleIotlbHit:
      return kWeightStaleIotlbHit;
    case telemetry::EventKind::kDkasanReport:
      return kWeightDkasanReport;
    case telemetry::EventKind::kSpadeFinding:
      return kWeightSpadeFinding;
    case telemetry::EventKind::kNicRxError:
    case telemetry::EventKind::kNvmeCompletionError:
      return kWeightBadCompletion;
    case telemetry::EventKind::kNicPollDeadline:
    case telemetry::EventKind::kNvmePollDeadline:
      return kWeightPollDeadline;
    default:
      return 0.0;
  }
}

double Decayed(double score, uint64_t from, uint64_t to) {
  if (score == 0.0 || to <= from) {
    return score;
  }
  const double half_lives =
      static_cast<double>(to - from) / static_cast<double>(kHalfLifeCycles);
  return score * std::exp2(-half_lives);
}

}  // namespace

void HealthScorer::Track(DeviceId device) { scores_.try_emplace(device.value); }

void HealthScorer::Untrack(DeviceId device) { scores_.erase(device.value); }

telemetry::KindSet HealthScorer::kinds() const {
  using telemetry::EventKind;
  return {EventKind::kIommuFault,    EventKind::kNicTxReset,          EventKind::kNvmeQueueReset,
          EventKind::kStaleIotlbHit, EventKind::kDkasanReport,        EventKind::kSpadeFinding,
          EventKind::kNicRxError,    EventKind::kNvmeCompletionError, EventKind::kNicPollDeadline,
          EventKind::kNvmePollDeadline};
}

void HealthScorer::OnEvent(const telemetry::Event& event) {
  auto it = scores_.find(event.device);
  if (it == scores_.end()) {
    return;  // not a device we supervise
  }
  DeviceScore& entry = it->second;
  entry.score = Decayed(entry.score, entry.last_cycle, event.cycle) + WeightFor(event);
  entry.last_cycle = std::max(entry.last_cycle, event.cycle);
  if (!entry.breached && entry.score >= kBreachThreshold) {
    entry.breached = true;
    pending_breaches_.push_back(DeviceId{event.device});
  }
}

double HealthScorer::ScoreAt(DeviceId device, uint64_t now) const {
  auto it = scores_.find(device.value);
  if (it == scores_.end()) {
    return 0.0;
  }
  return Decayed(it->second.score, it->second.last_cycle, now);
}

std::vector<DeviceId> HealthScorer::TakeBreaches() {
  std::vector<DeviceId> out;
  out.swap(pending_breaches_);
  return out;
}

void HealthScorer::Reset(DeviceId device) {
  auto it = scores_.find(device.value);
  if (it == scores_.end()) {
    return;
  }
  it->second = DeviceScore{};
}

}  // namespace spv::recovery
