#include "recovery/health.h"

#include <algorithm>
#include <cmath>

namespace spv::recovery {

void HealthScorer::Track(DeviceId device) { scores_.try_emplace(device.value); }

void HealthScorer::Untrack(DeviceId device) { scores_.erase(device.value); }

double HealthScorer::WeightFor(const Config& config, const telemetry::Event& event) {
  switch (event.kind) {
    case telemetry::EventKind::kIommuFault:
      return config.weight_iommu_fault;
    case telemetry::EventKind::kNicTxReset:
      return config.weight_ring_reset;
    case telemetry::EventKind::kStaleIotlbHit:
      return config.weight_stale_iotlb_hit;
    case telemetry::EventKind::kDkasanReport:
      return config.weight_dkasan_report;
    case telemetry::EventKind::kSpadeFinding:
      return config.weight_spade_finding;
    case telemetry::EventKind::kNicRxError:
    case telemetry::EventKind::kNvmeCompletionError:
      return config.weight_bad_completion;
    case telemetry::EventKind::kNicPollDeadline:
    case telemetry::EventKind::kNvmePollDeadline:
      return config.weight_poll_deadline;
    case telemetry::EventKind::kNvmeQueueReset:
      return config.weight_ring_reset;
    default:
      return 0.0;
  }
}

double HealthScorer::Decayed(double score, uint64_t from, uint64_t to,
                             uint64_t half_life_cycles) {
  if (score == 0.0 || to <= from || half_life_cycles == 0) {
    return score;
  }
  const double half_lives =
      static_cast<double>(to - from) / static_cast<double>(half_life_cycles);
  return score * std::exp2(-half_lives);
}

void HealthScorer::OnEvent(const telemetry::Event& event) {
  auto it = scores_.find(event.device);
  if (it == scores_.end()) {
    return;  // not a device we supervise
  }
  const double weight = WeightFor(config_, event);
  if (weight == 0.0) {
    return;
  }
  DeviceScore& entry = it->second;
  entry.score = Decayed(entry.score, entry.last_cycle, event.cycle,
                        config_.half_life_cycles) +
                weight;
  entry.last_cycle = std::max(entry.last_cycle, event.cycle);
  if (!entry.breached && entry.score >= config_.threshold) {
    entry.breached = true;
    pending_breaches_.push_back(DeviceId{event.device});
  }
}

double HealthScorer::ScoreAt(DeviceId device, uint64_t now) const {
  auto it = scores_.find(device.value);
  if (it == scores_.end()) {
    return 0.0;
  }
  return Decayed(it->second.score, it->second.last_cycle, now,
                 config_.half_life_cycles);
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
