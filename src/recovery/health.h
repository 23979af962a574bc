// Per-device health scoring off the telemetry bus (spv::recovery).
//
// The scorer is an EventSink: every published event that implicates a device
// (IOMMU faults, TX ring resets, D-KASAN reports, SPADE findings, stale-IOTLB
// hits, bad completions, poll-deadline trips) adds a fixed weight to that
// device's score. Scores decay exponentially with simulated time, so a
// burst of faults trips the threshold while the same count spread over
// seconds does not. Crossing the threshold records a *pending breach*; the
// RecoveryManager consumes breaches from Poll() — never from inside OnEvent,
// where quarantining would call into the IOMMU and DMA layers mid-publish
// (the EventSink rule forbids it).

#ifndef SPV_RECOVERY_HEALTH_H_
#define SPV_RECOVERY_HEALTH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/types.h"
#include "telemetry/telemetry.h"

namespace spv::recovery {

class HealthScorer : public telemetry::EventSink {
 public:
  // Only registered devices are scored; everything else on the bus is noise.
  void Track(DeviceId device);
  void Untrack(DeviceId device);

  void OnEvent(const telemetry::Event& event) override;
  // The kinds that carry a weight.
  telemetry::KindSet kinds() const override;

  // Decayed score as of `now` (0 for untracked devices).
  double ScoreAt(DeviceId device, uint64_t now) const;

  // Devices whose score crossed the threshold since the last call. Each
  // breach is reported once; Reset() re-arms a device's breach latch.
  std::vector<DeviceId> TakeBreaches();

  // Re-attach: clears the device's score and breach latch so probation
  // starts from a clean slate.
  void Reset(DeviceId device);

 private:
  struct DeviceScore {
    double score = 0.0;
    uint64_t last_cycle = 0;
    bool breached = false;  // latched until Reset()
  };

  std::unordered_map<uint32_t, DeviceScore> scores_;
  std::vector<DeviceId> pending_breaches_;
};

}  // namespace spv::recovery

#endif  // SPV_RECOVERY_HEALTH_H_
