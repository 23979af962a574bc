// spv::recovery — device quarantine, supervised re-attach, permanent detach.
//
// The paper's detection chapters (D-KASAN, SPADE) end at "we found the
// malicious device". This subsystem models what a defending OS does next:
//
//   quarantine   — atomically revoke the device's view of memory: drain its
//                  deferred flush-queue entries (no recycled IOVA may ride a
//                  still-stale IOTLB window), fence device-side DMA (distinct
//                  kRevoked status + kDeviceFencedAccess telemetry), tear the
//                  NIC rings down leak-free, and unmap every mapping the DMA
//                  API still tracks for it, while the network stack sheds the
//                  device's traffic with drop accounting;
//   re-attach    — supervised, with exponential backoff: the fence lifts, the
//                  rings refill, and the device runs on probation under the
//                  health scorer;
//   detach       — the retry budget is exhausted: the device is permanently
//                  removed from its translation domain.
//
// The whole state machine is driven from Poll() — never from inside a
// telemetry callback — and is disabled by default (MachineConfig.recovery):
// the paper's attacks must keep reproducing unless supervision is opted into.

#ifndef SPV_RECOVERY_RECOVERY_H_
#define SPV_RECOVERY_RECOVERY_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/clock.h"
#include "base/status.h"
#include "base/types.h"
#include "dma/dma_api.h"
#include "iommu/iommu.h"
#include "recovery/health.h"
#include "recovery/supervised.h"
#include "telemetry/telemetry.h"
#include "trace/tracer.h"

namespace spv::recovery {

enum class DeviceState : uint8_t {
  kHealthy,      // full service
  kQuarantined,  // fenced, rings down, awaiting a re-attach slot
  kProbation,    // re-attached, watched; a clean probation restores kHealthy
  kDetached,     // retry budget exhausted; permanent
};

std::string_view DeviceStateName(DeviceState state);

class RecoveryManager {
 public:
  // Every quarantine-hysteresis and re-attach knob in one value type: retry
  // budget, backoff base, probation length. One machine-wide value governs
  // every supervised device; the scorer's weights and threshold are
  // constants in health.cc.
  struct Config {
    // Disabled by default: scoring and supervision cost nothing, and the
    // paper's attacks reproduce unhindered.
    bool enabled = false;
    // First re-attach is attempted this long after quarantine; each failed
    // probation doubles the wait (exponential backoff).
    uint64_t reattach_backoff_cycles = SimClock::MsToCycles(10);
    // Re-attach attempts before the device is permanently detached.
    uint32_t max_reattach_attempts = 3;
    // A device surviving probation this long returns to kHealthy with its
    // score and retry budget cleared.
    uint64_t probation_cycles = SimClock::MsToCycles(50);
  };

  struct DeviceStatus {
    DeviceState state = DeviceState::kHealthy;
    uint32_t reattach_attempts = 0;
    uint64_t quarantines = 0;
    uint64_t quarantined_cycles = 0;  // downtime accumulated so far
  };

  RecoveryManager(iommu::Iommu& iommu, dma::DmaApi& dma, SimClock& clock,
                  telemetry::Hub& hub, Config config);
  ~RecoveryManager();

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  // Optional causal span tracer for quarantine/re-attach/detach phases.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  // Places `device` under supervision. `driver` (may be null for driverless
  // devices) is Shutdown() on quarantine and Resume()d on re-attach; any
  // device class implementing SupervisedDriver (NIC, NVMe, ...) plugs in.
  void RegisterDevice(DeviceId device, SupervisedDriver* driver);

  // Drives the state machine: consumes health breaches (quarantining the
  // offenders), attempts due re-attaches, and promotes devices that survived
  // probation. Call from the workload loop at epoch boundaries. Returns the
  // number of state transitions performed.
  uint32_t Poll();

  // Manual quarantine (an operator action, or a test fixture). Idempotent:
  // quarantining a quarantined or detached device is a no-op returning Ok.
  // Unregistered devices are NotFound.
  Status Quarantine(DeviceId device, std::string_view reason);

  // Immediate permanent detach, skipping the retry budget.
  Status Detach(DeviceId device, std::string_view reason);

  bool enabled() const { return config_.enabled; }
  HealthScorer& scorer() { return scorer_; }
  DeviceStatus device_status(DeviceId device) const;
  DeviceState state(DeviceId device) const;
  uint64_t total_quarantines() const { return total_quarantines_; }
  uint64_t total_detaches() const { return total_detaches_; }

 private:
  struct Supervised {
    SupervisedDriver* driver = nullptr;
    DeviceState state = DeviceState::kHealthy;
    uint32_t reattach_attempts = 0;
    uint64_t quarantines = 0;
    uint64_t quarantine_start = 0;     // cycle the current quarantine began
    uint64_t quarantined_cycles = 0;   // accumulated downtime
    uint64_t next_reattach_cycle = 0;  // valid in kQuarantined
    uint64_t probation_until = 0;      // valid in kProbation
    uint64_t current_backoff = 0;
  };

  Status DoQuarantine(DeviceId device, Supervised& entry, std::string_view reason);
  void DoReattach(DeviceId device, Supervised& entry);
  void DoDetach(DeviceId device, Supervised& entry, std::string_view reason);
  void Emit(telemetry::EventKind kind, telemetry::Severity severity, DeviceId device,
            uint64_t aux, std::string site);

  iommu::Iommu& iommu_;
  dma::DmaApi& dma_;
  SimClock& clock_;
  telemetry::Hub& hub_;
  Config config_;
  HealthScorer scorer_;
  trace::Tracer* tracer_ = nullptr;
  std::map<uint32_t, Supervised> devices_;  // ordered: deterministic Poll order
  StatCounter total_quarantines_;
  StatCounter total_detaches_;
  std::vector<telemetry::CounterLink> links_;  // after the tallies it reads
};

}  // namespace spv::recovery

#endif  // SPV_RECOVERY_RECOVERY_H_
