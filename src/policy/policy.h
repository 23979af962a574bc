// spv::policy — device trust & DMA-protection policy engine.
//
// The paper's chapters establish that *any* DMA-capable peripheral can turn
// hostile (sub-page co-location, deferred-invalidation windows, Thunderclap-
// style NIC emulation). This subsystem models the OS response that modern
// platforms actually ship — Thunderbolt/fwupd device authorization — as a
// trust ladder every device must climb before it earns the zero-copy path:
//
//   kUntrusted  — the attach default. The device gets NO direct mappings:
//                 DmaApi diverts every transfer through a dedicated
//                 bounce-buffer pool (dma::BouncePool), so sub-page
//                 co-location (paper types (a)/(d)) is structurally
//                 impossible and the I/O path queues no invalidations.
//                 The IOVA rcache fast path is gated off.
//   kProbation  — direct mappings return, but the driver runs with
//                 tightened service limits (ring occupancy, poll budget)
//                 from a quirks table keyed on device identity.
//   kTrusted    — full service: the IOVA rcache fast path, no bounce,
//                 driver defaults restored.
//
// Demotions are driven by the same signals the recovery subsystem consumes —
// quarantines, health breaches, detector findings (D-KASAN, SPADE), stale-
// IOTLB hits — latched by a telemetry sink and applied from Poll(), never
// from inside a callback. A demotion arms a promotion-cooldown (hysteresis):
// re-promotion inside the cooldown is refused, so a flapping device cannot
// oscillate between bounce and zero-copy.
//
// The engine also exports an HSI-style machine posture report (strict vs
// deferred invalidation, fast-path state, per-device trust/bounce/quarantine
// state) as deterministic JSON — the defender's one-glance answer to "how
// exposed is this machine right now".

#ifndef SPV_POLICY_POLICY_H_
#define SPV_POLICY_POLICY_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/clock.h"
#include "base/status.h"
#include "base/types.h"
#include "dma/bounce_pool.h"
#include "iommu/iommu.h"
#include "recovery/recovery.h"
#include "recovery/supervised.h"
#include "telemetry/telemetry.h"

namespace spv::policy {

enum class TrustState : uint8_t {
  kUntrusted,  // bounce-only DMA, fast path gated off
  kProbation,  // direct mappings under tightened service limits
  kTrusted,    // full zero-copy service
};

std::string_view TrustStateName(TrustState state);

// What the quirks table matches on: who the device claims to be. In real
// hardware this is the (vendor, device) id pair plus the class code; here a
// free-form model string and a class string ("nic", "nvme", ...).
struct DeviceIdentity {
  std::string model;
  std::string device_class;
};

// One quirks-table row. Empty match fields are wildcards; the first row
// matching both fields wins.
struct Quirk {
  std::string match_model;   // exact match, "" = any
  std::string match_class;   // exact match, "" = any
  // Where a matching device starts on the ladder (an allowlist entry for
  // known-good inbox devices sets kTrusted).
  TrustState initial_trust = TrustState::kUntrusted;
  // Bounce pool size while untrusted (0 = engine default).
  uint64_t bounce_pages = 0;
  // Service limits applied on kProbation (zero fields = driver default).
  recovery::DmaPolicyLimits probation_limits;
};

class PolicyEngine : public dma::DmaRouter {
 public:
  struct Config {
    // Disabled by default: routing costs one null check per map and the
    // paper's attacks reproduce unhindered.
    bool enabled = false;
    uint64_t bounce_pages = dma::BouncePool::kDefaultPoolPages;
    // Hysteresis: after a demotion, Promote() is refused this long.
    uint64_t promotion_cooldown_cycles = SimClock::MsToCycles(100);
    std::vector<Quirk> quirks;
  };

  struct DeviceStatus {
    TrustState trust = TrustState::kUntrusted;
    uint64_t demotions = 0;
    uint64_t promotions = 0;
    uint64_t promotions_blocked = 0;  // refused by the cooldown
    uint64_t cooldown_remaining = 0;  // cycles until Promote() may succeed
  };

  PolicyEngine(iommu::Iommu& iommu, dma::BouncePool& pool, SimClock& clock,
               telemetry::Hub& hub, Config config);
  ~PolicyEngine() override;

  PolicyEngine(const PolicyEngine&) = delete;
  PolicyEngine& operator=(const PolicyEngine&) = delete;

  // Places `device` under trust policy. The device must already be attached
  // to the IOMMU (the bounce pool installs its static block through it).
  // `driver` (may be null for driverless devices) receives ApplyDmaPolicy on
  // probation transitions. Initial trust comes from the quirks table, else
  // kUntrusted.
  Status RegisterDevice(DeviceId device, DeviceIdentity identity,
                        recovery::SupervisedDriver* driver = nullptr);

  // Hot-unplug: drops in-flight bounces and frees the device's pool.
  Status UnregisterDevice(DeviceId device);

  // One step up the ladder (untrusted -> probation -> trusted), e.g. an
  // operator authorizing the device. Refused with FailedPrecondition while
  // the post-demotion cooldown runs (the refusal is counted and published
  // with flag=1 for the trace).
  Status Promote(DeviceId device, std::string_view reason = "operator");

  // Straight back to kUntrusted (bounce-only) and arms the cooldown.
  Status Demote(DeviceId device, std::string_view reason = "policy");

  // Applies demotion triggers latched from the telemetry bus (quarantines,
  // health breaches, detector findings, stale-IOTLB hits). Call from the
  // workload loop; returns the number of demotions performed.
  uint32_t Poll();

  // dma::DmaRouter: untrusted registered devices divert through the pool
  // (their queue protocols run on sync'd bounce slots).
  bool ShouldBounce(DeviceId device) const override;

  TrustState state(DeviceId device) const;
  DeviceStatus device_status(DeviceId device) const;
  bool enabled() const { return config_.enabled; }
  uint64_t total_demotions() const { return total_demotions_; }
  uint64_t total_promotions_blocked() const { return total_promotions_blocked_; }

  // Optional: lets the posture report include quarantine history and
  // supervision state. nullptr detaches.
  void set_recovery(const recovery::RecoveryManager* recovery) { recovery_ = recovery; }

  // HSI-style machine security posture (deterministic: same machine state ->
  // byte-identical JSON).
  std::string PostureJson() const;

 private:
  struct Device {
    DeviceIdentity identity;
    recovery::SupervisedDriver* driver = nullptr;
    const Quirk* quirk = nullptr;  // points into config_.quirks
    TrustState trust = TrustState::kUntrusted;
    uint64_t cooldown_until = 0;
    uint64_t demotions = 0;
    uint64_t promotions = 0;
    uint64_t promotions_blocked = 0;
  };

  // Latches bus events; applied by Poll() (no re-entrant transitions).
  class TrustSink : public telemetry::EventSink {
   public:
    explicit TrustSink(PolicyEngine& engine) : engine_(engine) {}
    void OnEvent(const telemetry::Event& event) override;
    // Quarantines, health breaches, detector findings, stale-IOTLB hits.
    telemetry::KindSet kinds() const override;

   private:
    PolicyEngine& engine_;
  };

  // First quirks-table row matching `identity`, or nullptr.
  const Quirk* FindQuirk(const DeviceIdentity& identity) const;
  void ApplyTrust(DeviceId device, Device& entry, TrustState next,
                  std::string_view reason, bool is_promotion);
  recovery::DmaPolicyLimits ProbationLimitsFor(const Device& entry) const;
  void Publish(telemetry::EventKind kind, DeviceId device, TrustState next, bool refused,
               std::string_view reason);

  iommu::Iommu& iommu_;
  dma::BouncePool& pool_;
  SimClock& clock_;
  telemetry::Hub& hub_;
  Config config_;
  TrustSink sink_;
  const recovery::RecoveryManager* recovery_ = nullptr;
  std::map<uint32_t, Device> devices_;  // ordered: deterministic Poll/report
  // (device, trigger kind) pairs recorded by the sink since the last Poll.
  std::vector<std::pair<uint32_t, telemetry::EventKind>> pending_demotions_;
  StatCounter total_demotions_;
  StatCounter total_promotions_;  // read through the hub (policy.promotions)
  StatCounter total_promotions_blocked_;
  std::vector<telemetry::CounterLink> links_;  // after the tallies it reads
};

}  // namespace spv::policy

#endif  // SPV_POLICY_POLICY_H_
