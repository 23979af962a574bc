#include "policy/policy.h"

#include <utility>

#include "base/json.h"

namespace spv::policy {

namespace {

// Where an unmatched device starts: kUntrusted, the secure default (tests
// that predate the engine run with it disabled instead).
constexpr TrustState kDefaultTrust = TrustState::kUntrusted;
// Limits applied on kProbation when no quirk overrides them.
constexpr recovery::DmaPolicyLimits kProbationLimits{SimClock::UsToCycles(500), 16};

}  // namespace

std::string_view TrustStateName(TrustState state) {
  switch (state) {
    case TrustState::kUntrusted:
      return "untrusted";
    case TrustState::kProbation:
      return "probation";
    case TrustState::kTrusted:
      return "trusted";
  }
  return "?";
}

telemetry::KindSet PolicyEngine::TrustSink::kinds() const {
  using telemetry::EventKind;
  return {EventKind::kDeviceQuarantined, EventKind::kHealthBreach, EventKind::kDkasanReport,
          EventKind::kSpadeFinding, EventKind::kStaleIotlbHit};
}

void PolicyEngine::TrustSink::OnEvent(const telemetry::Event& event) {
  if (!engine_.config_.enabled || event.device == 0) {
    return;  // unattributed signals cannot indict a device
  }
  if (engine_.devices_.count(event.device) != 0) {
    engine_.pending_demotions_.emplace_back(event.device, event.kind);
  }
}

PolicyEngine::PolicyEngine(iommu::Iommu& iommu, dma::BouncePool& pool, SimClock& clock,
                           telemetry::Hub& hub, Config config)
    : iommu_(iommu),
      pool_(pool),
      clock_(clock),
      hub_(hub),
      config_(std::move(config)),
      sink_(*this) {
  if (config_.enabled) {
    hub_.AddSink(&sink_);
  }
  links_.push_back(hub_.Link("policy.demotions", total_demotions_));
  links_.push_back(hub_.Link("policy.promotions", total_promotions_));
  links_.push_back(hub_.Link("policy.promotions_blocked", total_promotions_blocked_));
}

PolicyEngine::~PolicyEngine() {
  if (config_.enabled) {
    hub_.RemoveSink(&sink_);
  }
}

const Quirk* PolicyEngine::FindQuirk(const DeviceIdentity& identity) const {
  for (const Quirk& quirk : config_.quirks) {
    const bool model_ok =
        quirk.match_model.empty() || quirk.match_model == identity.model;
    const bool class_ok =
        quirk.match_class.empty() || quirk.match_class == identity.device_class;
    if (model_ok && class_ok) {
      return &quirk;
    }
  }
  return nullptr;
}

recovery::DmaPolicyLimits PolicyEngine::ProbationLimitsFor(const Device& entry) const {
  if (entry.quirk != nullptr && (entry.quirk->probation_limits.poll_deadline_cycles != 0 ||
                                 entry.quirk->probation_limits.ring_limit != 0)) {
    return entry.quirk->probation_limits;
  }
  return kProbationLimits;
}

void PolicyEngine::ApplyTrust(DeviceId device, Device& entry, TrustState next,
                              std::string_view reason, bool is_promotion) {
  (void)reason;
  (void)is_promotion;
  entry.trust = next;
  // Fast-path privileges are earned: only kTrusted rides the IOVA rcache.
  (void)iommu_.SetDeviceFastPath(device, next == TrustState::kTrusted);
  if (entry.driver != nullptr) {
    // Probation tightens service; any other state restores driver defaults
    // (untrusted devices are already confined by the bounce route).
    entry.driver->ApplyDmaPolicy(next == TrustState::kProbation
                                     ? ProbationLimitsFor(entry)
                                     : recovery::DmaPolicyLimits{});
  }
}

void PolicyEngine::Publish(telemetry::EventKind kind, DeviceId device, TrustState next,
                           bool refused, std::string_view reason) {
  if (!hub_.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = kind;
  event.severity = (kind == telemetry::EventKind::kTrustDemoted || refused)
                       ? telemetry::Severity::kWarn
                       : telemetry::Severity::kInfo;
  event.device = device.value;
  event.aux = static_cast<uint64_t>(next);
  event.flag = refused;
  event.origin = this;
  event.site = std::string(reason);
  hub_.Publish(event);
}

Status PolicyEngine::RegisterDevice(DeviceId device, DeviceIdentity identity,
                                    recovery::SupervisedDriver* driver) {
  if (!config_.enabled) {
    return FailedPrecondition("trust policy disabled");
  }
  if (devices_.count(device.value) != 0) {
    return FailedPrecondition("device already under trust policy");
  }
  Device entry;
  entry.identity = std::move(identity);
  entry.quirk = FindQuirk(entry.identity);
  entry.driver = driver;
  uint64_t pages = config_.bounce_pages;
  if (entry.quirk != nullptr && entry.quirk->bounce_pages != 0) {
    pages = entry.quirk->bounce_pages;
  }
  // Every device gets a pool at registration, trusted or not: a demotion
  // must be able to divert traffic immediately, without allocating under
  // pressure from the very device being contained.
  SPV_RETURN_IF_ERROR(pool_.AttachDevice(device, pages));
  const TrustState initial =
      entry.quirk != nullptr ? entry.quirk->initial_trust : kDefaultTrust;
  auto [it, inserted] = devices_.emplace(device.value, std::move(entry));
  ApplyTrust(device, it->second, initial, "attach", /*is_promotion=*/false);
  if (hub_.enabled()) {
    ++hub_.counter("policy.registered");
  }
  return OkStatus();
}

Status PolicyEngine::UnregisterDevice(DeviceId device) {
  auto it = devices_.find(device.value);
  if (it == devices_.end()) {
    return NotFound("device not under trust policy");
  }
  pool_.ReleaseAll(device);
  SPV_RETURN_IF_ERROR(pool_.DetachDevice(device));
  devices_.erase(it);
  return OkStatus();
}

Status PolicyEngine::Promote(DeviceId device, std::string_view reason) {
  auto it = devices_.find(device.value);
  if (it == devices_.end()) {
    return NotFound("device not under trust policy");
  }
  Device& entry = it->second;
  if (entry.trust == TrustState::kTrusted) {
    return FailedPrecondition("device already fully trusted");
  }
  const TrustState next = entry.trust == TrustState::kUntrusted ? TrustState::kProbation
                                                                : TrustState::kTrusted;
  if (clock_.now() < entry.cooldown_until) {
    // Hysteresis: a recently demoted device cannot climb back yet, no matter
    // how clean it looks — this is what stops bounce/zero-copy oscillation.
    // The refused event carries the rung the device *asked for*.
    ++entry.promotions_blocked;
    ++total_promotions_blocked_;
    Publish(telemetry::EventKind::kTrustPromoted, device, next,
            /*refused=*/true, reason);
    return FailedPrecondition("promotion refused: hysteresis cooldown");
  }
  ApplyTrust(device, entry, next, reason, /*is_promotion=*/true);
  ++entry.promotions;
  ++total_promotions_;
  Publish(telemetry::EventKind::kTrustPromoted, device, next, /*refused=*/false, reason);
  return OkStatus();
}

Status PolicyEngine::Demote(DeviceId device, std::string_view reason) {
  auto it = devices_.find(device.value);
  if (it == devices_.end()) {
    return NotFound("device not under trust policy");
  }
  Device& entry = it->second;
  // Arm/refresh the cooldown even when already untrusted: fresh evidence
  // extends the sentence.
  entry.cooldown_until = clock_.now() + config_.promotion_cooldown_cycles;
  if (entry.trust == TrustState::kUntrusted) {
    return OkStatus();
  }
  ApplyTrust(device, entry, TrustState::kUntrusted, reason, /*is_promotion=*/false);
  ++entry.demotions;
  ++total_demotions_;
  Publish(telemetry::EventKind::kTrustDemoted, device, TrustState::kUntrusted,
          /*refused=*/false, reason);
  return OkStatus();
}

uint32_t PolicyEngine::Poll() {
  if (!config_.enabled || pending_demotions_.empty()) {
    return 0;
  }
  // Latched triggers, applied outside the bus callback. The vector is taken
  // first: Demote publishes events, and the sink must not observe its own
  // engine mid-transition.
  std::vector<std::pair<uint32_t, telemetry::EventKind>> triggers;
  triggers.swap(pending_demotions_);
  uint32_t demoted = 0;
  for (const auto& [device, kind] : triggers) {
    auto it = devices_.find(device);
    if (it == devices_.end()) {
      continue;  // unplugged since the trigger latched
    }
    const bool was_direct = it->second.trust != TrustState::kUntrusted;
    if (Demote(DeviceId{device}, telemetry::EventKindName(kind)).ok() && was_direct) {
      ++demoted;
    }
  }
  return demoted;
}

bool PolicyEngine::ShouldBounce(DeviceId device) const {
  if (!config_.enabled) {
    return false;
  }
  auto it = devices_.find(device.value);
  return it != devices_.end() && it->second.trust == TrustState::kUntrusted;
}

TrustState PolicyEngine::state(DeviceId device) const {
  auto it = devices_.find(device.value);
  // Unregistered devices are outside the policy's remit; they behave as
  // trusted (ShouldBounce=false) so pre-policy setups are unchanged.
  return it == devices_.end() ? TrustState::kTrusted : it->second.trust;
}

PolicyEngine::DeviceStatus PolicyEngine::device_status(DeviceId device) const {
  auto it = devices_.find(device.value);
  if (it == devices_.end()) {
    return DeviceStatus{TrustState::kTrusted, 0, 0, 0, 0};
  }
  const Device& entry = it->second;
  DeviceStatus out;
  out.trust = entry.trust;
  out.demotions = entry.demotions;
  out.promotions = entry.promotions;
  out.promotions_blocked = entry.promotions_blocked;
  const uint64_t now = clock_.now();
  out.cooldown_remaining = entry.cooldown_until > now ? entry.cooldown_until - now : 0;
  return out;
}

std::string PolicyEngine::PostureJson() const {
  // HSI-style posture: one deterministic JSON object answering "how exposed
  // is this machine". Key order is fixed; devices_ is an ordered map.
  json::Writer w;
  w.BeginObject().Key("invalidation").String(iommu::InvalidationModeName(iommu_.mode()));
  w.Key("strict_invalidation").Bool(iommu_.mode() == iommu::InvalidationMode::kStrict);
  w.Key("iova_rcache").Bool(iommu_.fast_path().enabled);
  w.Key("policy_enabled").Bool(config_.enabled);
  w.Key("default_trust").String(TrustStateName(kDefaultTrust));
  w.Key("recovery_supervision").Bool(recovery_ != nullptr && recovery_->enabled());
  w.Key("promotion_cooldown_cycles").Uint(config_.promotion_cooldown_cycles);
  w.Key("total_demotions").Uint(total_demotions_);
  w.Key("total_promotions_blocked").Uint(total_promotions_blocked_);
  w.Key("devices").BeginArray();
  for (const auto& [id, entry] : devices_) {
    const DeviceId device{id};
    w.BeginObject().Key("id").Uint(id);
    w.Key("model").String(entry.identity.model);
    w.Key("class").String(entry.identity.device_class);
    w.Key("trust").String(TrustStateName(entry.trust));
    w.Key("fast_path").Bool(iommu_.device_fast_path(device));
    w.Key("bounce_pool_pages").Uint(pool_.pool_pages(device));
    w.Key("active_bounces").Uint(pool_.active_bounces(device));
    // Degraded-service stats: which protocol the device would run under
    // right now, and how much sync-ring traffic it has actually served.
    w.Key("service_mode")
        .String(dma::ServiceModeName(ShouldBounce(device) ? dma::ServiceMode::kBounceSync
                                                          : dma::ServiceMode::kZeroCopy));
    w.Key("persistent_bounces").Uint(pool_.persistent_bounces(device));
    w.Key("bounce_syncs_for_cpu").Uint(pool_.syncs_for_cpu(device));
    w.Key("bounce_syncs_for_device").Uint(pool_.syncs_for_device(device));
    w.Key("demotions").Uint(entry.demotions);
    w.Key("promotions").Uint(entry.promotions);
    w.Key("promotions_blocked").Uint(entry.promotions_blocked);
    const uint64_t now = clock_.now();
    w.Key("cooldown_remaining_cycles")
        .Uint(entry.cooldown_until > now ? entry.cooldown_until - now : 0);
    if (recovery_ != nullptr) {
      const recovery::RecoveryManager::DeviceStatus rs = recovery_->device_status(device);
      w.Key("recovery_state").String(recovery::DeviceStateName(rs.state));
      w.Key("quarantines").Uint(rs.quarantines);
    } else {
      w.Key("recovery_state").String("unsupervised").Key("quarantines").Uint(0);
    }
    w.EndObject();
  }
  return w.EndArray().EndObject().Take();
}

}  // namespace spv::policy
