// spv::policy — the device trust & DMA-protection policy engine: the trust
// ladder, quirks-table matching, bounce routing in DmaApi, the hysteresis
// cooldown, the fast-path gate, probation service limits, pool exhaustion,
// leak-free hot-unplug, and posture-report determinism.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "base/json.h"
#include "core/machine.h"
#include "device/device_port.h"
#include "device/malicious_nic.h"
#include "dma/bounce_pool.h"
#include "net/layouts.h"
#include "policy/policy.h"
#include "recovery/recovery.h"

namespace spv {
namespace {

core::MachineConfig PolicyConfig(uint64_t seed = 7) {
  core::MachineConfig config;
  config.seed = seed;
  config.telemetry.enabled = true;
  config.recovery.enabled = true;
  config.recovery.reattach_backoff_cycles = SimClock::UsToCycles(10);
  config.recovery.probation_cycles = SimClock::UsToCycles(10);
  config.policy.enabled = true;
  return config;
}

// A driverless device registered straight with the engine.
DeviceId Plug(core::Machine& machine, uint32_t id, const std::string& model,
              const std::string& device_class) {
  const DeviceId dev{id};
  machine.iommu().AttachDevice(dev);
  EXPECT_TRUE(machine.policy()
                  ->RegisterDevice(dev, policy::DeviceIdentity{model, device_class})
                  .ok());
  return dev;
}

// ---- The trust ladder ----------------------------------------------------------

TEST(PolicyLadder, ClimbsOneRungAtATime) {
  core::Machine machine{PolicyConfig()};
  policy::PolicyEngine* engine = machine.policy();
  ASSERT_NE(engine, nullptr);
  const DeviceId dev = Plug(machine, 50, "usb-nic", "nic");

  EXPECT_EQ(engine->state(dev), policy::TrustState::kUntrusted);
  EXPECT_TRUE(engine->ShouldBounce(dev));

  ASSERT_TRUE(engine->Promote(dev).ok());
  EXPECT_EQ(engine->state(dev), policy::TrustState::kProbation);
  EXPECT_FALSE(engine->ShouldBounce(dev));

  ASSERT_TRUE(engine->Promote(dev).ok());
  EXPECT_EQ(engine->state(dev), policy::TrustState::kTrusted);

  // Top of the ladder: another promotion is a caller error.
  EXPECT_EQ(engine->Promote(dev).code(), StatusCode::kFailedPrecondition);

  // Demotion goes straight back to the bottom.
  ASSERT_TRUE(engine->Demote(dev, "test").ok());
  EXPECT_EQ(engine->state(dev), policy::TrustState::kUntrusted);
  EXPECT_TRUE(engine->ShouldBounce(dev));
}

TEST(PolicyLadder, UnregisteredDevicesAreOutsidePolicy) {
  core::Machine machine{PolicyConfig()};
  const DeviceId dev{51};
  machine.iommu().AttachDevice(dev);
  // Never registered: treated as trusted (pre-policy setups unchanged) and
  // never bounced.
  EXPECT_EQ(machine.policy()->state(dev), policy::TrustState::kTrusted);
  EXPECT_FALSE(machine.policy()->ShouldBounce(dev));
  EXPECT_EQ(machine.policy()->Promote(dev).code(), StatusCode::kNotFound);
}

// ---- Quirks table --------------------------------------------------------------

TEST(PolicyQuirks, FirstMatchWinsAndWildcardsApply) {
  core::MachineConfig config = PolicyConfig();
  policy::Quirk pinned;
  pinned.match_model = "evil-nic";
  pinned.bounce_pages = 4;
  config.policy.quirks.push_back(pinned);
  policy::Quirk inbox;
  inbox.match_class = "nic";
  inbox.initial_trust = policy::TrustState::kTrusted;
  config.policy.quirks.push_back(inbox);
  core::Machine machine{config};
  policy::PolicyEngine* engine = machine.policy();

  // "evil-nic" is class nic too, but the pinned row comes first.
  const DeviceId evil = Plug(machine, 60, "evil-nic", "nic");
  EXPECT_EQ(engine->state(evil), policy::TrustState::kUntrusted);
  EXPECT_EQ(machine.bounce_pool()->pool_pages(evil), 4u);

  const DeviceId inbox_dev = Plug(machine, 61, "i40e", "nic");
  EXPECT_EQ(engine->state(inbox_dev), policy::TrustState::kTrusted);

  // No row matches: the config default applies.
  const DeviceId stranger = Plug(machine, 62, "mystery", "scanner");
  EXPECT_EQ(engine->state(stranger), policy::TrustState::kUntrusted);
  EXPECT_EQ(machine.bounce_pool()->pool_pages(stranger),
            dma::BouncePool::kDefaultPoolPages);
}

// ---- Bounce routing through DmaApi ---------------------------------------------

TEST(PolicyRouting, UntrustedMapsDivertThroughThePool) {
  core::Machine machine{PolicyConfig()};
  const DeviceId dev = Plug(machine, 70, "usb-nic", "nic");
  device::DevicePort port{machine.iommu(), dev};

  Kva buf = *machine.slab().Kmalloc(512, "bounce_buf");
  std::vector<uint8_t> out(16, 0x5c);
  ASSERT_TRUE(machine.kmem().Write(buf, out).ok());

  const uint64_t live_before = machine.dma().live_mappings();
  const uint64_t iommu_unmaps_before = machine.iommu().stats().unmaps.load();
  Result<Iova> iova = machine.dma().MapSingle(dev, buf, 512,
                                              dma::DmaDirection::kBidirectional, "t");
  ASSERT_TRUE(iova.ok());
  // The mapping lives in the pool, not the zero-copy tracker; its sub-page
  // offset is preserved for driver arithmetic.
  EXPECT_TRUE(machine.bounce_pool()->Owns(dev, *iova));
  EXPECT_EQ(machine.dma().live_mappings(), live_before);
  EXPECT_EQ(iova->page_offset(), buf.page_offset());
  EXPECT_EQ(machine.bounce_pool()->active_bounces(dev), 1u);

  // Copy-in gave the device the CPU's bytes; a device write comes back on
  // unmap (copy-out).
  std::vector<uint8_t> seen(16, 0);
  ASSERT_TRUE(machine.iommu().DeviceRead(dev, *iova, seen).ok());
  EXPECT_EQ(seen, out);
  ASSERT_TRUE(port.WriteU64(*iova, 0x1122334455667788ull).ok());
  ASSERT_TRUE(machine.dma()
                  .UnmapSingle(dev, *iova, 512, dma::DmaDirection::kBidirectional)
                  .ok());
  std::vector<uint8_t> got(8, 0);
  ASSERT_TRUE(machine.kmem().Read(buf, got).ok());
  uint64_t value = 0;
  std::memcpy(&value, got.data(), 8);
  EXPECT_EQ(value, 0x1122334455667788ull);

  // Static-mapping path: the whole round trip queued zero IOMMU unmaps, so
  // there is no deferred-invalidation window to exploit.
  EXPECT_EQ(machine.iommu().stats().unmaps.load(), iommu_unmaps_before);
  EXPECT_EQ(machine.bounce_pool()->active_bounces(dev), 0u);
  ASSERT_TRUE(machine.slab().Kfree(buf).ok());
  EXPECT_TRUE(machine.CheckInvariants().ok());
}

TEST(PolicyRouting, TrustedMapsStayZeroCopy) {
  core::Machine machine{PolicyConfig()};
  const DeviceId dev = Plug(machine, 71, "usb-nic", "nic");
  ASSERT_TRUE(machine.policy()->Promote(dev).ok());
  ASSERT_TRUE(machine.policy()->Promote(dev).ok());

  Kva buf = *machine.slab().Kmalloc(512, "direct_buf");
  const uint64_t live_before = machine.dma().live_mappings();
  Result<Iova> iova = machine.dma().MapSingle(dev, buf, 512,
                                              dma::DmaDirection::kFromDevice, "t");
  ASSERT_TRUE(iova.ok());
  EXPECT_FALSE(machine.bounce_pool()->Owns(dev, *iova));
  EXPECT_EQ(machine.dma().live_mappings(), live_before + 1);
  ASSERT_TRUE(
      machine.dma().UnmapSingle(dev, *iova, 512, dma::DmaDirection::kFromDevice).ok());
  ASSERT_TRUE(machine.slab().Kfree(buf).ok());
}

TEST(PolicyRouting, InFlightBounceSurvivesPromotion) {
  core::Machine machine{PolicyConfig()};
  const DeviceId dev = Plug(machine, 72, "usb-nic", "nic");
  Kva buf = *machine.slab().Kmalloc(256, "promoted_buf");
  Result<Iova> iova = machine.dma().MapSingle(dev, buf, 256,
                                              dma::DmaDirection::kFromDevice, "t");
  ASSERT_TRUE(iova.ok());
  ASSERT_TRUE(machine.bounce_pool()->Owns(dev, *iova));

  // Trust changes mid-flight; the unmap must still find the bounce.
  ASSERT_TRUE(machine.policy()->Promote(dev).ok());
  ASSERT_TRUE(machine.policy()->Promote(dev).ok());
  EXPECT_TRUE(
      machine.dma().UnmapSingle(dev, *iova, 256, dma::DmaDirection::kFromDevice).ok());
  EXPECT_EQ(machine.bounce_pool()->active_bounces(dev), 0u);
  ASSERT_TRUE(machine.slab().Kfree(buf).ok());
  EXPECT_TRUE(machine.CheckInvariants().ok());
}

TEST(PolicyRouting, PoolExhaustionFailsCleanlyAndRecovers) {
  core::MachineConfig config = PolicyConfig();
  policy::Quirk tiny;
  tiny.match_model = "tiny";
  tiny.bounce_pages = 2;
  config.policy.quirks.push_back(tiny);
  core::Machine machine{config};
  const DeviceId dev = Plug(machine, 73, "tiny", "nic");

  Kva a = *machine.slab().Kmalloc(kPageSize, "a");
  Kva b = *machine.slab().Kmalloc(kPageSize, "b");
  Kva c = *machine.slab().Kmalloc(kPageSize, "c");
  Result<Iova> ia =
      machine.dma().MapSingle(dev, a, kPageSize, dma::DmaDirection::kFromDevice, "a");
  Result<Iova> ib =
      machine.dma().MapSingle(dev, b, kPageSize, dma::DmaDirection::kFromDevice, "b");
  ASSERT_TRUE(ia.ok());
  ASSERT_TRUE(ib.ok());
  // Both slots taken: the third map must fail loudly, not fall back to a
  // direct (unprotected) mapping.
  Result<Iova> ic =
      machine.dma().MapSingle(dev, c, kPageSize, dma::DmaDirection::kFromDevice, "c");
  EXPECT_FALSE(ic.ok());
  EXPECT_EQ(machine.dma().live_mappings(), 0u);

  // Releasing a slot makes the pool serviceable again.
  ASSERT_TRUE(
      machine.dma().UnmapSingle(dev, *ia, kPageSize, dma::DmaDirection::kFromDevice).ok());
  ic = machine.dma().MapSingle(dev, c, kPageSize, dma::DmaDirection::kFromDevice, "c");
  EXPECT_TRUE(ic.ok());
  ASSERT_TRUE(
      machine.dma().UnmapSingle(dev, *ib, kPageSize, dma::DmaDirection::kFromDevice).ok());
  ASSERT_TRUE(
      machine.dma().UnmapSingle(dev, *ic, kPageSize, dma::DmaDirection::kFromDevice).ok());
  for (Kva kva : {a, b, c}) {
    ASSERT_TRUE(machine.slab().Kfree(kva).ok());
  }
  EXPECT_TRUE(machine.CheckInvariants().ok());
}

// ---- Fast-path gate ------------------------------------------------------------

TEST(PolicyFastPath, GateFollowsTrust) {
  core::MachineConfig config = PolicyConfig();
  core::Machine machine{config};
  const DeviceId dev = Plug(machine, 80, "usb-nic", "nic");

  EXPECT_FALSE(machine.iommu().device_fast_path(dev));
  ASSERT_TRUE(machine.policy()->Promote(dev).ok());
  EXPECT_FALSE(machine.iommu().device_fast_path(dev));  // probation: still gated
  ASSERT_TRUE(machine.policy()->Promote(dev).ok());
  EXPECT_TRUE(machine.iommu().device_fast_path(dev));  // trusted: rcache back on
  ASSERT_TRUE(machine.policy()->Demote(dev, "test").ok());
  EXPECT_FALSE(machine.iommu().device_fast_path(dev));
}

// ---- Demotion triggers + hysteresis --------------------------------------------

TEST(PolicyHysteresis, QuarantineDemotesAndCooldownBlocksRepromotion) {
  core::MachineConfig config = PolicyConfig();
  config.policy.promotion_cooldown_cycles = SimClock::UsToCycles(100);
  policy::Quirk inbox;
  inbox.match_class = "nic";
  inbox.initial_trust = policy::TrustState::kTrusted;
  config.policy.quirks.push_back(inbox);
  core::Machine machine{config};
  policy::PolicyEngine* engine = machine.policy();

  net::NicDriver::Config nic_config;
  nic_config.rx_ring_size = 8;
  net::NicDriver& nic = machine.AddNicDriver(nic_config);
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);
  ASSERT_TRUE(nic.FillRxRing().ok());
  EXPECT_EQ(engine->state(nic.device_id()), policy::TrustState::kTrusted);

  // Health breach -> quarantine (recovery) -> latched trigger -> demotion.
  for (int i = 0; i < 30; ++i) {
    EXPECT_FALSE(
        device.port().WriteU64(Iova{(1ull << 40) + (uint64_t{kPageSize} * i)}, 0xbad).ok());
  }
  ASSERT_GT(machine.recovery().Poll(), 0u);
  EXPECT_EQ(engine->state(nic.device_id()), policy::TrustState::kTrusted);
  EXPECT_GT(engine->Poll(), 0u);
  EXPECT_EQ(engine->state(nic.device_id()), policy::TrustState::kUntrusted);

  // Inside the cooldown every promotion is refused and counted.
  EXPECT_EQ(engine->Promote(nic.device_id()).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine->Promote(nic.device_id()).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine->device_status(nic.device_id()).promotions_blocked, 2u);
  EXPECT_GT(engine->device_status(nic.device_id()).cooldown_remaining, 0u);

  // Past the cooldown the ladder opens again.
  machine.clock().AdvanceUs(101);
  EXPECT_TRUE(engine->Promote(nic.device_id()).ok());
  EXPECT_EQ(engine->state(nic.device_id()), policy::TrustState::kProbation);
}

TEST(PolicyHysteresis, RepeatTriggerWhileUntrustedRefreshesCooldown) {
  core::MachineConfig config = PolicyConfig();
  config.policy.promotion_cooldown_cycles = SimClock::UsToCycles(100);
  core::Machine machine{config};
  policy::PolicyEngine* engine = machine.policy();
  const DeviceId dev = Plug(machine, 81, "usb-nic", "nic");

  ASSERT_TRUE(engine->Demote(dev, "first").ok());
  machine.clock().AdvanceUs(60);
  // A second trigger while already untrusted performs no transition but
  // re-arms the cooldown: the flap clock starts over.
  ASSERT_TRUE(engine->Demote(dev, "second").ok());
  machine.clock().AdvanceUs(60);  // 120us after the first, 60 after the second
  EXPECT_EQ(engine->Promote(dev).code(), StatusCode::kFailedPrecondition);
  machine.clock().AdvanceUs(41);
  EXPECT_TRUE(engine->Promote(dev).ok());
}

// ---- Probation service limits --------------------------------------------------

TEST(PolicyProbation, LimitsClampTheNicDriver) {
  core::MachineConfig config = PolicyConfig();
  policy::Quirk probation;
  probation.match_class = "nic";
  probation.initial_trust = policy::TrustState::kUntrusted;
  probation.probation_limits.ring_limit = 3;
  probation.probation_limits.poll_deadline_cycles = SimClock::UsToCycles(5);
  config.policy.quirks.push_back(probation);
  core::Machine machine{config};

  net::NicDriver::Config nic_config;
  nic_config.rx_ring_size = 8;
  net::NicDriver& nic = machine.AddNicDriver(nic_config);
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);

  // Probation: the quirk's clamps reach the driver through ApplyDmaPolicy.
  ASSERT_TRUE(machine.policy()->Promote(nic.device_id()).ok());
  EXPECT_EQ(nic.policy_limits().ring_limit, 3u);
  ASSERT_TRUE(nic.FillRxRing().ok());
  EXPECT_EQ(device.rx_posted().size(), 3u);  // 8-slot ring, probation cap 3

  // Full trust restores the driver's own config.
  ASSERT_TRUE(machine.policy()->Promote(nic.device_id()).ok());
  EXPECT_EQ(nic.policy_limits().ring_limit, 0u);
  ASSERT_TRUE(nic.FillRxRing().ok());
  EXPECT_EQ(device.rx_posted().size(), 8u);
  ASSERT_TRUE(nic.Shutdown().ok());
}

// ---- Hot-unplug ----------------------------------------------------------------

TEST(PolicyUnplug, UnregisterDropsBouncesAndFreesThePool) {
  core::Machine machine{PolicyConfig()};
  const DeviceId dev = Plug(machine, 90, "evil-nic", "nic");
  Kva buf = *machine.slab().Kmalloc(512, "unplug_buf");
  Result<Iova> iova = machine.dma().MapSingle(dev, buf, 512,
                                              dma::DmaDirection::kFromDevice, "t");
  ASSERT_TRUE(iova.ok());
  ASSERT_EQ(machine.bounce_pool()->active_bounces(dev), 1u);

  // Surprise removal mid-flight: in-flight device writes are discarded, the
  // pool comes down, nothing leaks.
  ASSERT_TRUE(machine.policy()->UnregisterDevice(dev).ok());
  EXPECT_FALSE(machine.bounce_pool()->HasPool(dev));
  EXPECT_EQ(machine.policy()->state(dev), policy::TrustState::kTrusted);  // off-policy now
  ASSERT_TRUE(machine.iommu().DetachDevice(dev).ok());
  ASSERT_TRUE(machine.slab().Kfree(buf).ok());
  EXPECT_TRUE(machine.CheckInvariants().ok());
}

// ---- Posture report ------------------------------------------------------------

TEST(PolicyPosture, JsonIsDeterministic) {
  auto run = [] {
    core::MachineConfig config = PolicyConfig(11);
    policy::Quirk inbox;
    inbox.match_class = "nic";
    inbox.initial_trust = policy::TrustState::kTrusted;
    config.policy.quirks.push_back(inbox);
    core::Machine machine{config};
    Plug(machine, 95, "i40e", "nic");
    const DeviceId scanner = Plug(machine, 96, "scanner", "usb");
    (void)machine.policy()->Promote(scanner);
    (void)machine.policy()->Demote(scanner, "drill");
    (void)machine.policy()->Promote(scanner);  // refused: cooldown
    machine.clock().AdvanceUs(3);
    return machine.policy()->PostureJson();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  // Spot-check the HSI-style surface.
  const std::optional<json::Value> posture = json::Parse(first);
  ASSERT_TRUE(posture.has_value()) << first;
  EXPECT_TRUE(posture->Bool("policy_enabled"));
  const json::Value* devices = posture->Find("devices");
  ASSERT_NE(devices, nullptr);
  ASSERT_EQ(devices->array.size(), 2u);
  const json::Value& scanner = devices->array[1];
  EXPECT_EQ(scanner.Str("model"), "scanner");
  EXPECT_EQ(scanner.Str("trust"), "untrusted");
  EXPECT_EQ(scanner.U64("promotions_blocked"), 1u);
}

// The engine's sink is subscribed to its five demotion triggers: each one,
// published through the Hub, queues a demotion that Poll applies; other
// kinds queue none.
TEST(PolicySink, EveryTriggerKindQueuesADemotion) {
  using telemetry::EventKind;
  const EventKind kTriggers[] = {EventKind::kDeviceQuarantined, EventKind::kHealthBreach,
                                 EventKind::kDkasanReport, EventKind::kSpadeFinding,
                                 EventKind::kStaleIotlbHit};
  core::MachineConfig config = PolicyConfig();
  policy::Quirk inbox;
  inbox.match_class = "probe";
  inbox.initial_trust = policy::TrustState::kTrusted;
  config.policy.quirks.push_back(inbox);
  core::Machine machine{config};
  policy::PolicyEngine* engine = machine.policy();
  auto publish = [&machine](EventKind kind, DeviceId dev) {
    telemetry::Event event;
    event.kind = kind;
    event.severity = telemetry::Severity::kWarn;
    event.device = dev.value;
    machine.telemetry().Publish(event);
  };

  const DeviceId bystander = Plug(machine, 90, "probe-dev", "probe");
  publish(EventKind::kIommuFault, bystander);
  publish(EventKind::kTrustDemoted, bystander);
  EXPECT_EQ(engine->Poll(), 0u);
  EXPECT_EQ(engine->state(bystander), policy::TrustState::kTrusted);
  uint32_t id = 91;
  for (const EventKind trigger : kTriggers) {
    const DeviceId dev = Plug(machine, id++, "probe-dev", "probe");
    ASSERT_EQ(engine->state(dev), policy::TrustState::kTrusted);
    publish(trigger, dev);
    EXPECT_EQ(engine->Poll(), 1u) << telemetry::EventKindName(trigger);
    EXPECT_EQ(engine->state(dev), policy::TrustState::kUntrusted)
        << telemetry::EventKindName(trigger);
  }
}

TEST(PolicyPosture, DisabledEngineRefusesRegistration) {
  core::MachineConfig config;
  config.seed = 3;
  core::Machine machine{config};
  EXPECT_EQ(machine.policy(), nullptr);
  EXPECT_EQ(machine.bounce_pool(), nullptr);
}

}  // namespace
}  // namespace spv
