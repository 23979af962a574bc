// spv::recovery — quarantine, supervised re-attach, permanent detach — plus
// the kRevoked status unification, the deferred flush-queue drain regression,
// the NIC poll-deadline budget, and a fixed-seed short-soak smoke.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/machine.h"
#include "device/malicious_nic.h"
#include "fault/fault.h"
#include "net/layouts.h"
#include "recovery/recovery.h"
#include "soak/soak.h"

namespace spv {
namespace {

struct SweepCase {
  iommu::InvalidationMode mode;
  bool fast_path;
};

std::string CaseName(const SweepCase& c) {
  return std::string(c.mode == iommu::InvalidationMode::kStrict ? "strict" : "deferred") +
         (c.fast_path ? "/fast" : "/legacy");
}

const SweepCase kSweep[] = {
    {iommu::InvalidationMode::kDeferred, true},
    {iommu::InvalidationMode::kDeferred, false},
    {iommu::InvalidationMode::kStrict, true},
    {iommu::InvalidationMode::kStrict, false},
};

core::MachineConfig SupervisedConfig(const SweepCase& c, uint64_t seed = 99) {
  core::MachineConfig config;
  config.seed = seed;
  config.iommu.mode = c.mode;
  config.iommu.fast_path.enabled = c.fast_path;
  config.telemetry.enabled = true;
  config.recovery.enabled = true;
  config.recovery.reattach_backoff_cycles = SimClock::UsToCycles(10);
  config.recovery.probation_cycles = SimClock::UsToCycles(10);
  return config;
}

// Drives the device's health score over the threshold with an IOMMU fault
// storm (wild DMA writes the translation tables reject).
void FaultStorm(device::MaliciousNic& device, int writes = 30) {
  for (int i = 0; i < writes; ++i) {
    EXPECT_FALSE(
        device.port().WriteU64(Iova{(1ull << 40) + (uint64_t{kPageSize} * i)}, 0xbad).ok());
  }
}

// ---- Health-triggered lifecycle, swept over mode x path ------------------------

TEST(RecoveryLifecycle, BreachQuarantineReattachProbationSweep) {
  for (const SweepCase& c : kSweep) {
    SCOPED_TRACE(CaseName(c));
    core::Machine machine{SupervisedConfig(c)};
    net::NicDriver::Config nic_config;
    nic_config.rx_ring_size = 8;
    net::NicDriver& nic = machine.AddNicDriver(nic_config);
    device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
    nic.AttachDevice(&device);
    ASSERT_TRUE(nic.FillRxRing().ok());
    ASSERT_GT(machine.dma().live_mappings(), 0u);

    FaultStorm(device);
    EXPECT_EQ(machine.recovery().state(nic.device_id()), recovery::DeviceState::kHealthy);
    EXPECT_GT(machine.recovery().Poll(), 0u);
    EXPECT_EQ(machine.recovery().state(nic.device_id()),
              recovery::DeviceState::kQuarantined);

    // Quarantine revoked every mapping and fenced the device.
    EXPECT_EQ(machine.dma().live_mappings(), 0u);
    EXPECT_TRUE(machine.iommu().IsFenced(nic.device_id()));
    EXPECT_EQ(machine.iommu().pending_invalidations().size(), 0u)
        << "quarantine must drain the fenced device's flush-queue entries";
    device.rx_posted().clear();  // device reset: stale descriptors are gone

    // Too early: the backoff window holds.
    EXPECT_EQ(machine.recovery().Poll(), 0u);

    machine.clock().AdvanceUs(11);
    EXPECT_GT(machine.recovery().Poll(), 0u);
    EXPECT_EQ(machine.recovery().state(nic.device_id()), recovery::DeviceState::kProbation);
    EXPECT_FALSE(machine.iommu().IsFenced(nic.device_id()));
    EXPECT_GT(machine.dma().live_mappings(), 0u) << "re-attach must refill the RX ring";
    EXPECT_FALSE(device.rx_posted().empty());

    machine.clock().AdvanceUs(11);
    EXPECT_GT(machine.recovery().Poll(), 0u);
    EXPECT_EQ(machine.recovery().state(nic.device_id()), recovery::DeviceState::kHealthy);
    EXPECT_EQ(machine.recovery().device_status(nic.device_id()).reattach_attempts, 0u)
        << "a clean probation restores the retry budget";

    Status invariants = machine.CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.message();
  }
}

TEST(RecoveryLifecycle, HealthScoreBreachesAt24PointsAndHalvesEvery50Ms) {
  SweepCase c{iommu::InvalidationMode::kDeferred, true};
  core::Machine machine{SupervisedConfig(c)};
  net::NicDriver& nic = machine.AddNicDriver({});
  recovery::HealthScorer& scorer = machine.recovery().scorer();
  auto fault = [&] {
    telemetry::Event event;
    event.kind = telemetry::EventKind::kIommuFault;
    event.severity = telemetry::Severity::kWarn;
    event.device = nic.device_id().value;
    machine.telemetry().Publish(event);
  };

  // An IOMMU fault weighs one point; 23 of them in one cycle stay below the
  // threshold and the 24th crosses it.
  for (int i = 0; i < 23; ++i) {
    fault();
  }
  const uint64_t now = machine.clock().now();
  EXPECT_DOUBLE_EQ(scorer.ScoreAt(nic.device_id(), now), 23.0);
  EXPECT_TRUE(scorer.TakeBreaches().empty());
  fault();
  EXPECT_DOUBLE_EQ(scorer.ScoreAt(nic.device_id(), now), 24.0);
  const std::vector<DeviceId> breaches = scorer.TakeBreaches();
  ASSERT_EQ(breaches.size(), 1u);
  EXPECT_EQ(breaches[0], nic.device_id());
  // The score's half-life is 50 ms of sim time.
  EXPECT_DOUBLE_EQ(scorer.ScoreAt(nic.device_id(), now + SimClock::MsToCycles(50)), 12.0);
}

// The scorer is subscribed to exactly its weighted kinds: each one, published
// through the Hub, raises a tracked device's score, and nothing else does.
TEST(RecoveryLifecycle, EveryWeightedKindRaisesTheScoreThroughTheHub) {
  using telemetry::EventKind;
  const struct {
    EventKind kind;
    double weight;
  } kWeighted[] = {
      {EventKind::kIommuFault, 1.0},          {EventKind::kNicTxReset, 8.0},
      {EventKind::kNvmeQueueReset, 8.0},      {EventKind::kStaleIotlbHit, 5.0},
      {EventKind::kDkasanReport, 25.0},       {EventKind::kSpadeFinding, 25.0},
      {EventKind::kNicRxError, 2.0},          {EventKind::kNvmeCompletionError, 2.0},
      {EventKind::kNicPollDeadline, 2.0},     {EventKind::kNvmePollDeadline, 2.0},
  };
  const DeviceId dev{7};
  telemetry::Hub hub;  // recording off: the scorer still hears its kinds
  recovery::HealthScorer scorer;
  scorer.Track(dev);
  hub.AddSink(&scorer);
  double expected = 0.0;
  for (const auto& [kind, weight] : kWeighted) {
    telemetry::Event event;
    event.kind = kind;
    event.device = dev.value;
    hub.Publish(event);  // no clock bound: every event lands at cycle 0
    expected += weight;
    EXPECT_DOUBLE_EQ(scorer.ScoreAt(dev, 0), expected) << telemetry::EventKindName(kind);
  }
  telemetry::Event unweighted;
  unweighted.kind = EventKind::kDmaMap;
  unweighted.device = dev.value;
  hub.Publish(unweighted);
  EXPECT_DOUBLE_EQ(scorer.ScoreAt(dev, 0), expected);
  hub.RemoveSink(&scorer);
}

TEST(RecoveryLifecycle, RetryBudgetExhaustionDetachesPermanently) {
  SweepCase c{iommu::InvalidationMode::kDeferred, true};
  core::MachineConfig config = SupervisedConfig(c);
  config.recovery.max_reattach_attempts = 1;
  core::Machine machine{config};
  net::NicDriver& nic = machine.AddNicDriver({});
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);
  ASSERT_TRUE(nic.FillRxRing().ok());

  FaultStorm(device);
  ASSERT_GT(machine.recovery().Poll(), 0u);  // quarantine #1
  device.rx_posted().clear();
  machine.clock().AdvanceUs(11);
  ASSERT_GT(machine.recovery().Poll(), 0u);  // re-attach attempt 1 -> probation
  ASSERT_EQ(machine.recovery().state(nic.device_id()), recovery::DeviceState::kProbation);

  FaultStorm(device);  // misbehaves on probation
  ASSERT_GT(machine.recovery().Poll(), 0u);  // quarantine #2, backoff doubled
  device.rx_posted().clear();
  const auto status = machine.recovery().device_status(nic.device_id());
  EXPECT_EQ(status.quarantines, 2u);

  machine.clock().AdvanceUs(100);
  ASSERT_GT(machine.recovery().Poll(), 0u);  // attempt 2 > budget -> detach
  EXPECT_EQ(machine.recovery().state(nic.device_id()), recovery::DeviceState::kDetached);
  EXPECT_EQ(machine.recovery().total_detaches(), 1u);
  EXPECT_FALSE(machine.iommu().IsAttached(nic.device_id()));
  EXPECT_TRUE(machine.iommu().IsRevoked(nic.device_id()));

  // Detached is terminal: more time and more polls change nothing.
  machine.clock().AdvanceUs(1000);
  EXPECT_EQ(machine.recovery().Poll(), 0u);
  EXPECT_EQ(machine.recovery().state(nic.device_id()), recovery::DeviceState::kDetached);

  Status invariants = machine.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.message();
}

// ---- Satellite (a): one status code, idempotent transitions --------------------

TEST(RevokedStatus, QuarantineAndDetachUnifyOnKRevoked) {
  core::Machine machine{SupervisedConfig({iommu::InvalidationMode::kDeferred, true})};
  net::NicDriver& nic = machine.AddNicDriver({});
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);
  ASSERT_TRUE(nic.FillRxRing().ok());
  const DeviceId id = nic.device_id();

  ASSERT_TRUE(machine.recovery().Quarantine(id, "test").ok());

  // Every device-side and DMA-API operation answers with kRevoked.
  EXPECT_EQ(device.port().WriteU64(Iova{0x1000}, 1).code(), StatusCode::kRevoked);
  uint8_t byte = 0;
  EXPECT_EQ(device.port().Read(Iova{0x1000}, {&byte, 1}).code(), StatusCode::kRevoked);
  Result<Kva> buf = machine.slab().Kmalloc(256, "revoked_test");
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(
      machine.dma().MapSingle(id, *buf, 256, dma::DmaDirection::kFromDevice).status().code(),
      StatusCode::kRevoked);
  EXPECT_GT(machine.iommu().stats().fenced_accesses, 0u);
  EXPECT_GT(machine.telemetry().counter_value("iommu.fenced_accesses"), 0u);

  // A never-attached device stays kInvalidArgument — revocation is a memory,
  // not a default.
  const DeviceId stranger{4242};
  device::DevicePort stranger_port{machine.iommu(), stranger};
  EXPECT_EQ(stranger_port.WriteU64(Iova{0x1000}, 1).code(), StatusCode::kInvalidArgument);

  // Same answer after permanent detach.
  ASSERT_TRUE(machine.recovery().Detach(id, "test").ok());
  EXPECT_EQ(device.port().WriteU64(Iova{0x1000}, 1).code(), StatusCode::kRevoked);
  EXPECT_EQ(
      machine.dma().MapSingle(id, *buf, 256, dma::DmaDirection::kFromDevice).status().code(),
      StatusCode::kRevoked);
  ASSERT_TRUE(machine.slab().Kfree(*buf).ok());

  Status invariants = machine.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.message();
}

TEST(RevokedStatus, QuarantineAndDetachAreIdempotent) {
  core::Machine machine{SupervisedConfig({iommu::InvalidationMode::kDeferred, true})};
  net::NicDriver& nic = machine.AddNicDriver({});
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);
  ASSERT_TRUE(nic.FillRxRing().ok());
  const DeviceId id = nic.device_id();

  EXPECT_TRUE(machine.recovery().Quarantine(id, "first").ok());
  EXPECT_TRUE(machine.recovery().Quarantine(id, "second").ok());
  EXPECT_EQ(machine.recovery().device_status(id).quarantines, 1u)
      << "double quarantine must not re-run the teardown";
  EXPECT_EQ(machine.recovery().total_quarantines(), 1u);

  EXPECT_TRUE(machine.iommu().FenceDevice(id).ok());  // IOMMU layer: also a no-op

  EXPECT_TRUE(machine.recovery().Detach(id, "first").ok());
  EXPECT_TRUE(machine.recovery().Detach(id, "second").ok());
  EXPECT_TRUE(machine.iommu().DetachDevice(id).ok());
  EXPECT_EQ(machine.recovery().total_detaches(), 1u);
  EXPECT_EQ(machine.iommu().stats().device_detaches, 1u);

  // Unknown devices are NotFound at both layers.
  EXPECT_EQ(machine.recovery().Quarantine(DeviceId{777}, "x").code(), StatusCode::kNotFound);
  EXPECT_EQ(machine.iommu().DetachDevice(DeviceId{777}).code(), StatusCode::kNotFound);

  Status invariants = machine.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.message();
}

TEST(RevokedStatus, StackShedsTrafficForQuarantinedEgress) {
  core::Machine machine{SupervisedConfig({iommu::InvalidationMode::kDeferred, true})};
  net::NicDriver& nic = machine.AddNicDriver({});
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);
  machine.stack().set_egress(&nic);
  ASSERT_TRUE(nic.FillRxRing().ok());

  net::PacketHeader header{.src_ip = machine.stack().config().local_ip,
                           .dst_ip = 0x0a000042,
                           .src_port = 1000,
                           .dst_port = 2000,
                           .proto = net::kProtoUdp};
  std::vector<uint8_t> payload(100, 0x11);
  ASSERT_TRUE(machine.stack().SendPacket(header, payload).ok());
  EXPECT_EQ(machine.stack().stats().tx_shed, 0u);

  ASSERT_TRUE(machine.recovery().Quarantine(nic.device_id(), "test").ok());
  // Shedding is service continuity, not an error: SendPacket still returns Ok.
  EXPECT_TRUE(machine.stack().SendPacket(header, payload).ok());
  EXPECT_EQ(machine.stack().stats().tx_shed, 1u);
  EXPECT_GT(machine.telemetry().counter_value("stack.tx_shed"), 0u);

  Status invariants = machine.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.message();
}

// ---- Satellite (b): deferred flush-queue entries drain on quarantine -----------

TEST(QuarantineDrain, DeferredEntriesDrainAndStaleWindowCloses) {
  for (const SweepCase& c : kSweep) {
    SCOPED_TRACE(CaseName(c));
    core::Machine machine{SupervisedConfig(c)};
    const DeviceId id{42};
    machine.iommu().AttachDevice(id);
    device::DevicePort port{machine.iommu(), id};

    Result<Kva> buf = machine.slab().Kmalloc(1024, "drain_test");
    ASSERT_TRUE(buf.ok());
    Result<Iova> iova =
        machine.dma().MapSingle(id, *buf, 1024, dma::DmaDirection::kFromDevice);
    ASSERT_TRUE(iova.ok());
    // Warm the IOTLB, then unmap: in deferred mode this queues the
    // invalidation and leaves the stale entry translating (the Fig 6 window).
    ASSERT_TRUE(port.WriteU64(*iova, 0xabc).ok());
    ASSERT_TRUE(
        machine.dma().UnmapSingle(id, *iova, 1024, dma::DmaDirection::kFromDevice).ok());
    const bool deferred = c.mode == iommu::InvalidationMode::kDeferred;
    EXPECT_EQ(machine.iommu().pending_invalidations().empty(), !deferred);
    if (deferred) {
      // The stale window is open: the unmapped IOVA still translates.
      EXPECT_TRUE(port.WriteU64(*iova, 0xdef).ok());
    }

    const uint64_t drained_before = machine.iommu().stats().drained_device_entries;
    ASSERT_TRUE(machine.iommu().FenceDevice(id).ok());
    EXPECT_TRUE(machine.iommu().pending_invalidations().empty());
    EXPECT_EQ(machine.iommu().stats().drained_device_entries > drained_before, deferred)
        << "only deferred mode has queue entries to drain";

    // The fence lifts — and the stale window must NOT reopen: the drain
    // invalidated the IOTLB entries before recycling the parked IOVAs.
    ASSERT_TRUE(machine.iommu().UnfenceDevice(id).ok());
    EXPECT_FALSE(port.WriteU64(*iova, 0x123).ok())
        << "unmapped IOVA must not translate after a quarantine drain";

    ASSERT_TRUE(machine.slab().Kfree(*buf).ok());
    Status invariants = machine.CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.message();
  }
}

TEST(QuarantineDrain, DrainSparesOtherDevicesQueueEntries) {
  core::MachineConfig config =
      SupervisedConfig({iommu::InvalidationMode::kDeferred, true});
  core::Machine machine{config};
  const DeviceId victim{42};
  const DeviceId bystander{43};
  machine.iommu().AttachDevice(victim);
  machine.iommu().AttachDevice(bystander);

  for (DeviceId id : {victim, bystander}) {
    Result<Kva> buf = machine.slab().Kmalloc(512, "drain_pair");
    ASSERT_TRUE(buf.ok());
    Result<Iova> iova = machine.dma().MapSingle(id, *buf, 512, dma::DmaDirection::kFromDevice);
    ASSERT_TRUE(iova.ok());
    ASSERT_TRUE(machine.dma().UnmapSingle(id, *iova, 512, dma::DmaDirection::kFromDevice).ok());
    ASSERT_TRUE(machine.slab().Kfree(*buf).ok());
  }
  ASSERT_EQ(machine.iommu().pending_invalidations().size(), 2u);

  ASSERT_TRUE(machine.iommu().FenceDevice(victim).ok());
  const auto pending = machine.iommu().pending_invalidations();
  ASSERT_EQ(pending.size(), 1u) << "the bystander's deferred entry must survive";
  EXPECT_EQ(pending[0].device.value, bystander.value);

  Status invariants = machine.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.message();
}

// ---- Satellite (c): bounded NIC polling loops ----------------------------------

TEST(PollDeadline, FillRxRingYieldsAndRetriesFinishTheJob) {
  core::MachineConfig config;
  config.seed = 5;
  config.telemetry.enabled = true;
  core::Machine machine{config};
  net::NicDriver::Config nic_config;
  nic_config.rx_ring_size = 8;
  // A one-cycle budget: the first slot's map work exhausts it, so every poll
  // posts exactly one buffer and yields.
  nic_config.poll_deadline_cycles = 1;
  net::NicDriver& nic = machine.AddNicDriver(nic_config);
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);

  (void)nic.FillRxRing();
  EXPECT_GE(nic.poll_deadline_hits(), 1u);
  EXPECT_LT(device.rx_posted().size(), 8u) << "the loop must yield, not run to completion";
  EXPECT_GT(machine.telemetry().counter_value("nic.poll_deadline_exceeded"), 0u);

  // The budget bounds each poll, not overall progress: repeated retries fill
  // the ring one slot at a time.
  for (int i = 0; i < 16 && device.rx_posted().size() < 8u; ++i) {
    (void)nic.RetryRefills();
  }
  EXPECT_EQ(device.rx_posted().size(), 8u);

  ASSERT_TRUE(nic.Shutdown().ok());
  Status invariants = machine.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.message();
}

// ---- Recovery disabled: the paper's world is untouched -------------------------

TEST(RecoveryDisabled, FaultStormsDoNotQuarantine) {
  core::MachineConfig config;
  config.seed = 6;
  config.telemetry.enabled = true;  // scorer must stay off the bus regardless
  core::Machine machine{config};
  net::NicDriver& nic = machine.AddNicDriver({});
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);
  ASSERT_TRUE(nic.FillRxRing().ok());

  FaultStorm(device, 100);
  EXPECT_EQ(machine.recovery().Poll(), 0u);
  EXPECT_EQ(machine.recovery().state(nic.device_id()), recovery::DeviceState::kHealthy);
  EXPECT_EQ(machine.recovery().total_quarantines(), 0u);
  EXPECT_FALSE(machine.iommu().IsFenced(nic.device_id()));

  ASSERT_TRUE(nic.Shutdown().ok());
  Status invariants = machine.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.message();
}

// ---- Satellite (d): fixed-seed short-soak smoke --------------------------------

TEST(SoakSmoke, FixedSeedShortSoakEndsClean) {
  soak::SoakConfig config;
  config.seed = 1234;
  config.target_cycles = UINT64_MAX;  // epoch-pinned for a stable runtime
  config.max_epochs = 60;
  const soak::SoakReport report = soak::RunSoak(config);
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.epochs, 60u);
  EXPECT_GT(report.echo_ok, 0u);
  EXPECT_GT(report.faults_injected, 0u);
  EXPECT_GT(report.quarantines, 0u) << "the abuse storm must trip supervision";
  EXPECT_EQ(report.leaked_mappings, 0u);
  EXPECT_EQ(report.leaked_iova_entries, 0u);

  // Determinism: the same seed and config reproduce the report byte for byte.
  const soak::SoakReport again = soak::RunSoak(config);
  EXPECT_EQ(report.ToJson(), again.ToJson());
}

TEST(SoakSmoke, RecoveryOffSoakStaysLeakFree) {
  soak::SoakConfig config;
  config.seed = 1234;
  config.target_cycles = UINT64_MAX;
  config.max_epochs = 40;
  config.recovery_enabled = false;
  const soak::SoakReport report = soak::RunSoak(config);
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.quarantines, 0u);
  EXPECT_EQ(report.leaked_mappings, 0u);
}

}  // namespace
}  // namespace spv
