// spv::forensics — flight recorder + incident engine (ISSUE 9 satellite 3).
//
// Three layers of coverage:
//   * unit — ring overflow accounting (dropped_critical parity with the
//     telemetry trace ring) and the mapping ledger's lifecycle edges;
//   * classifier — every paper attack class replayed against a real machine
//     (the nvme_attack_test recipes) and labeled correctly from recorded
//     evidence alone: (a)–(d) in strict mode via manual OpenIncident,
//     Poisoned Completion in deferred mode via the automatic
//     kStaleIotlbHit trigger;
//   * system — same-seed runs freeze byte-identical reports, multi-CPU
//     churn records and freezes clean, a disabled machine pays one null
//     branch, and the soak harness embeds a deterministic forensics block.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "base/clock.h"
#include "base/exec.h"
#include "base/json.h"
#include "core/machine.h"
#include "device/device_port.h"
#include "fault/fault.h"
#include "forensics/flight_recorder.h"
#include "forensics/incident.h"
#include "nvme/malicious_nvme.h"
#include "nvme/nvme_driver.h"
#include "policy/policy.h"
#include "soak/soak.h"
#include "trace/tracer.h"

namespace spv::forensics {
namespace {

core::MachineConfig BaseConfig(uint64_t seed, iommu::InvalidationMode mode) {
  core::MachineConfig config;
  config.seed = seed;
  config.phys_pages = 4096;
  config.iommu.mode = mode;
  config.forensics.enabled = true;
  return config;
}

struct EvilRig {
  explicit EvilRig(core::MachineConfig mc,
                   nvme::NvmeDriver::Config dc = nvme::NvmeDriver::Config{})
      : machine(mc),
        driver(machine.AddNvmeDriver(dc)),
        controller(device::DevicePort{machine.iommu(), driver.device_id()}) {
    controller.set_fault_engine(&machine.fault());
    controller.set_tracer(machine.tracer());
    driver.AttachDevice(&controller);
  }

  core::Machine machine;
  nvme::NvmeDriver& driver;
  nvme::MaliciousNvme controller;
};

AttackClass Classify(core::Machine& machine, DeviceId device,
                     size_t* implicated = nullptr) {
  FlightRecorder* recorder = machine.flight_recorder();
  EXPECT_NE(recorder, nullptr);
  return ClassifyEvidence(recorder->SnapshotTimeline(device),
                          recorder->SnapshotLedger(device), implicated);
}

// ---- Unit: ring overflow accounting --------------------------------------------

TEST(FlightRecorderUnit, OverflowAccountsDropsByClassOfLostRecord) {
  ForensicsConfig config;
  config.enabled = true;
  config.ring_capacity = 4;
  SimClock clock;
  FlightRecorder recorder(&clock, config);
  const DeviceId dev{9};

  for (int i = 0; i < 4; ++i) {
    recorder.RecordAccess(dev, Iova{0x1000u + 8u * i}, 0x5000, 8, false);
  }
  EXPECT_EQ(recorder.total_recorded(), 4u);
  EXPECT_EQ(recorder.total_dropped(), 0u);

  // Two faults overwrite the two oldest accesses: info-class losses.
  recorder.RecordFault(dev, Iova{0x2000}, kPageSize, true);
  recorder.RecordFault(dev, Iova{0x3000}, kPageSize, true);
  EXPECT_EQ(recorder.total_dropped(), 2u);
  EXPECT_EQ(recorder.total_dropped_critical(), 0u);

  // Four more accesses overwrite the remaining accesses AND both faults:
  // losing a fault record is a critical drop, same fail-loud parity the
  // telemetry trace ring keeps for Severity::kCritical.
  for (int i = 0; i < 4; ++i) {
    recorder.RecordAccess(dev, Iova{0x4000u + 8u * i}, 0x6000, 8, true);
  }
  EXPECT_EQ(recorder.total_recorded(), 10u);
  EXPECT_EQ(recorder.total_dropped(), 6u);
  EXPECT_EQ(recorder.total_dropped_critical(), 2u);

  const std::string json = recorder.AccountingJson();
  EXPECT_NE(json.find("\"dropped_critical\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"recorded\":10"), std::string::npos) << json;

  // The snapshot keeps the most recent history: all four surviving records
  // are the newest accesses.
  const std::vector<FlightRecord> survivors = recorder.SnapshotTimeline(dev);
  ASSERT_EQ(survivors.size(), 4u);
  for (const FlightRecord& r : survivors) {
    EXPECT_EQ(r.op, RecordOp::kDeviceWrite);
  }
}

TEST(FlightRecorderUnit, LedgerTracksFullLifecycleAndEvictsOldest) {
  ForensicsConfig config;
  config.enabled = true;
  config.ledger_capacity = 2;
  SimClock clock;
  FlightRecorder recorder(&clock, config);
  const DeviceId dev{3};

  clock.Advance(10);
  recorder.RecordMap(dev, Iova{0x10000}, Kva{0xffff800000001080}, 256, 1, false,
                     "unit_map");
  clock.Advance(5);
  recorder.RecordAccess(dev, Iova{0x10010}, 0x5010, 16, true);
  clock.Advance(5);
  recorder.RecordUnmap(dev, Iova{0x10000}, 256, 1, false);
  clock.Advance(5);
  recorder.RecordStaleHit(dev, Iova{0x10000}, 0x5000);
  clock.Advance(5);
  recorder.RecordFlush(dev, Iova{0x10000}, 1, /*cost=*/2, "flush:manual");

  std::vector<MappingLife> ledger = recorder.SnapshotLedger(dev);
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].generation, 1u);
  EXPECT_EQ(ledger[0].map_cycle, 10u);
  EXPECT_EQ(ledger[0].accesses, 1u);
  EXPECT_EQ(ledger[0].unmap_cycle, 20u);
  EXPECT_EQ(ledger[0].stale_hits, 1u);
  EXPECT_EQ(ledger[0].flush_cycle, 30u);

  // The access record was attributed to generation 1 while the life was live.
  bool saw_attributed_access = false;
  for (const FlightRecord& r : recorder.SnapshotTimeline(dev)) {
    if (r.op == RecordOp::kDeviceWrite) {
      EXPECT_EQ(r.generation, 1u);
      saw_attributed_access = true;
    }
  }
  EXPECT_TRUE(saw_attributed_access);

  // A bounded ledger evicts its oldest retired life, loudly; a mapped life
  // is never evicted.
  recorder.RecordMap(dev, Iova{0x20000}, Kva{0xffff800000002000}, 64, 0, false,
                     "unit_map2");
  recorder.RecordMap(dev, Iova{0x30000}, Kva{0xffff800000003000}, 64, 0, false,
                     "unit_map3");
  EXPECT_EQ(recorder.SnapshotLedger(dev).size(), 3u);
  EXPECT_EQ(recorder.ledger_dropped(), 0u);
  for (const uint64_t iova : {0x20000u, 0x30000u}) {
    recorder.RecordUnmap(dev, Iova{iova}, 64, 0, false);
    recorder.RecordFlush(dev, Iova{iova}, 1, /*cost=*/2, "flush:manual");
  }
  ledger = recorder.SnapshotLedger(dev);
  ASSERT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger[0].generation, 2u);
  EXPECT_EQ(recorder.ledger_dropped(), 1u);
}

// A CPU that never records on a device gets no ring: only CPU 1's ring
// appears in the timeline and in the accounting.
TEST(FlightRecorderUnit, OnlyARecordingCpuHasARing) {
  ForensicsConfig config;
  config.enabled = true;
  SimClock clock;
  FlightRecorder recorder(&clock, config, /*num_cpus=*/2);
  const DeviceId dev{4};

  SetCurrentCpu(CpuId{1});
  recorder.RecordMap(dev, Iova{0x10000}, Kva{0xffff800000001000}, 512, 1, false, "cpu1_map");
  clock.Advance(3);
  recorder.RecordAccess(dev, Iova{0x10008}, 0x5008, 8, true);
  SetCurrentCpu(CpuId{0});

  const std::vector<FlightRecord> timeline = recorder.SnapshotTimeline(dev);
  ASSERT_EQ(timeline.size(), 2u);
  for (size_t i = 0; i < timeline.size(); ++i) {
    EXPECT_EQ(timeline[i].cpu, 1u);
    EXPECT_EQ(timeline[i].seq, i);
  }
  EXPECT_EQ(timeline[1].op, RecordOp::kDeviceWrite);
  EXPECT_EQ(timeline[1].generation, 1u);

  std::optional<json::Value> doc = json::Parse(recorder.AccountingJson());
  ASSERT_TRUE(doc.has_value());
  const std::vector<json::Value>& rings = doc->Find("rings")->array;
  ASSERT_EQ(rings.size(), 1u);
  EXPECT_EQ(rings[0].U64("device"), 4u);
  EXPECT_EQ(rings[0].U64("cpu"), 1u);
  EXPECT_EQ(rings[0].U64("recorded"), 2u);
  EXPECT_EQ(rings[0].U64("dropped"), 0u);
}

// Lanes are listed in ascending device order whatever order they appeared in.
TEST(FlightRecorderUnit, AccountingListsDevicesInAscendingOrder) {
  ForensicsConfig config;
  config.enabled = true;
  SimClock clock;
  FlightRecorder recorder(&clock, config);
  for (const uint32_t device : {2005u, 7u, 910u, 1u}) {
    recorder.RecordFault(DeviceId{device}, Iova{0x1000}, kPageSize, false);
  }
  std::optional<json::Value> doc = json::Parse(recorder.AccountingJson());
  ASSERT_TRUE(doc.has_value());
  std::vector<uint64_t> ring_devices;
  for (const json::Value& ring : doc->Find("rings")->array) {
    ring_devices.push_back(ring.U64("device"));
  }
  std::vector<uint64_t> ledger_devices;
  for (const json::Value& ledger : doc->Find("ledgers")->array) {
    ledger_devices.push_back(ledger.U64("device"));
  }
  const std::vector<uint64_t> ascending = {1, 7, 910, 2005};
  EXPECT_EQ(ring_devices, ascending);
  EXPECT_EQ(ledger_devices, ascending);
}

telemetry::Event DkasanReport(uint64_t cycle) {
  telemetry::Event event;
  event.kind = telemetry::EventKind::kDkasanReport;
  event.cycle = cycle;
  return event;
}

// An evicted life's slot serves the next map. The life in it starts clean:
// none of the old life's site, accesses, stale hits, detection or spans.
TEST(FlightRecorderUnit, ALifeInAReusedSlotCarriesNothingOfTheEvictedOne) {
  SimClock clock;
  telemetry::Hub::Config hub_config;
  hub_config.enabled = true;
  telemetry::Hub hub{hub_config};
  hub.BindClock(&clock);
  trace::Tracer tracer{hub, clock};
  ForensicsConfig config;
  config.enabled = true;
  config.ledger_capacity = 1;
  FlightRecorder recorder(&clock, config);
  recorder.set_tracer(&tracer);
  const DeviceId dev{6};
  const Iova iova{0x10000};

  // Life 1: a writable sub-page mapping, touched, unmapped, hit stale,
  // caught by D-KASAN, then revoked.
  clock.Advance(10);
  recorder.RecordMap(dev, iova, Kva{0xffff800000001000}, 256, 1, false,
                     "the evicted life's long site");
  recorder.RecordAccess(dev, Iova{0x10010}, 0x5010, 16, true);
  recorder.RecordAccess(dev, Iova{0x10020}, 0x5020, 16, false);
  clock.Advance(10);
  recorder.RecordUnmap(dev, iova, 256, 1, false);
  clock.Advance(10);
  recorder.RecordStaleHit(dev, iova, 0x5000);
  recorder.OnEvent(DkasanReport(clock.now()));
  clock.Advance(10);
  recorder.RecordFlush(dev, iova, 1, /*cost=*/2, "flush:manual");
  const std::vector<Window> old_windows = recorder.SnapshotWindows(dev);
  ASSERT_EQ(old_windows.size(), 2u);
  ASSERT_TRUE(old_windows[1].detected);
  ASSERT_TRUE(old_windows[0].span.valid());
  ASSERT_TRUE(old_windows[1].span.valid());

  // Life 2 retires and evicts life 1.
  recorder.RecordMap(dev, Iova{0x20000}, Kva{0xffff800000002000}, 64, 0, false, "second");
  recorder.RecordUnmap(dev, Iova{0x20000}, 64, 0, false);
  recorder.RecordFlush(dev, Iova{0x20000}, 1, /*cost=*/2, "flush:manual");
  ASSERT_EQ(recorder.ledger_dropped(), 1u);

  // Life 3 takes the freed slot: strict order, so its stale window is
  // closed on arrival and gets no span.
  clock.Advance(10);
  recorder.RecordMap(dev, iova, Kva{0xffff800000003000}, 256, 1, false, "third");
  clock.Advance(10);
  recorder.RecordFlush(dev, iova, 1, /*cost=*/2, "strict");
  recorder.RecordUnmap(dev, iova, 256, 1, false);

  const std::vector<MappingLife> ledger = recorder.SnapshotLedger(dev);
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].generation, 3u);
  EXPECT_EQ(ledger[0].site, "third");
  EXPECT_EQ(ledger[0].accesses, 0u);
  EXPECT_EQ(ledger[0].stale_hits, 0u);
  const std::vector<Window> windows = recorder.SnapshotWindows(dev);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].kind, WindowKind::kSubPage);
  EXPECT_TRUE(windows[0].span.valid());
  EXPECT_NE(windows[0].span, old_windows[0].span);
  EXPECT_NE(windows[0].span, old_windows[1].span);
  EXPECT_EQ(windows[1].kind, WindowKind::kStaleIotlb);
  EXPECT_FALSE(windows[1].span.valid());
  EXPECT_FALSE(windows[1].detected);
  EXPECT_EQ(windows[1].device_hits, 0u);
  EXPECT_EQ(windows[1].first_hit_cycle, 0u);
  EXPECT_EQ(windows[1].close_reason, "strict");
  EXPECT_EQ(tracer.orphan_closes(), 0u);
}

// The detection fallback names the most recent stale window's life. Once that
// life is evicted it names none, not the life that reused its slot, and the
// latency is still measured from the window's open.
TEST(FlightRecorderUnit, DetectionFallbackFindsNoTargetOnceTheLifeIsEvicted) {
  ForensicsConfig config;
  config.enabled = true;
  config.ledger_capacity = 1;
  SimClock clock;
  FlightRecorder recorder(&clock, config);
  const DeviceId dev{8};
  const Iova iova{0x30000};

  clock.Advance(100);
  recorder.RecordMap(dev, iova, Kva{0xffff800000004000}, 256, 1, false, "stale_one");
  clock.Advance(100);
  recorder.RecordUnmap(dev, iova, 256, 1, false);  // the stale window opens at 200
  clock.Advance(100);
  recorder.RecordFlush(dev, iova, 1, /*cost=*/2, "flush:manual");
  // A bounced life opens no stale window; retiring it evicts the stale one.
  recorder.RecordMap(dev, Iova{0x40000}, Kva{0xffff800000005000}, 64, 1, true, "bounce");
  recorder.RecordUnmap(dev, Iova{0x40000}, 64, 1, true);
  ASSERT_EQ(recorder.ledger_dropped(), 1u);
  // A new life takes the evicted slot and stays mapped.
  recorder.RecordMap(dev, iova, Kva{0xffff800000006000}, 256, 1, false, "reuser");

  clock.Advance(700);  // now 1000
  recorder.OnEvent(DkasanReport(clock.now()));
  const telemetry::Histogram::Summary latency = recorder.dkasan_latency_summary();
  EXPECT_EQ(latency.count, 1u);
  EXPECT_EQ(latency.max, 800u);

  // The reusing life was not taken for the target: unmapped now, its stale
  // window opens undetected.
  recorder.RecordUnmap(dev, iova, 256, 1, false);
  EXPECT_EQ(recorder.open_windows(WindowKind::kStaleIotlb), 1u);
  const std::vector<Window> windows = recorder.SnapshotWindows(dev);
  ASSERT_FALSE(windows.empty());
  for (const Window& window : windows) {
    EXPECT_FALSE(window.detected) << WindowKindName(window.kind) << " gen " << window.generation;
  }
}

// A sink may publish from OnEvent: here a detector that reports on the first
// stale window it sees open. Its report reaches the recorder in the middle of
// the recorder's own announcements, and the nested close must neither lose
// nor repeat any of the outer edge's window events.
TEST(FlightRecorderUnit, AWindowClosedFromInsideAnnouncementsKeepsTheOuterOnes) {
  SimClock clock;
  telemetry::Hub::Config hub_config;
  hub_config.enabled = true;
  telemetry::Hub hub{hub_config};
  hub.BindClock(&clock);
  trace::Tracer tracer{hub, clock};
  ForensicsConfig config;
  config.enabled = true;
  FlightRecorder recorder(&clock, config);
  recorder.set_tracer(&tracer);
  hub.AddSink(&recorder);
  struct EagerDetector : telemetry::EventSink {
    explicit EagerDetector(telemetry::Hub& h) : hub(h) {}
    void OnEvent(const telemetry::Event& event) override {
      if (event.site == "window.stale" && !reported) {
        reported = true;
        telemetry::Event report;
        report.kind = telemetry::EventKind::kDkasanReport;
        report.severity = telemetry::Severity::kCritical;
        hub.Publish(report);
      }
    }
    telemetry::KindSet kinds() const override { return {telemetry::EventKind::kWindowOpen}; }
    telemetry::Hub& hub;
    bool reported = false;
  } detector{hub};
  hub.AddSink(&detector);
  const DeviceId dev{2};

  recorder.RecordMap(dev, Iova{0x10000}, Kva{0xffff800000001000}, 256, 1, false, "nested");
  clock.Advance(10);
  // One edge, two announcements: the sub-page window closes, the stale one
  // opens, and the report published on that open closes it again at once.
  recorder.RecordUnmap(dev, Iova{0x10000}, 256, 1, false);
  ASSERT_TRUE(detector.reported);

  std::vector<std::string> sequence;
  for (const telemetry::Event& event : hub.ring().Snapshot()) {
    sequence.push_back(std::string(telemetry::EventKindName(event.kind)) + " " + event.site);
  }
  const std::vector<std::string> expected = {
      "span_open window.subpage",
      "window_open window.subpage",
      "window_close window.subpage:unmap",
      "span_close window.subpage",
      "span_open window.stale",
      "window_open window.stale",
      "dkasan_report ",
      "window_close window.stale:detected:dkasan",
      "span_close window.stale",
  };
  EXPECT_EQ(sequence, expected);
  EXPECT_EQ(recorder.open_windows(WindowKind::kStaleIotlb), 0u);
  EXPECT_EQ(recorder.open_windows(WindowKind::kSubPage), 0u);
  EXPECT_EQ(hub.counter_value("window.stale.opened"), 1u);
  EXPECT_EQ(hub.counter_value("window.stale.closed"), 1u);
  EXPECT_EQ(hub.counter_value("window.subpage.closed"), 1u);
  EXPECT_EQ(tracer.orphan_closes(), 0u);
  const std::vector<Window> windows = recorder.SnapshotWindows(dev);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_TRUE(windows[1].detected);
  EXPECT_EQ(windows[1].close_reason, "detected:dkasan");
  hub.RemoveSink(&detector);
  hub.RemoveSink(&recorder);
}

// ---- Ledger: one record per life, fed from the call sites -----------------------

// A strict unmap invalidates before its unmap edge: each life's flush lies in
// (0, unmap], and the strict unmap of a later mapping that recycled the IOVA
// leaves the earlier life's flush alone.
TEST(FlightRecorderLedger, StrictFlushStampsOnlyTheLifeItRevokes) {
  core::Machine machine{BaseConfig(31, iommu::InvalidationMode::kStrict)};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  const Kva buf = *machine.slab().Kmalloc(2048, "strict_buf");
  constexpr auto kDir = dma::DmaDirection::kFromDevice;

  auto first = machine.dma().MapSingle(dev, buf, 2048, kDir, "life_a");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(machine.dma().UnmapSingle(dev, *first, 2048, kDir).ok());
  const std::vector<MappingLife> after_first =
      machine.flight_recorder()->SnapshotLedger(dev);
  ASSERT_EQ(after_first.size(), 1u);

  machine.clock().Advance(1000);
  auto second = machine.dma().MapSingle(dev, buf, 2048, kDir, "life_b");
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->value, first->value) << "the strict unmap did not recycle the IOVA";
  ASSERT_TRUE(machine.dma().UnmapSingle(dev, *second, 2048, kDir).ok());

  const std::vector<MappingLife> ledger = machine.flight_recorder()->SnapshotLedger(dev);
  ASSERT_EQ(ledger.size(), 2u);
  for (const MappingLife& life : ledger) {
    EXPECT_GT(life.flush_cycle, 0u) << "gen " << life.generation;
    EXPECT_LE(life.flush_cycle, life.unmap_cycle) << "gen " << life.generation;
  }
  EXPECT_EQ(ledger[0].flush_cycle, after_first[0].flush_cycle);
  ASSERT_TRUE(machine.slab().Kfree(buf).ok());
}

// No live life is evicted: with room for two retired lives, three churned
// mappings leave the first — still mapped — to own the device's later write.
TEST(FlightRecorderLedger, MappedLifeOutlivesChurnPastCapacity) {
  core::MachineConfig config = BaseConfig(32, iommu::InvalidationMode::kStrict);
  config.forensics.ledger_capacity = 2;
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  constexpr auto kDir = dma::DmaDirection::kFromDevice;

  const Kva kept_buf = *machine.slab().Kmalloc(2048, "kept_buf");
  auto kept = machine.dma().MapSingle(dev, kept_buf, 2048, kDir, "kept_rx");
  ASSERT_TRUE(kept.ok());
  for (int i = 0; i < 3; ++i) {
    const Kva buf = *machine.slab().Kmalloc(2048, "churn_buf");
    auto iova = machine.dma().MapSingle(dev, buf, 2048, kDir, "churn_rx");
    ASSERT_TRUE(iova.ok());
    ASSERT_TRUE(machine.dma().UnmapSingle(dev, *iova, 2048, kDir).ok());
    ASSERT_TRUE(machine.slab().Kfree(buf).ok());
  }
  const std::vector<uint8_t> data(8, 0xab);
  ASSERT_TRUE(machine.iommu().DeviceWrite(dev, *kept, data).ok());

  FlightRecorder* recorder = machine.flight_recorder();
  const std::vector<FlightRecord> timeline = recorder->SnapshotTimeline(dev);
  ASSERT_FALSE(timeline.empty());
  EXPECT_EQ(timeline.back().op, RecordOp::kDeviceWrite);
  EXPECT_EQ(timeline.back().generation, 1u);
  const std::vector<MappingLife> ledger = recorder->SnapshotLedger(dev);
  ASSERT_FALSE(ledger.empty());
  EXPECT_EQ(ledger[0].generation, 1u);
  EXPECT_EQ(ledger[0].accesses, 1u);
  EXPECT_EQ(recorder->ledger_dropped(), 1u);

  ASSERT_TRUE(machine.dma().UnmapSingle(dev, *kept, 2048, kDir).ok());
  ASSERT_TRUE(machine.slab().Kfree(kept_buf).ok());
}

// A revocation releases in-flight bounces without an unmap edge. When the
// pool hands the slot out again, the released life leaves the live index and
// becomes evictable like any retired life, instead of lingering forever.
TEST(FlightRecorderLedger, ReleasedBounceLifeRetiresWhenItsSlotIsReused) {
  core::MachineConfig config = BaseConfig(34, iommu::InvalidationMode::kDeferred);
  config.forensics.ledger_capacity = 1;
  config.policy.enabled = true;
  core::Machine machine{config};
  const DeviceId dev{5};
  machine.iommu().AttachDevice(dev);
  ASSERT_TRUE(
      machine.policy()->RegisterDevice(dev, policy::DeviceIdentity{"usb-nic", "nic"}).ok());
  const Kva buf = *machine.slab().Kmalloc(512, "bounce_buf");
  constexpr auto kDir = dma::DmaDirection::kToDevice;

  auto released = machine.dma().MapSingle(dev, buf, 512, kDir, "released");
  ASSERT_TRUE(released.ok());
  ASSERT_TRUE(machine.dma().RevokeDeviceMappings(dev, "revoke").ok());
  auto reused = machine.dma().MapSingle(dev, buf, 512, kDir, "reused");
  ASSERT_TRUE(reused.ok());
  ASSERT_EQ(reused->value, released->value) << "the pool did not reuse the slot";
  std::vector<uint8_t> read(8);
  ASSERT_TRUE(machine.iommu().DeviceRead(dev, *reused, std::span<uint8_t>(read)).ok());

  FlightRecorder* recorder = machine.flight_recorder();
  EXPECT_EQ(recorder->SnapshotTimeline(dev).back().generation, 2u);
  std::vector<MappingLife> ledger = recorder->SnapshotLedger(dev);
  ASSERT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger[0].unmap_cycle, 0u);  // released, never unmapped
  EXPECT_EQ(ledger[1].accesses, 1u);

  // One more retired life overflows the one-life budget: the released life,
  // the oldest, is the one evicted.
  ASSERT_TRUE(machine.dma().UnmapSingle(dev, *reused, 512, kDir).ok());
  ledger = recorder->SnapshotLedger(dev);
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].generation, 2u);
  EXPECT_EQ(recorder->ledger_dropped(), 1u);
}

// Every window an incident embeds is a view of a life in the same incident's
// ledger: three deferred unmaps before any flush keep their lives, and their
// windows, past a two-life ledger.
TEST(FlightRecorderLedger, EveryIncidentWindowNamesALifeInItsLedger) {
  core::MachineConfig config = BaseConfig(33, iommu::InvalidationMode::kDeferred);
  config.forensics.ledger_capacity = 2;
  config.telemetry.enabled = true;
  config.trace.enabled = true;
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  constexpr auto kDir = dma::DmaDirection::kFromDevice;
  const std::vector<uint8_t> touch(8);
  for (int i = 0; i < 3; ++i) {
    const Kva buf = *machine.slab().Kmalloc(2048, "window_buf");
    auto iova = machine.dma().MapSingle(dev, buf, 2048, kDir, "window_rx");
    ASSERT_TRUE(iova.ok());
    ASSERT_TRUE(machine.iommu().DeviceWrite(dev, *iova, touch).ok());
    ASSERT_TRUE(machine.dma().UnmapSingle(dev, *iova, 2048, kDir).ok());
    ASSERT_TRUE(machine.slab().Kfree(buf).ok());
  }
  machine.incidents()->OpenIncident(dev, "window/ledger cross-check");

  std::optional<json::Value> doc = json::Parse(machine.incidents()->ReportsJson());
  ASSERT_TRUE(doc.has_value());
  const json::Value& incident = doc->Find("incidents")->array.at(0);
  std::vector<uint64_t> generations;
  for (const json::Value& life : incident.Find("ledger")->array) {
    generations.push_back(life.U64("generation"));
  }
  const std::vector<json::Value>& windows = incident.Find("windows")->array;
  EXPECT_EQ(windows.size(), 6u);  // a sub-page and a stale window per life
  for (const json::Value& window : windows) {
    EXPECT_NE(std::find(generations.begin(), generations.end(), window.U64("generation")),
              generations.end())
        << window.Str("kind") << " window at iova page " << window.U64("iova_page");
  }
  machine.iommu().FlushNow();
}

// ---- Classifier: the paper's attack classes from evidence alone ----------------

// (a) sub-page off-the-end write: the controller completes without
// transferring, keeps the translation, and rewrites the callback slot 512
// bytes past the mapped IO buffer.
TEST(ForensicsClassify, SubPageWildWriteIsClassA) {
  EvilRig rig(BaseConfig(201, iommu::InvalidationMode::kStrict));
  ASSERT_TRUE(rig.driver.Init().ok());
  const DeviceId dev = rig.driver.device_id();

  auto obj = rig.machine.slab().Kmalloc(1024, "nvme_req_with_cb");
  ASSERT_TRUE(obj.ok());
  rig.controller.set_complete_before_transfer(true);
  auto cid = rig.driver.SubmitRead(0, 1, *obj);
  ASSERT_TRUE(cid.ok());
  ASSERT_EQ(rig.controller.pending_transfers().size(), 1u);
  const nvme::PrpChunk chunk = rig.controller.pending_transfers().front().chunks[0];
  ASSERT_TRUE(
      rig.controller.port().WriteU64(Iova{chunk.iova.value + 512}, 0xdead).ok());

  size_t implicated = SIZE_MAX;
  EXPECT_EQ(Classify(rig.machine, dev, &implicated), AttackClass::kClassA);
  const std::vector<MappingLife> ledger =
      rig.machine.flight_recorder()->SnapshotLedger(dev);
  ASSERT_LT(implicated, ledger.size());
  EXPECT_NE(ledger[implicated].site.find("_map_data"), std::string::npos);

  // A manual freeze (no automatic detector fires for a silent wild write)
  // seals the same verdict into the report document.
  IncidentEngine* incidents = rig.machine.incidents();
  ASSERT_NE(incidents, nullptr);
  incidents->OpenIncident(dev, "unit: wild write past mapped buffer");
  EXPECT_EQ(incidents->incident_count(), 1u);
  const std::string report = incidents->ReportsJson();
  EXPECT_NE(report.find("\"inferred_class\":\"class_a\""), std::string::npos);
  EXPECT_NE(report.find("\"trigger\":\"manual\""), std::string::npos);

  EXPECT_TRUE(rig.driver.WaitFor(*cid).ok());
  rig.controller.ClearPendingTransfers();
  ASSERT_TRUE(rig.machine.slab().Kfree(*obj).ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
}

// (b) PRP-list frag harvest: the page-wide read through the PRP segment's
// IOVA reaches the co-resident victim frag.
TEST(ForensicsClassify, PrpSegmentHarvestIsClassB) {
  EvilRig rig(BaseConfig(202, iommu::InvalidationMode::kStrict));
  ASSERT_TRUE(rig.driver.Init().ok());
  const DeviceId dev = rig.driver.device_id();

  slab::PageFragPool& pool = rig.machine.frag_pool(CpuId{0});
  auto victim = pool.Alloc(128, 8, "victim_meta");
  ASSERT_TRUE(victim.ok());
  auto buf = rig.machine.slab().Kmalloc(24 * nvme::kLbaSize, "io_buf");
  ASSERT_TRUE(buf.ok());
  auto cid = rig.driver.SubmitRead(0, 24, *buf);
  ASSERT_TRUE(cid.ok());
  ASSERT_TRUE(rig.controller.HarvestPrpQwords().ok());

  size_t implicated = SIZE_MAX;
  EXPECT_EQ(Classify(rig.machine, dev, &implicated), AttackClass::kClassB);
  const std::vector<MappingLife> ledger =
      rig.machine.flight_recorder()->SnapshotLedger(dev);
  ASSERT_LT(implicated, ledger.size());
  EXPECT_NE(ledger[implicated].site.find("prp"), std::string::npos);

  EXPECT_TRUE(rig.driver.WaitFor(*cid).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());
  ASSERT_TRUE(pool.Free(*victim).ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
}

// (c) multi-IOVA aliasing: after one PRP segment's unmap, the surviving
// alias keeps the shared frag page readable — the recorded evidence holds
// both lives (same KVA page, distinct IOVA pages) and the post-unmap reach.
TEST(ForensicsClassify, SurvivingAliasReadIsClassC) {
  EvilRig rig(BaseConfig(203, iommu::InvalidationMode::kStrict));
  ASSERT_TRUE(rig.driver.Init().ok());
  const DeviceId dev = rig.driver.device_id();

  fault::FaultPlan plan;
  plan.OneShot(fault::FaultSite::kNvmeCompletionDrop, 2);
  rig.machine.fault().Arm(plan, 203);

  auto buf1 = rig.machine.slab().Kmalloc(24 * nvme::kLbaSize, "io_buf1");
  auto buf2 = rig.machine.slab().Kmalloc(24 * nvme::kLbaSize, "io_buf2");
  ASSERT_TRUE(buf1.ok() && buf2.ok());
  auto cid1 = rig.driver.SubmitRead(0, 24, *buf1);
  auto cid2 = rig.driver.SubmitRead(24, 24, *buf2);
  ASSERT_TRUE(cid1.ok() && cid2.ok());
  ASSERT_GE(rig.controller.prp_segments_seen().size(), 2u);
  const Iova seg2 = rig.controller.prp_segments_seen()[1];

  // Completing command 1 unmaps its segment; the alias read then reaches the
  // dead segment's bytes through command 2's still-live IOVA.
  ASSERT_TRUE(rig.driver.WaitFor(*cid1).ok());
  ASSERT_TRUE(rig.controller.port().ReadPageQwords(seg2).ok());

  EXPECT_EQ(Classify(rig.machine, dev), AttackClass::kClassC);

  rig.machine.fault().Disarm();
  rig.machine.clock().Advance(SimClock::MsToCycles(6000));
  EXPECT_EQ(rig.driver.CheckTimeouts(), 1u);
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf1).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf2).ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
}

// (d) slab co-location exfiltration: the page-wide read through the data
// buffer's IOVA — a non-metadata mapping — rides over the victim slab slot.
TEST(ForensicsClassify, SlabNeighbourExfilReadIsClassD) {
  EvilRig rig(BaseConfig(204, iommu::InvalidationMode::kStrict));
  ASSERT_TRUE(rig.driver.Init().ok());
  const DeviceId dev = rig.driver.device_id();

  auto victim = rig.machine.slab().Kmalloc(512, "victim_cred");
  auto buf = rig.machine.slab().Kmalloc(512, "io_buf");
  ASSERT_TRUE(victim.ok() && buf.ok());
  ASSERT_EQ(victim->PageBase().value, buf->PageBase().value);

  rig.controller.set_complete_before_transfer(true);
  auto cid = rig.driver.SubmitWrite(0, 1, *buf);
  ASSERT_TRUE(cid.ok());
  ASSERT_EQ(rig.controller.pending_transfers().size(), 1u);
  const nvme::PrpChunk chunk = rig.controller.pending_transfers().front().chunks[0];
  ASSERT_TRUE(rig.controller.port().ReadPageQwords(chunk.iova).ok());

  size_t implicated = SIZE_MAX;
  EXPECT_EQ(Classify(rig.machine, dev, &implicated), AttackClass::kClassD);
  const std::vector<MappingLife> ledger =
      rig.machine.flight_recorder()->SnapshotLedger(dev);
  ASSERT_LT(implicated, ledger.size());
  EXPECT_NE(ledger[implicated].site.find("_map_data"), std::string::npos);

  EXPECT_TRUE(rig.driver.WaitFor(*cid).ok());
  rig.controller.ClearPendingTransfers();
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*victim).ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
}

// Poisoned Completion in deferred mode: the stale replay trips the
// kStaleIotlbHit trigger, so the incident freezes AUTOMATICALLY and the
// stale-hit record names the class without any operator involvement.
TEST(ForensicsClassify, PoisonedCompletionAutoFreezesIncident) {
  core::MachineConfig mc = BaseConfig(205, iommu::InvalidationMode::kDeferred);
  mc.telemetry.enabled = true;
  EvilRig rig(mc);
  ASSERT_TRUE(rig.driver.Init().ok());
  const DeviceId dev = rig.driver.device_id();
  rig.controller.set_warm_iotlb(true);

  auto buf = rig.machine.slab().Kmalloc(512, "posted_read_buf");
  ASSERT_TRUE(buf.ok());
  const Kva old_buf = *buf;
  rig.controller.set_complete_before_transfer(true);

  // The forged CQE makes the driver unmap (deferred: stale window opens) and
  // the buffer is freed + recycled before the withheld data phase lands.
  auto moved = rig.driver.ReadBlocks(8, 1, *buf);
  ASSERT_TRUE(moved.ok());
  ASSERT_EQ(rig.controller.pending_transfers().size(), 1u);
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());
  auto recycled = rig.machine.slab().Kmalloc(512, "recycled_victim");
  ASSERT_TRUE(recycled.ok());
  ASSERT_EQ(recycled->value, old_buf.value);
  rig.machine.clock().AdvanceUs(5);

  const uint64_t stale_before = rig.machine.iommu().stats().stale_iotlb_accesses;
  ASSERT_TRUE(rig.controller.ReplayPendingTransfer().ok());
  ASSERT_GE(rig.machine.iommu().stats().stale_iotlb_accesses, stale_before + 1);

  EXPECT_EQ(Classify(rig.machine, dev), AttackClass::kPoisonedCompletion);

  IncidentEngine* incidents = rig.machine.incidents();
  ASSERT_NE(incidents, nullptr);
  ASSERT_GE(incidents->incident_count(), 1u);
  const std::string report = incidents->ReportsJson();
  EXPECT_NE(report.find("\"trigger\":\"stale_iotlb_hit\""), std::string::npos);
  EXPECT_NE(report.find("\"inferred_class\":\"poisoned_completion\""),
            std::string::npos);
  const std::string summary = incidents->SummaryJson();
  EXPECT_NE(summary.find("\"poisoned_completion\":"), std::string::npos);

  rig.controller.ClearPendingTransfers();
  rig.machine.iommu().FlushNow();
  ASSERT_TRUE(rig.machine.slab().Kfree(*recycled).ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
}

// ---- System: determinism, multi-CPU, disabled, soak ----------------------------

namespace {
std::string RunClassDScenario(uint64_t seed) {
  EvilRig rig(BaseConfig(seed, iommu::InvalidationMode::kStrict));
  EXPECT_TRUE(rig.driver.Init().ok());
  const DeviceId dev = rig.driver.device_id();
  auto victim = rig.machine.slab().Kmalloc(512, "victim_cred");
  auto buf = rig.machine.slab().Kmalloc(512, "io_buf");
  EXPECT_TRUE(victim.ok() && buf.ok());
  rig.controller.set_complete_before_transfer(true);
  auto cid = rig.driver.SubmitWrite(0, 1, *buf);
  EXPECT_TRUE(cid.ok());
  const nvme::PrpChunk chunk = rig.controller.pending_transfers().front().chunks[0];
  EXPECT_TRUE(rig.controller.port().ReadPageQwords(chunk.iova).ok());
  rig.machine.incidents()->OpenIncident(dev, "determinism probe");
  EXPECT_TRUE(rig.driver.WaitFor(*cid).ok());
  rig.controller.ClearPendingTransfers();
  return rig.machine.incidents()->ReportsJson();
}
}  // namespace

TEST(ForensicsDeterminism, SameSeedFreezesByteIdenticalReports) {
  const std::string first = RunClassDScenario(301);
  const std::string second = RunClassDScenario(301);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"inferred_class\":\"class_d\""), std::string::npos);
}

// Four rounds of deferred churn on 4 CPUs, with a freeze on CPU 0 in the
// middle of its churn: every CPU's device keeps a ledger, the invariants
// hold after every round, and the report document is well formed.
TEST(ForensicsThreads, ConcurrentChurnRecordsAndFreezesClean) {
  core::MachineConfig config;
  config.seed = 7;
  config.iommu.mode = iommu::InvalidationMode::kDeferred;
  config.iommu.fast_path.num_cpus = 4;
  config.forensics.enabled = true;
  core::Machine machine{config};
  for (uint32_t c = 0; c < 4; ++c) {
    machine.iommu().AttachDevice(DeviceId{700 + c});
  }
  for (int round = 0; round < 4; ++round) {
    machine.RunOnCpus(4, [&](CpuId cpu) {
      const DeviceId dev{700 + cpu.value};
      for (int i = 0; i < 16; ++i) {
        Result<Kva> buf = machine.slab().Kmalloc(1024, "forensics_churn");
        if (!buf.ok()) {
          continue;
        }
        Result<Iova> iova = machine.dma().MapSingle(
            dev, *buf, 1024, dma::DmaDirection::kFromDevice, "forensics_churn");
        if (iova.ok()) {
          // A freeze between a map and its unmap: snapshot vs record.
          if (cpu.value == 0 && i == 8) {
            machine.incidents()->OpenIncident(dev, "mid-churn freeze");
          }
          (void)machine.dma().UnmapSingle(dev, *iova, 1024,
                                          dma::DmaDirection::kFromDevice);
        }
        (void)machine.slab().Kfree(*buf);
      }
    });
    ASSERT_TRUE(machine.CheckInvariants().ok()) << "round " << round;
  }
  FlightRecorder* recorder = machine.flight_recorder();
  ASSERT_NE(recorder, nullptr);
  EXPECT_GT(recorder->total_recorded(), 0u);
  for (uint32_t c = 0; c < 4; ++c) {
    EXPECT_FALSE(recorder->SnapshotLedger(DeviceId{700 + c}).empty()) << c;
  }
  EXPECT_GE(machine.incidents()->incident_count(), 1u);
  const std::string report = machine.incidents()->ReportsJson();
  EXPECT_NE(report.find("\"incidents\":["), std::string::npos);
  machine.iommu().FlushNow();
  EXPECT_EQ(machine.dma().live_mappings(), 0u);
}

// A freeze opened on a non-zero CPU announces itself on the bus.
TEST(ForensicsThreads, WorkerOpenIncidentAnnouncesOnTheBus) {
  core::MachineConfig config;
  config.seed = 9;
  config.phys_pages = 4096;
  config.iommu.fast_path.num_cpus = 2;
  config.forensics.enabled = true;
  config.telemetry.enabled = true;
  core::Machine machine{config};
  const DeviceId dev{710};
  machine.iommu().AttachDevice(dev);
  machine.RunOnCpus(2, [&](CpuId cpu) {
    if (cpu.value == 1) {
      machine.incidents()->OpenIncident(dev, "cpu 1 freeze");
    }
  });
  ASSERT_EQ(machine.incidents()->incident_count(), 1u);
  std::vector<telemetry::EventKind> announced;
  for (const telemetry::Event& event : machine.telemetry().ring().Snapshot()) {
    if (event.device == dev.value) {
      announced.push_back(event.kind);
    }
  }
  EXPECT_EQ(announced, (std::vector<telemetry::EventKind>{
                           telemetry::EventKind::kIncidentOpen,
                           telemetry::EventKind::kIncidentReport}));
}

TEST(ForensicsDisabled, DefaultMachineHasNullRecorderAndEngine) {
  core::MachineConfig config;
  config.seed = 5;
  config.phys_pages = 4096;
  core::Machine machine{config};
  EXPECT_EQ(machine.flight_recorder(), nullptr);
  EXPECT_EQ(machine.incidents(), nullptr);

  // The hooks are one null branch: mapping traffic behaves as before.
  machine.iommu().AttachDevice(DeviceId{42});
  auto buf = machine.slab().Kmalloc(1024, "plain");
  ASSERT_TRUE(buf.ok());
  auto iova = machine.dma().MapSingle(DeviceId{42}, *buf, 1024,
                                      dma::DmaDirection::kFromDevice, "plain");
  ASSERT_TRUE(iova.ok());
  EXPECT_TRUE(machine.dma()
                  .UnmapSingle(DeviceId{42}, *iova, 1024,
                               dma::DmaDirection::kFromDevice)
                  .ok());
  ASSERT_TRUE(machine.slab().Kfree(*buf).ok());
}

// ---- Incident engine rate limits ----------------------------------------------

void PublishStaleHit(core::Machine& machine, DeviceId device) {
  telemetry::Event event;
  event.kind = telemetry::EventKind::kStaleIotlbHit;
  event.severity = telemetry::Severity::kCritical;
  event.device = device.value;
  event.site = "rate_limit_probe";
  machine.telemetry().Publish(event);
}

TEST(IncidentEngineLimits, OpensAtMost32Incidents) {
  core::Machine machine{BaseConfig(21, iommu::InvalidationMode::kDeferred)};
  IncidentEngine* incidents = machine.incidents();
  ASSERT_NE(incidents, nullptr);
  // Manual freezes skip the cooldown but not the cap.
  for (int i = 0; i < 32; ++i) {
    incidents->OpenIncident(DeviceId{static_cast<uint32_t>(100 + i)}, "cap probe");
  }
  EXPECT_EQ(incidents->incident_count(), 32u);
  EXPECT_EQ(incidents->suppressed(), 0u);
  incidents->OpenIncident(DeviceId{200}, "cap probe");
  EXPECT_EQ(incidents->incident_count(), 32u);
  EXPECT_EQ(incidents->suppressed(), 1u);
}

TEST(IncidentEngineLimits, SameTriggerCoolsDownFor200000Cycles) {
  core::Machine machine{BaseConfig(22, iommu::InvalidationMode::kDeferred)};
  IncidentEngine* incidents = machine.incidents();
  ASSERT_NE(incidents, nullptr);
  const DeviceId device{77};

  PublishStaleHit(machine, device);
  EXPECT_EQ(incidents->incident_count(), 1u);
  // One cycle short of the cooldown: the repeat is suppressed.
  machine.clock().Advance(199'999);
  PublishStaleHit(machine, device);
  EXPECT_EQ(incidents->incident_count(), 1u);
  EXPECT_EQ(incidents->suppressed(), 1u);
  // Another device has its own cooldown, and a manual freeze is never
  // rate-limited.
  PublishStaleHit(machine, DeviceId{78});
  incidents->OpenIncident(device, "manual freeze");
  EXPECT_EQ(incidents->incident_count(), 3u);
  // 200,000 cycles after the first report the same trigger opens again.
  machine.clock().Advance(1);
  PublishStaleHit(machine, device);
  EXPECT_EQ(incidents->incident_count(), 4u);
  EXPECT_EQ(incidents->suppressed(), 1u);
}

// ---- Sink subscriptions ---------------------------------------------------------

telemetry::Event EventOfKind(telemetry::EventKind kind, DeviceId device) {
  telemetry::Event event;
  event.kind = kind;
  event.severity = telemetry::Severity::kCritical;
  event.device = device.value;
  return event;
}

// Each of the engine's six triggers, published through the Hub, opens an
// incident; the engine's own announcements and other kinds open none.
TEST(IncidentEngineSink, EveryTriggerKindOpensAnIncident) {
  using telemetry::EventKind;
  const EventKind kTriggers[] = {EventKind::kDkasanReport,  EventKind::kSpadeFinding,
                                 EventKind::kStaleIotlbHit, EventKind::kHealthBreach,
                                 EventKind::kDeviceQuarantined, EventKind::kTrustDemoted};
  SimClock clock;
  ForensicsConfig config;
  config.enabled = true;
  FlightRecorder recorder(&clock, config);
  telemetry::Hub hub{telemetry::Hub::Config{.enabled = true}};
  hub.BindClock(&clock);
  IncidentEngine engine(hub, recorder, &clock);
  hub.AddSink(&engine);
  const DeviceId dev{12};
  for (const EventKind other : {EventKind::kDmaMap, EventKind::kIncidentOpen,
                                EventKind::kIncidentReport, EventKind::kIommuFault}) {
    hub.Publish(EventOfKind(other, dev));
  }
  EXPECT_EQ(engine.incident_count(), 0u);
  size_t opened = 0;
  for (const EventKind trigger : kTriggers) {
    hub.Publish(EventOfKind(trigger, dev));  // distinct triggers: no cooldown applies
    EXPECT_EQ(engine.incident_count(), ++opened) << telemetry::EventKindName(trigger);
  }
  EXPECT_EQ(engine.suppressed(), 0u);
  hub.RemoveSink(&engine);
}

// The recorder's two detector kinds, published through the Hub, each mark a
// detection against the open stale window.
TEST(FlightRecorderSink, DetectorKindsMarkADetection) {
  SimClock clock;
  ForensicsConfig config;
  config.enabled = true;
  FlightRecorder recorder(&clock, config);
  telemetry::Hub hub;  // recording off: the recorder still hears its kinds
  hub.AddSink(&recorder);
  const DeviceId dev{13};
  recorder.RecordMap(dev, Iova{0x10000}, Kva{0xffff888000100000}, 512,
                     /*dir=*/1, /*bounced=*/false, "sink_probe");
  recorder.RecordUnmap(dev, Iova{0x10000}, 512, /*dir=*/1, /*bounced=*/false);
  ASSERT_EQ(recorder.open_windows(WindowKind::kStaleIotlb), 1u);

  hub.Publish(EventOfKind(telemetry::EventKind::kIommuFault, dev));
  hub.Publish(EventOfKind(telemetry::EventKind::kSpadeFinding, dev));
  EXPECT_EQ(recorder.spade_latency_summary().count, 1u);
  EXPECT_EQ(recorder.dkasan_latency_summary().count, 0u);
  hub.Publish(EventOfKind(telemetry::EventKind::kDkasanReport, dev));
  EXPECT_EQ(recorder.dkasan_latency_summary().count, 1u);
  // D-KASAN's report ends the window it caught.
  EXPECT_EQ(recorder.open_windows(WindowKind::kStaleIotlb), 0u);
  const std::vector<Window> windows = recorder.SnapshotWindows(dev);
  ASSERT_FALSE(windows.empty());
  EXPECT_TRUE(windows.back().detected);
  EXPECT_EQ(windows.back().close_reason, "detected:dkasan");
  hub.RemoveSink(&recorder);
}

TEST(ForensicsSoak, SoakEmbedsDeterministicForensicsBlock) {
  soak::SoakConfig config;
  config.seed = 11;
  config.target_cycles = 2'000'000;
  config.max_epochs = 60;
  config.storage = false;  // keep the round-trip fast
  const soak::SoakReport first = soak::RunSoak(config);
  EXPECT_TRUE(first.ok) << first.failure;
  EXPECT_GT(first.flight_records, 0u);
  EXPECT_FALSE(first.incidents_json.empty());
  EXPECT_NE(first.ToJson().find("\"forensics\""), std::string::npos);
  EXPECT_NE(first.incidents_json.find("\"recorder\""), std::string::npos);

  const soak::SoakReport second = soak::RunSoak(config);
  EXPECT_EQ(first.ToJson(), second.ToJson());
  EXPECT_EQ(first.incidents_json, second.incidents_json);

  // Opting out must not change the workload's outcome: the recorder is a
  // pure observer, so every non-forensics field stays identical.
  soak::SoakConfig no_forensics = config;
  no_forensics.forensics = false;
  const soak::SoakReport off = soak::RunSoak(no_forensics);
  EXPECT_TRUE(off.ok) << off.failure;
  EXPECT_EQ(off.flight_records, 0u);
  EXPECT_TRUE(off.incidents_json.empty());
  EXPECT_EQ(off.sim_cycles, first.sim_cycles);
  EXPECT_EQ(off.epochs, first.epochs);
  EXPECT_EQ(off.echo_ok, first.echo_ok);
}

// Every JSON document one seeded run produces parses back, each with its
// structure intact: the telemetry export; the incident report with its
// embedded recorder, windows, trust and recovery; the summary; the posture;
// a soak report embedding that posture and summary; the Chrome trace.
TEST(ForensicsExport, EveryDocumentOfOneRunParses) {
  core::MachineConfig mc = BaseConfig(205, iommu::InvalidationMode::kDeferred);
  mc.telemetry.enabled = true;
  mc.trace.enabled = true;
  mc.policy.enabled = true;
  policy::Quirk inbox;  // trusted, so the deferred stale window stays open
  inbox.match_class = "nvme";
  inbox.initial_trust = policy::TrustState::kTrusted;
  mc.policy.quirks.push_back(inbox);
  EvilRig rig(mc);
  ASSERT_TRUE(rig.driver.Init().ok());
  rig.controller.set_warm_iotlb(true);
  rig.controller.set_complete_before_transfer(true);
  auto buf = rig.machine.slab().Kmalloc(512, "posted_read_buf");
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(rig.driver.ReadBlocks(8, 1, *buf).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());
  buf = rig.machine.slab().Kmalloc(512, "recycled_victim");
  ASSERT_TRUE(buf.ok());
  rig.machine.clock().AdvanceUs(5);
  const uint64_t stale_before = rig.machine.iommu().stats().stale_iotlb_accesses;
  ASSERT_TRUE(rig.controller.ReplayPendingTransfer().ok());  // stale hit: auto-freeze
  ASSERT_GT(rig.machine.iommu().stats().stale_iotlb_accesses, stale_before);
  IncidentEngine* incidents = rig.machine.incidents();
  ASSERT_EQ(incidents->incident_count(), 1u);

  const json::Value kMissing;
  const auto at = [&kMissing](const json::Value& value,
                              std::string_view key) -> const json::Value& {
    const json::Value* member = value.Find(key);
    EXPECT_NE(member, nullptr) << key;
    return member != nullptr ? *member : kMissing;
  };
  const auto parse = [](const std::string& text) {
    std::optional<json::Value> doc = json::Parse(text);
    EXPECT_TRUE(doc.has_value()) << text;
    return doc.value_or(json::Value{});
  };

  const json::Value hub = parse(rig.machine.telemetry().ExportJson());
  EXPECT_GT(at(hub, "counters").U64("iommu.maps"), 0u);
  EXPECT_FALSE(at(at(hub, "trace"), "events").array.empty());

  const json::Value reports = parse(incidents->ReportsJson());
  ASSERT_EQ(at(reports, "incidents").array.size(), 1u);
  const json::Value& incident = at(reports, "incidents").array[0];
  EXPECT_EQ(incident.Str("inferred_class"), "poisoned_completion");
  EXPECT_FALSE(at(incident, "windows").array.empty());
  EXPECT_EQ(at(incident, "trust").Str("trust"), "trusted");
  EXPECT_EQ(at(incident, "recovery").type, json::Value::Type::kObject);
  EXPECT_FALSE(at(at(reports, "recorder"), "rings").array.empty());

  const std::string summary = incidents->SummaryJson();
  EXPECT_EQ(at(parse(summary), "by_class").U64("poisoned_completion"), 1u);

  const std::string posture = rig.machine.policy()->PostureJson();
  EXPECT_TRUE(parse(posture).Bool("policy_enabled"));

  soak::SoakReport report;
  report.posture_json = posture;
  report.incident_summary_json = summary;
  const json::Value soak_doc = parse(report.ToJson());
  EXPECT_EQ(at(at(soak_doc, "posture"), "devices").type, json::Value::Type::kArray);
  EXPECT_EQ(at(at(soak_doc, "forensics"), "summary").U64("count"), 1u);

  const json::Value chrome = parse(rig.machine.tracer()->ChromeTraceJson());
  EXPECT_EQ(at(chrome, "traceEvents").array.at(0).Str("ph"), "M");

  rig.controller.ClearPendingTransfers();
  rig.machine.iommu().FlushNow();
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
}

}  // namespace
}  // namespace spv::forensics
