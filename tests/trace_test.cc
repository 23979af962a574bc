// Tests for spv::trace — span lifecycle, profile exporters, and
// vulnerability-window accounting (ISSUE 4 tentpole).

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "core/machine.h"
#include "dkasan/dkasan.h"
#include "forensics/flight_recorder.h"
#include "spade/analyzer.h"
#include "spade/parser.h"
#include "telemetry/telemetry.h"
#include "trace/profile.h"
#include "trace/tracer.h"

namespace spv::trace {
namespace {

// A standalone tracer over a recording Hub stamped from `clock`: the Hub's
// ring is the span history its exporters and these tests read.
struct TracerRig {
  static telemetry::Hub::Config Recording() {
    telemetry::Hub::Config config;
    config.enabled = true;
    return config;
  }

  TracerRig() { hub.BindClock(&clock); }

  SpanForest Forest() const { return BuildSpanForest(hub.ring().Snapshot()); }

  SimClock clock;
  telemetry::Hub hub{Recording()};
  Tracer tracer{hub, clock};
};

// ---- Span lifecycle ---------------------------------------------------------

TEST(TracerTest, NestingAndSequentialIdsWithDurations) {
  TracerRig rig;
  SimClock& clock = rig.clock;
  Tracer& tracer = rig.tracer;

  const SpanId a = tracer.Open("rx");
  clock.Advance(10);
  const SpanId b = tracer.Open("rx.map");
  EXPECT_EQ(tracer.current(), b);
  clock.Advance(25);
  tracer.Close(b);
  clock.Advance(5);
  const SpanId c = tracer.Open("rx.unmap");
  clock.Advance(15);
  tracer.Close(c);
  tracer.Close(a);

  EXPECT_EQ(a.value, 1u);
  EXPECT_EQ(b.value, 2u);
  EXPECT_EQ(c.value, 3u);
  const SpanForest forest = rig.Forest();
  ASSERT_EQ(forest.records.size(), 3u);
  const SpanRecord& ra = forest.records[0];
  const SpanRecord& rb = forest.records[1];
  const SpanRecord& rc = forest.records[2];
  EXPECT_EQ(ra.parent, kNoSpan);
  EXPECT_EQ(rb.parent, a);
  EXPECT_EQ(rc.parent, a);
  EXPECT_TRUE(ra.closed);
  EXPECT_EQ(ra.duration(), 55u);
  EXPECT_EQ(rb.duration(), 25u);
  EXPECT_EQ(rc.duration(), 15u);
  EXPECT_EQ(tracer.current(), kNoSpan);
  EXPECT_EQ(tracer.orphan_closes(), 0u);
}

TEST(TracerTest, ClosingAnOuterSpanImplicitlyClosesInnerOnes) {
  TracerRig rig;
  Tracer& tracer = rig.tracer;

  const SpanId a = tracer.Open("outer");
  tracer.Open("mid");
  tracer.Open("leaf");
  rig.clock.Advance(100);
  tracer.Close(a);  // stack self-heals: leaf and mid close first

  EXPECT_EQ(tracer.current(), kNoSpan);
  const SpanForest forest = rig.Forest();
  ASSERT_EQ(forest.records.size(), 3u);
  for (const SpanRecord& record : forest.records) {
    EXPECT_TRUE(record.closed) << record.name;
    EXPECT_EQ(record.close_cycle, 100u) << record.name;
  }
}

TEST(TracerTest, OrphanClosesAreCountedNotFatal) {
  TracerRig rig;
  Tracer& tracer = rig.tracer;

  tracer.Close(kNoSpan);  // no-op, not an orphan
  EXPECT_EQ(tracer.orphan_closes(), 0u);
  tracer.Close(SpanId{42});  // never opened
  EXPECT_EQ(tracer.orphan_closes(), 1u);

  const SpanId a = tracer.Open("a");
  tracer.Close(a);
  tracer.Close(a);  // double close
  EXPECT_EQ(tracer.orphan_closes(), 2u);

  const SpanId outer = tracer.Open("outer");
  const SpanId inner = tracer.Open("inner");
  tracer.Close(outer);
  tracer.Close(inner);  // already closed by the outer close
  EXPECT_EQ(tracer.orphan_closes(), 3u);

  // An orphan close publishes nothing: one open and one close per span.
  EXPECT_EQ(rig.hub.ring().Snapshot().size(), 6u);
}

TEST(TracerTest, ScopedSpanToleratesANullTracer) {
  {
    ScopedSpan span{nullptr, "null"};
    EXPECT_EQ(span.id(), kNoSpan);
  }
  SimClock clock;
  telemetry::Hub hub;
  Tracer live{hub, clock};
  {
    ScopedSpan span{&live, "live"};
    EXPECT_TRUE(span.id().valid());
    EXPECT_EQ(live.current(), span.id());
  }
  EXPECT_EQ(live.current(), kNoSpan);
}

TEST(TracerTest, HubStampsCurrentSpanOnEventsPublishedInsideASpan) {
  TracerRig rig;
  telemetry::Hub& hub = rig.hub;
  Tracer& tracer = rig.tracer;

  const SpanId span = tracer.Open("op");
  telemetry::Event inside;
  inside.kind = telemetry::EventKind::kDmaMap;
  inside.severity = telemetry::Severity::kInfo;
  hub.Publish(inside);
  tracer.Close(span);
  telemetry::Event outside;
  outside.kind = telemetry::EventKind::kDmaUnmap;
  outside.severity = telemetry::Severity::kInfo;
  hub.Publish(outside);

  const std::vector<telemetry::Event> events =
      telemetry::ParseTraceCsv(hub.ExportTraceCsv());
  bool saw_inside = false;
  bool saw_outside = false;
  for (const telemetry::Event& event : events) {
    if (event.kind == telemetry::EventKind::kDmaMap) {
      EXPECT_EQ(event.span, span.value);
      saw_inside = true;
    }
    if (event.kind == telemetry::EventKind::kDmaUnmap) {
      EXPECT_EQ(event.span, 0u);
      saw_outside = true;
    }
  }
  EXPECT_TRUE(saw_inside);
  EXPECT_TRUE(saw_outside);
}

// The tracer forgets a span once it closes, so no count of closed spans
// bounds it: ids keep running past 1 << 20 and every close still matches.
TEST(TracerTest, SpanIdsRunPastTheOldRecordCap) {
  SimClock clock;
  telemetry::Hub hub;
  Tracer tracer{hub, clock};
  constexpr uint64_t kSpans = (uint64_t{1} << 20) + 1;
  SpanId last;
  for (uint64_t i = 0; i < kSpans; ++i) {
    last = tracer.Open("op");
    tracer.Close(last);
  }
  EXPECT_TRUE(last.valid());
  EXPECT_EQ(last.value, kSpans);
  EXPECT_EQ(tracer.orphan_closes(), 0u);
  EXPECT_EQ(tracer.current(), kNoSpan);
}

// Many detached spans open at once (the table grows several times) and
// closed in a scattered order: every close finds its span and publishes it
// with its own parent and duration, and a second close is an orphan.
TEST(TracerTest, ManyOpenDetachedSpansCloseInAnyOrder) {
  TracerRig rig;
  constexpr uint64_t kSpans = 1000;
  const SpanId root = rig.tracer.Open("root");
  std::vector<SpanId> windows;
  for (uint64_t i = 0; i < kSpans; ++i) {
    windows.push_back(rig.tracer.OpenDetached("window.subpage", root));
    rig.clock.Advance(1);
  }
  // 7 is coprime with 1000, so i * 7 mod 1000 visits every span once.
  for (uint64_t i = 0; i < kSpans; ++i) {
    rig.tracer.Close(windows[(i * 7) % kSpans]);
  }
  EXPECT_EQ(rig.tracer.orphan_closes(), 0u);
  rig.tracer.Close(windows[3]);
  EXPECT_EQ(rig.tracer.orphan_closes(), 1u);

  uint64_t closes = 0;
  for (const telemetry::Event& event : rig.hub.ring().Snapshot()) {
    if (event.kind != telemetry::EventKind::kSpanClose || event.span == root.value) {
      continue;
    }
    ++closes;
    EXPECT_EQ(event.addr, root.value);  // the parent
    EXPECT_TRUE(event.flag);            // detached
    // Span n + 2 opened n cycles in; every close happens at kSpans.
    EXPECT_EQ(event.aux, kSpans - (event.span - 2)) << event.span;
  }
  EXPECT_EQ(closes, kSpans);
  rig.tracer.Close(root);
}

// ---- Determinism across same-seed runs --------------------------------------

std::string TraceOneRun(uint64_t seed) {
  core::MachineConfig config;
  config.seed = seed;
  config.iommu.mode = iommu::InvalidationMode::kDeferred;
  config.telemetry.enabled = true;
  config.trace.enabled = true;
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(2048, "trace_det_buf");
  std::vector<uint8_t> touch(8);
  for (int i = 0; i < 16; ++i) {
    auto iova = machine.dma().MapSingle(dev, buf, 2048, dma::DmaDirection::kFromDevice,
                                        "trace_det_map");
    EXPECT_TRUE(iova.ok());
    (void)machine.iommu().DeviceWrite(dev, *iova, touch);
    (void)machine.dma().UnmapSingle(dev, *iova, 2048, dma::DmaDirection::kFromDevice);
  }
  machine.iommu().FlushNow();
  return machine.tracer()->ChromeTraceJson();
}

TEST(TracerTest, SpanTreeIsDeterministicAcrossSameSeedRuns) {
  const std::string first = TraceOneRun(1234);
  const std::string second = TraceOneRun(1234);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// ---- Profile exporters ------------------------------------------------------

TEST(ProfileTest, CollapsedStacksAttributeSelfCycles) {
  TracerRig rig;
  SimClock& clock = rig.clock;
  Tracer& tracer = rig.tracer;

  const SpanId root = tracer.Open("root");
  clock.Advance(60);
  const SpanId child = tracer.Open("child");
  clock.Advance(40);
  tracer.Close(child);
  tracer.Close(root);

  const std::string stacks = tracer.CollapsedStacks();
  EXPECT_NE(stacks.find("root 60"), std::string::npos) << stacks;
  EXPECT_NE(stacks.find("root;child 40"), std::string::npos) << stacks;
}

TEST(ProfileTest, CollapsedStacksExcludeDetachedSpans) {
  TracerRig rig;
  SimClock& clock = rig.clock;
  Tracer& tracer = rig.tracer;

  const SpanId root = tracer.Open("root");
  const SpanId window = tracer.OpenDetached("window.stale", root);
  clock.Advance(100);
  tracer.Close(window);
  tracer.Close(root);

  const std::string stacks = tracer.CollapsedStacks();
  EXPECT_EQ(stacks.find("window.stale"), std::string::npos) << stacks;
  EXPECT_NE(stacks.find("root 100"), std::string::npos) << stacks;
}

TEST(ProfileTest, ChromeTraceJsonIsStructurallySane) {
  TracerRig rig;
  SimClock& clock = rig.clock;
  Tracer& tracer = rig.tracer;

  const SpanId root = tracer.Open("iommu.flush");
  const SpanId window = tracer.OpenDetached("window.stale", root);
  clock.Advance(50);
  tracer.Close(window);
  tracer.Close(root);

  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);   // stack span
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);   // async window open
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);   // async window close
  EXPECT_NE(json.find("iommu.flush"), std::string::npos);
  EXPECT_NE(json.find("window.stale"), std::string::npos);
}

TEST(ProfileTest, SubtreeMaskSelectsOnlyDescendants) {
  TracerRig rig;
  Tracer& tracer = rig.tracer;

  const SpanId a = tracer.Open("a");        // id 1
  const SpanId a1 = tracer.Open("a.1");     // id 2
  tracer.Close(a1);
  tracer.Close(a);
  const SpanId b = tracer.Open("b");        // id 3
  tracer.Close(b);

  const SpanForest forest = rig.Forest();
  const std::unordered_set<uint64_t> mask = SubtreeMask(forest, a);
  EXPECT_EQ(mask.size(), 2u);
  EXPECT_TRUE(mask.count(a.value));
  EXPECT_TRUE(mask.count(a1.value));
  EXPECT_FALSE(mask.count(b.value));
}

TEST(ProfileTest, BuildSpanForestRecoversOverwrittenOpens) {
  // A kSpanClose whose kSpanOpen was evicted from the ring: the close record
  // carries the duration in aux, so the open cycle is recoverable.
  std::vector<telemetry::Event> events;
  telemetry::Event close;
  close.kind = telemetry::EventKind::kSpanClose;
  close.cycle = 500;
  close.span = 7;
  close.aux = 120;  // duration
  close.site = "orphaned.op";
  events.push_back(close);

  const SpanForest forest = BuildSpanForest(events);
  ASSERT_EQ(forest.records.size(), 1u);
  const SpanRecord& record = forest.records[0];
  EXPECT_EQ(record.id.value, 7u);
  EXPECT_EQ(record.name, "orphaned.op");
  EXPECT_TRUE(record.closed);
  EXPECT_EQ(record.open_cycle, 380u);
  EXPECT_EQ(record.close_cycle, 500u);
}

TEST(ProfileTest, Fig6StyleRunAttributesAtLeast95PercentOfCycles) {
  core::MachineConfig config;
  config.seed = 6;
  config.iommu.mode = iommu::InvalidationMode::kStrict;
  config.telemetry.enabled = true;
  config.telemetry.ring_capacity = 1 << 14;  // keep every span event
  config.trace.enabled = true;
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(2048, "attr_buf");
  std::vector<uint8_t> touch(8);
  for (int i = 0; i < 50; ++i) {
    auto iova = machine.dma().MapSingle(dev, buf, 2048, dma::DmaDirection::kFromDevice,
                                        "attr_map");
    ASSERT_TRUE(iova.ok());
    (void)machine.iommu().DeviceWrite(dev, *iova, touch);
    (void)machine.dma().UnmapSingle(dev, *iova, 2048, dma::DmaDirection::kFromDevice);
  }

  // Round-trip through the CSV exporter, as trace_cli consumes it.
  const std::vector<telemetry::Event> events =
      telemetry::ParseTraceCsv(machine.telemetry().ExportTraceCsv());
  const SpanForest forest = BuildSpanForest(events);
  EXPECT_FALSE(forest.records.empty());
  const Attribution attribution = AttributedCycles(forest);
  EXPECT_GT(attribution.total_cycles, 0u);
  EXPECT_GE(attribution.fraction, 0.95)
      << "attributed " << attribution.attributed_cycles << " of "
      << attribution.total_cycles << " cycles";
}

// ---- Vulnerability windows --------------------------------------------------
//
// Windows are views of the flight recorder's mapping lives.

using forensics::Window;
using forensics::WindowKind;

std::vector<Window> Windows(core::Machine& machine, DeviceId dev) {
  return machine.flight_recorder()->SnapshotWindows(dev);
}

core::MachineConfig WindowConfig(iommu::InvalidationMode mode) {
  core::MachineConfig config;
  config.seed = 9;
  config.iommu.mode = mode;
  config.telemetry.enabled = true;
  config.trace.enabled = true;
  return config;
}

// Maps, lets the device touch the buffer (warming the IOTLB), unmaps.
Iova OpenStaleWindow(core::Machine& machine, DeviceId dev, Kva buf) {
  std::vector<uint8_t> touch(8);
  auto iova = machine.dma().MapSingle(dev, buf, 2048, dma::DmaDirection::kFromDevice,
                                      "window_map");
  EXPECT_TRUE(iova.ok());
  (void)machine.iommu().DeviceWrite(dev, *iova, touch);
  (void)machine.dma().UnmapSingle(dev, *iova, 2048, dma::DmaDirection::kFromDevice);
  return *iova;
}

TEST(WindowTest, DeferredWindowClosesOnManualFlush) {
  core::Machine machine{WindowConfig(iommu::InvalidationMode::kDeferred)};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(2048, "w_buf");
  OpenStaleWindow(machine, dev, buf);
  ASSERT_EQ(machine.flight_recorder()->open_windows(WindowKind::kStaleIotlb), 1u);

  machine.clock().Advance(5000);
  machine.iommu().FlushNow();

  EXPECT_EQ(machine.flight_recorder()->open_windows(WindowKind::kStaleIotlb), 0u);
  bool found = false;
  for (const Window& window : Windows(machine, dev)) {
    if (window.kind != WindowKind::kStaleIotlb) {
      continue;
    }
    found = true;
    EXPECT_FALSE(window.open);
    EXPECT_EQ(window.close_reason, "flush:manual");
    EXPECT_GE(window.duration(), 5000u);
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(machine.flight_recorder()->stale_open_summary().count, 1u);
}

TEST(WindowTest, DeferredWindowClosesOnDeadlineDrain) {
  core::Machine machine{WindowConfig(iommu::InvalidationMode::kDeferred)};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(2048, "w_buf");
  OpenStaleWindow(machine, dev, buf);

  machine.clock().AdvanceUs(10001);  // past the 10 ms deferred deadline
  machine.iommu().ProcessDeferredTimer();

  EXPECT_EQ(machine.flight_recorder()->open_windows(WindowKind::kStaleIotlb), 0u);
  bool found = false;
  for (const Window& window : Windows(machine, dev)) {
    if (window.kind == WindowKind::kStaleIotlb && !window.open) {
      EXPECT_EQ(window.close_reason, "flush:deadline");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(WindowTest, DeferredWindowClosesOnCapacityDrain) {
  core::Machine machine{WindowConfig(iommu::InvalidationMode::kDeferred)};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(2048, "w_buf");
  // The flush queue holds 256 pending invalidations; the 257th unmap forces
  // a capacity drain that closes every window opened so far.
  for (int i = 0; i < 257; ++i) {
    OpenStaleWindow(machine, dev, buf);
  }

  bool capacity_close = false;
  for (const Window& window : Windows(machine, dev)) {
    if (window.kind == WindowKind::kStaleIotlb && !window.open &&
        window.close_reason == "flush:capacity") {
      capacity_close = true;
    }
  }
  EXPECT_TRUE(capacity_close);
}

// A quarantine's per-device drain is a flush edge for the fenced device only:
// its window closes and its ledger life records the flush at the drain,
// while another device's pending range stays open until a flush.
TEST(WindowTest, QuarantineDrainClosesOnlyTheFencedDevicesWindow) {
  core::MachineConfig config = WindowConfig(iommu::InvalidationMode::kDeferred);
  config.forensics.enabled = true;
  core::Machine machine{config};
  const DeviceId fenced{1};
  const DeviceId other{2};
  machine.iommu().AttachDevice(fenced);
  machine.iommu().AttachDevice(other);
  Kva buf = *machine.slab().Kmalloc(2048, "w_buf");
  const Iova fenced_iova = OpenStaleWindow(machine, fenced, buf);
  OpenStaleWindow(machine, other, buf);
  ASSERT_EQ(machine.flight_recorder()->open_windows(WindowKind::kStaleIotlb), 2u);

  // One page drained: one page-selective command.
  const uint64_t drain_cycle = machine.clock().now() + iommu::kIotlbInvalidationCycles;
  ASSERT_TRUE(machine.iommu().FenceDevice(fenced).ok());
  size_t drain_events = 0;
  for (const telemetry::Event& event : machine.telemetry().ring().Snapshot()) {
    if (event.kind == telemetry::EventKind::kIotlbInvalidate && event.site == "drain_device") {
      ++drain_events;
      EXPECT_EQ(event.device, fenced.value);
      EXPECT_EQ(event.addr2, fenced_iova.PageBase().value);
      EXPECT_EQ(event.len, kPageSize);
      EXPECT_EQ(event.aux, iommu::kIotlbInvalidationCycles);
      EXPECT_EQ(event.cycle, drain_cycle);
    }
  }
  EXPECT_EQ(drain_events, 1u);
  EXPECT_EQ(machine.flight_recorder()->open_windows(WindowKind::kStaleIotlb), 1u);

  machine.clock().Advance(5000);
  machine.iommu().FlushNow();
  const uint64_t flush_cycle = machine.clock().now();
  EXPECT_EQ(machine.flight_recorder()->open_windows(WindowKind::kStaleIotlb), 0u);

  std::vector<Window> windows = Windows(machine, fenced);
  for (const Window& window : Windows(machine, other)) {
    windows.push_back(window);
  }
  for (const Window& window : windows) {
    if (window.kind != WindowKind::kStaleIotlb) {
      continue;
    }
    EXPECT_FALSE(window.open);
    if (window.device == fenced.value) {
      EXPECT_EQ(window.close_reason, "flush:device");
      EXPECT_EQ(window.close_cycle, drain_cycle);
    } else {
      EXPECT_EQ(window.close_reason, "flush:manual");
      EXPECT_EQ(window.close_cycle, flush_cycle);
    }
  }
  const std::vector<forensics::MappingLife> fenced_ledger =
      machine.flight_recorder()->SnapshotLedger(fenced);
  ASSERT_EQ(fenced_ledger.size(), 1u);
  EXPECT_EQ(fenced_ledger[0].flush_cycle, drain_cycle);
  const std::vector<forensics::MappingLife> other_ledger =
      machine.flight_recorder()->SnapshotLedger(other);
  ASSERT_EQ(other_ledger.size(), 1u);
  EXPECT_EQ(other_ledger[0].flush_cycle, flush_cycle);
}

TEST(WindowTest, StrictWindowSpansOnlyTheSynchronousInvalidation) {
  core::Machine machine{WindowConfig(iommu::InvalidationMode::kStrict)};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(2048, "w_buf");
  OpenStaleWindow(machine, dev, buf);

  // A buffer spanning four pages, each warmed in the IOTLB before the unmap.
  auto pfn = machine.page_alloc().AllocPages(2, mem::PageOwner::kDriver);
  ASSERT_TRUE(pfn.ok());
  const Kva big = machine.layout().PhysToDirectMapKva(PhysAddr::FromPfn(*pfn));
  constexpr uint64_t kBigLen = 3 * kPageSize + 512;
  auto iova = machine.dma().MapSingle(dev, big, kBigLen, dma::DmaDirection::kFromDevice,
                                      "window_map_big");
  ASSERT_TRUE(iova.ok());
  std::vector<uint8_t> touch(8);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(machine.iommu().DeviceWrite(dev, *iova + (i << kPageShift), touch).ok());
  }
  ASSERT_TRUE(
      machine.dma().UnmapSingle(dev, *iova, kBigLen, dma::DmaDirection::kFromDevice).ok());

  EXPECT_EQ(machine.flight_recorder()->open_windows(WindowKind::kStaleIotlb), 0u);
  std::vector<uint64_t> pages;
  for (const Window& window : Windows(machine, dev)) {
    if (window.kind != WindowKind::kStaleIotlb) {
      continue;
    }
    pages.push_back(window.pages);
    EXPECT_FALSE(window.open);
    EXPECT_EQ(window.close_reason, "strict");
    // One invalidation command at kIotlbInvalidationCycles per unmap,
    // however many pages it covers (the clock advance is published in the
    // invalidate event's aux and backdated here).
    EXPECT_EQ(window.duration(), 2000u);
  }
  EXPECT_EQ(pages, (std::vector<uint64_t>{1, 4}));
}

TEST(WindowTest, StalledStrictWindowLastsThroughTheStall) {
  // The translation stays live until the stalled invalidation completes, so
  // the window spans the stall too.
  constexpr uint64_t kStall = 5000;
  core::MachineConfig config = WindowConfig(iommu::InvalidationMode::kStrict);
  config.fault_plan.OneShot(fault::FaultSite::kIotlbInvalidation)
      .Magnitude(fault::FaultSite::kIotlbInvalidation, kStall);
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(2048, "w_buf");
  OpenStaleWindow(machine, dev, buf);

  EXPECT_EQ(machine.iommu().stats().invalidation_cycles, 2000u + kStall);
  size_t stale = 0;
  for (const Window& window : Windows(machine, dev)) {
    if (window.kind == WindowKind::kStaleIotlb) {
      ++stale;
      EXPECT_EQ(window.close_reason, "strict");
      EXPECT_EQ(window.duration(), 2000u + kStall);
    }
  }
  EXPECT_EQ(stale, 1u);
}

TEST(WindowTest, SubPageWindowOpensOnWritableMapAndClosesOnUnmap) {
  core::Machine machine{WindowConfig(iommu::InvalidationMode::kDeferred)};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  // 2048-byte buffer in a 4 KiB page: 2048 bytes of neighbouring memory are
  // exposed to a device-writable mapping.
  Kva buf = *machine.slab().Kmalloc(2048, "w_buf");
  auto iova = machine.dma().MapSingle(dev, buf, 2048, dma::DmaDirection::kFromDevice,
                                      "subpage_map");
  ASSERT_TRUE(iova.ok());
  EXPECT_EQ(machine.flight_recorder()->open_windows(WindowKind::kSubPage), 1u);

  (void)machine.dma().UnmapSingle(dev, *iova, 2048, dma::DmaDirection::kFromDevice);
  EXPECT_EQ(machine.flight_recorder()->open_windows(WindowKind::kSubPage), 0u);

  bool found = false;
  for (const Window& window : Windows(machine, dev)) {
    if (window.kind != WindowKind::kSubPage) {
      continue;
    }
    found = true;
    EXPECT_FALSE(window.open);
    EXPECT_EQ(window.close_reason, "unmap");
    EXPECT_EQ(window.exposed_bytes, 2048u);
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(machine.flight_recorder()->subpage_open_summary().count, 1u);
}

TEST(WindowTest, StaleHitsAreAttributedToTheOpenWindow) {
  core::Machine machine{WindowConfig(iommu::InvalidationMode::kDeferred)};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(2048, "w_buf");
  const Iova iova = OpenStaleWindow(machine, dev, buf);

  // The translation is dead but still cached: this write is the Fig-6 stale
  // access, and the tracker pins it to the window it landed in.
  std::vector<uint8_t> touch(8);
  ASSERT_TRUE(machine.iommu().DeviceWrite(dev, iova, touch).ok());

  ASSERT_EQ(machine.flight_recorder()->open_windows(WindowKind::kStaleIotlb), 1u);
  bool found = false;
  for (const Window& window : Windows(machine, dev)) {
    if (window.kind == WindowKind::kStaleIotlb && window.open) {
      EXPECT_GE(window.device_hits, 1u);
      EXPECT_GT(window.first_hit_cycle, 0u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(WindowTest, DkasanReportClosesTheWindowAndRecordsLatency) {
  core::Machine machine{WindowConfig(iommu::InvalidationMode::kDeferred)};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  dkasan::DKasan detector{machine.layout()};
  detector.set_telemetry(&machine.telemetry());
  detector.Attach(machine.dma());

  Kva buf = *machine.slab().Kmalloc(2048, "w_buf");
  OpenStaleWindow(machine, dev, buf);
  ASSERT_EQ(machine.flight_recorder()->open_windows(WindowKind::kStaleIotlb), 1u);
  machine.clock().Advance(3000);

  // A CPU access to a still-mapped buffer: D-KASAN reports it, and the report
  // (a runtime detection) ends the exploitable interval.
  auto live = machine.dma().MapSingle(dev, buf, 2048, dma::DmaDirection::kFromDevice,
                                      "dkasan_live_map");
  ASSERT_TRUE(live.ok());
  (void)machine.dma().SyncSingleForCpu(dev, *live, 2048, dma::DmaDirection::kFromDevice);

  const telemetry::Histogram::Summary latency =
      machine.flight_recorder()->dkasan_latency_summary();
  ASSERT_GE(latency.count, 1u);
  EXPECT_GE(latency.max, 3000u);
  EXPECT_EQ(machine.flight_recorder()->open_windows(WindowKind::kStaleIotlb), 0u);
  bool detected = false;
  for (const Window& window : Windows(machine, dev)) {
    if (window.kind == WindowKind::kStaleIotlb && window.detected) {
      EXPECT_EQ(window.close_reason, "detected:dkasan");
      detected = true;
    }
  }
  EXPECT_TRUE(detected);
}

TEST(WindowTest, SpadeFindingRecordsLatencyButLeavesTheWindowOpen) {
  core::Machine machine{WindowConfig(iommu::InvalidationMode::kDeferred)};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(2048, "w_buf");
  OpenStaleWindow(machine, dev, buf);
  ASSERT_EQ(machine.flight_recorder()->open_windows(WindowKind::kStaleIotlb), 1u);
  machine.clock().Advance(5000);

  // Static scan while the window is open: a finding measures how quickly the
  // analyzer could have flagged the site, but cannot invalidate a live
  // translation, so the window stays open.
  spade::SpadeAnalyzer analyzer;
  analyzer.set_telemetry(&machine.telemetry());
  analyzer.set_tracer(machine.tracer());
  auto file = spade::ParseSource("inline.c", R"(
    struct my_op {
      u8 buf[64];
      void (*done)(struct my_op *op);
    };
    int f(struct dev *d, struct my_op *op) {
      dma_addr_t a;
      a = dma_map_single(d, &op->buf, 64, DMA_FROM_DEVICE);
      return 0;
    }
  )");
  ASSERT_TRUE(file.ok());
  analyzer.AddFile(std::move(*file));
  auto findings = analyzer.Analyze();
  ASSERT_TRUE(findings.ok());
  ASSERT_FALSE(findings->empty());

  const telemetry::Histogram::Summary latency =
      machine.flight_recorder()->spade_latency_summary();
  ASSERT_GE(latency.count, 1u);
  EXPECT_GE(latency.max, 5000u);
  EXPECT_EQ(machine.flight_recorder()->open_windows(WindowKind::kStaleIotlb), 1u);  // still open
  for (const Window& window : Windows(machine, dev)) {
    if (window.kind == WindowKind::kStaleIotlb) {
      EXPECT_TRUE(window.open);
      EXPECT_TRUE(window.detected);
    }
  }
}

}  // namespace
}  // namespace spv::trace
