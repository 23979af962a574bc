// Tests for spv::telemetry: counter/histogram math, trace-ring wraparound and
// drop accounting, severity filtering, sink dispatch semantics, exporter
// escaping and determinism, and one end-to-end attack run traced on the
// machine bus.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "attack/attacks.h"
#include "base/json.h"
#include "attack/mini_cpu.h"
#include "core/machine.h"
#include "device/malicious_nic.h"
#include "telemetry/telemetry.h"

namespace spv::telemetry {
namespace {

// ---- Counters and histograms ----------------------------------------------------

// Hub counters are the same StatCounter every layer tallies with.
TEST(CounterTest, AddAndSet) {
  StatCounter c;
  EXPECT_EQ(c.load(), 0u);
  ++c;
  c += 41;
  EXPECT_EQ(c.load(), 42u);
  c = 7;
  EXPECT_EQ(c.load(), 7u);
}

TEST(HistogramTest, Log2BucketPlacement) {
  Histogram h;
  h.Record(0);     // bucket 0
  h.Record(1);     // bucket 1 (upper bound 1)
  h.Record(2);     // bucket 2 (upper bound 3)
  h.Record(3);     // bucket 2
  h.Record(4096);  // bucket 13 (upper bound 8191)
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 4102u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 4096u);
  const auto buckets = h.NonZeroBuckets();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0].upper_bound, 0u);
  EXPECT_EQ(buckets[0].count, 1u);
  EXPECT_EQ(buckets[1].upper_bound, 1u);
  EXPECT_EQ(buckets[2].upper_bound, 3u);
  EXPECT_EQ(buckets[2].count, 2u);
  EXPECT_EQ(buckets[3].upper_bound, 8191u);
}

TEST(HistogramTest, MeanAndPercentiles) {
  Histogram h;
  for (int i = 0; i < 99; ++i) {
    h.Record(1);
  }
  h.Record(1u << 20);
  EXPECT_DOUBLE_EQ(h.Mean(), (99.0 + (1u << 20)) / 100.0);
  // p50 and p99 land in the bucket of the 1s; p100 in the outlier's bucket.
  EXPECT_EQ(h.PercentileUpperBound(50), 1u);
  EXPECT_EQ(h.PercentileUpperBound(99), 1u);
  EXPECT_EQ(h.PercentileUpperBound(100), (1u << 21) - 1);
  Histogram empty;
  EXPECT_EQ(empty.PercentileUpperBound(50), 0u);
  EXPECT_DOUBLE_EQ(empty.Mean(), 0.0);
}

// ---- Trace ring -----------------------------------------------------------------

Event MakeEvent(EventKind kind, Severity severity) {
  Event event;
  event.kind = kind;
  event.severity = severity;
  return event;
}

TEST(TraceRingTest, WraparoundKeepsNewestAndCountsDrops) {
  TraceRing ring{4};
  for (int i = 0; i < 10; ++i) {
    Event event = MakeEvent(EventKind::kDmaMap, Severity::kInfo);
    event.len = static_cast<uint64_t>(i);
    EXPECT_TRUE(ring.Push(event));
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.size(), 4u);
  const auto events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);  // oldest surviving seq is 6
    EXPECT_EQ(events[i].len, 6 + i);
  }
}

TEST(TraceRingTest, FewerEventsThanCapacityKeepEveryOneInOrder) {
  TraceRing ring{8};
  for (int i = 0; i < 5; ++i) {
    Event event = MakeEvent(EventKind::kDmaMap, Severity::kInfo);
    event.len = static_cast<uint64_t>(i);
    ring.Push(event);
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<Event> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].len, i);
  }
}

TEST(TraceRingTest, ExactlyCapacityDropsNothingUntilTheNextEvent) {
  TraceRing ring{4};
  for (int i = 0; i < 4; ++i) {
    Event event = MakeEvent(EventKind::kDmaMap, Severity::kInfo);
    event.len = static_cast<uint64_t>(i);
    ring.Push(event);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.recorded(), 4u);
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<Event> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 0u);
  EXPECT_EQ(events.back().seq, 3u);

  ring.Push(MakeEvent(EventKind::kDmaMap, Severity::kWarn));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(Severity::kInfo), 1u);
  events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 1u);
  EXPECT_EQ(events.back().seq, 4u);
  EXPECT_EQ(events.back().severity, Severity::kWarn);
}

TEST(TraceRingTest, ClearedRingRefillsAndWrapsAgain) {
  TraceRing ring{3};
  for (int i = 0; i < 5; ++i) {
    ring.Push(MakeEvent(EventKind::kCpuAccess, Severity::kTrace));
  }
  ring.Clear();
  for (int i = 0; i < 2; ++i) {
    Event event = MakeEvent(EventKind::kDmaMap, Severity::kInfo);
    event.site = "refill " + std::to_string(i) + " past the small-string buffer";
    ring.Push(event);
  }
  std::vector<Event> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].kind, EventKind::kDmaMap);
  EXPECT_EQ(events[1].site, "refill 1 past the small-string buffer");
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.dropped(), 0u);

  for (int i = 0; i < 3; ++i) {
    ring.Push(MakeEvent(EventKind::kIommuFault, Severity::kWarn));
  }
  EXPECT_EQ(ring.recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(ring.dropped(Severity::kInfo), 2u);
  EXPECT_EQ(ring.dropped(Severity::kTrace), 0u);
  events = ring.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 2u);
  EXPECT_EQ(events[2].seq, 4u);
  for (const Event& event : events) {
    EXPECT_EQ(event.kind, EventKind::kIommuFault);
    EXPECT_TRUE(event.site.empty());
  }
}

TEST(TraceRingTest, SeverityFloorFiltersBeforeRecording) {
  TraceRing ring{8};
  ring.set_min_severity(Severity::kWarn);
  EXPECT_FALSE(ring.Push(MakeEvent(EventKind::kCpuAccess, Severity::kTrace)));
  EXPECT_FALSE(ring.Push(MakeEvent(EventKind::kDmaMap, Severity::kInfo)));
  EXPECT_TRUE(ring.Push(MakeEvent(EventKind::kIommuFault, Severity::kWarn)));
  EXPECT_TRUE(ring.Push(MakeEvent(EventKind::kStaleIotlbHit, Severity::kCritical)));
  EXPECT_EQ(ring.recorded(), 2u);
  EXPECT_EQ(ring.filtered(), 2u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRingTest, ClearResetsSequenceAndFilterCount) {
  TraceRing ring{2};
  ring.Push(MakeEvent(EventKind::kDmaMap, Severity::kInfo));
  ring.Push(MakeEvent(EventKind::kDmaMap, Severity::kInfo));
  ring.Push(MakeEvent(EventKind::kDmaMap, Severity::kInfo));
  ring.Clear();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
}

// Slots are overwritten in place: a reused slot holds exactly the new site,
// shorter or longer than the one it replaced.
TEST(TraceRingTest, ReusedSlotsHoldOnlyTheNewEvent) {
  TraceRing ring{2};
  const std::string sites[] = {"a site longer than the small-string buffer", "short",
                               "x", "another site well past fifteen bytes", ""};
  for (const std::string& site : sites) {
    Event event = MakeEvent(EventKind::kAttackStage, Severity::kInfo);
    event.site = site;
    event.len = site.size();
    ring.Push(event);
  }
  const std::vector<Event> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 3u);
  EXPECT_EQ(events[0].site, sites[3]);
  EXPECT_EQ(events[0].len, sites[3].size());
  EXPECT_EQ(events[1].seq, 4u);
  EXPECT_EQ(events[1].site, "");
}

TEST(TraceRingTest, DropsAreAccountedPerOverwrittenSeverity) {
  TraceRing ring{2};
  ring.Push(MakeEvent(EventKind::kStaleIotlbHit, Severity::kCritical));
  ring.Push(MakeEvent(EventKind::kCpuAccess, Severity::kTrace));
  // The next two pushes overwrite the oldest slots: the critical finding
  // first, then the trace record.
  ring.Push(MakeEvent(EventKind::kDmaMap, Severity::kInfo));
  EXPECT_EQ(ring.dropped(Severity::kCritical), 1u);
  EXPECT_EQ(ring.dropped(Severity::kTrace), 0u);
  ring.Push(MakeEvent(EventKind::kDmaMap, Severity::kInfo));
  EXPECT_EQ(ring.dropped(Severity::kTrace), 1u);
  EXPECT_EQ(ring.dropped(Severity::kInfo), 0u);
  EXPECT_EQ(ring.dropped(Severity::kWarn), 0u);
  EXPECT_EQ(ring.dropped(), 2u);  // the total is the sum of the breakdown
  ring.Clear();
  EXPECT_EQ(ring.dropped(Severity::kCritical), 0u);
}

// ---- Hub dispatch ---------------------------------------------------------------

struct RecordingSink : EventSink {
  std::vector<Event> seen;
  void OnEvent(const Event& event) override { seen.push_back(event); }
};

TEST(HubTest, SinksReceiveEventsEvenWhenRecordingDisabled) {
  Hub hub;  // recording off by default
  RecordingSink sink;
  hub.AddSink(&sink);
  EXPECT_TRUE(hub.active());  // a sink keeps the bus live
  hub.Publish(MakeEvent(EventKind::kDmaUnmap, Severity::kInfo));
  EXPECT_EQ(sink.seen.size(), 1u);
  EXPECT_EQ(hub.ring().recorded(), 0u);  // nothing recorded while disabled
  hub.RemoveSink(&sink);
  EXPECT_FALSE(hub.active());
}

TEST(HubTest, ClockStampsCycles) {
  SimClock clock;
  clock.AdvanceUs(3);
  Hub::Config config;
  config.enabled = true;
  Hub hub{config};
  hub.BindClock(&clock);
  hub.Publish(MakeEvent(EventKind::kNicRx, Severity::kInfo));
  const auto events = hub.ring().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].cycle, clock.now());
}

Hub::Config Recording() {
  Hub::Config config;
  config.enabled = true;
  return config;
}

TEST(HubTest, LinksUnderOneNameSum) {
  Hub hub{Recording()};
  StatCounter nic0;
  StatCounter nic1;
  const CounterLink link0 = hub.Link("nic.rx_packets", nic0);
  const CounterLink link1 = hub.Link("nic.rx_packets", nic1);
  nic0 += 2;
  nic1 += 3;
  ++hub.counter("nic.rx_packets");  // a hub-owned count adds to the links
  EXPECT_EQ(hub.counter_value("nic.rx_packets"), 6u);
  EXPECT_NE(hub.ExportJson().find("\"nic.rx_packets\":6"), std::string::npos);
}

TEST(HubTest, LinkCountsOnlyIncrementsAfterLinking) {
  Hub hub{Recording()};
  StatCounter tally = 5;
  const CounterLink link = hub.Link("iotlb.hits", tally);
  // Listed from the moment it is linked, zero included.
  EXPECT_EQ(hub.counter_value("iotlb.hits"), 0u);
  EXPECT_NE(hub.ExportJson().find("\"iotlb.hits\":0"), std::string::npos);
  tally += 2;
  EXPECT_EQ(hub.counter_value("iotlb.hits"), 2u);
}

TEST(HubTest, DestroyedLinkKeepsItsCount) {
  Hub hub{Recording()};
  {
    StatCounter tally;
    const CounterLink link = hub.Link("iova.rcache.hits", tally);
    tally += 4;
  }
  EXPECT_EQ(hub.counter_value("iova.rcache.hits"), 4u);
  StatCounter next_domain;
  const CounterLink relink = hub.Link("iova.rcache.hits", next_domain);  // folds the dead link
  ++next_domain;
  EXPECT_EQ(hub.counter_value("iova.rcache.hits"), 5u);

  // Re-wiring replaces a link without counting anything twice, and moving a
  // handle moves the one link.
  StatCounter tally = 10;
  CounterLink link = hub.Link("iommu.maps", tally);
  ++tally;
  link = hub.Link("iommu.maps", tally);
  ++tally;
  EXPECT_EQ(hub.counter_value("iommu.maps"), 2u);
  CounterLink moved = std::move(link);
  ++tally;
  EXPECT_EQ(hub.counter_value("iommu.maps"), 3u);
}

TEST(HubTest, LinkMayOutliveItsHub) {
  StatCounter tally;
  CounterLink link;
  {
    Hub hub{Recording()};
    link = hub.Link("iommu.maps", tally);
    ++tally;
    EXPECT_EQ(hub.counter_value("iommu.maps"), 1u);
  }
  ++tally;  // the link now unlinks from a Hub that is gone
}

TEST(HubTest, RecordingOffHubLinksNothing) {
  Hub hub;  // recording off by default
  StatCounter tally;
  const CounterLink link = hub.Link("iommu.maps", tally);
  tally += 9;
  EXPECT_EQ(hub.counter_value("iommu.maps"), 0u);
  EXPECT_EQ(hub.ExportJson().find("iommu.maps"), std::string::npos);
}

TEST(HubTest, CounterValueIsZeroForUnknownNames) {
  Hub hub;
  EXPECT_EQ(hub.counter_value("never.touched"), 0u);
  hub.counter("touched") += 3;
  EXPECT_EQ(hub.counter_value("touched"), 3u);
}

// ---- Kind routing ---------------------------------------------------------------

constexpr auto kLastKind = static_cast<unsigned>(EventKind::kBounceSyncDevice);

// Records what it receives, for the kinds it declares.
struct DeclaringSink : RecordingSink {
  explicit DeclaringSink(KindSet declared) : declared(declared) {}
  KindSet kinds() const override { return declared; }
  KindSet declared;
};

// Publishes one event of every kind.
void PublishEveryKind(Hub& hub) {
  for (unsigned kind = 0; kind <= kLastKind; ++kind) {
    hub.Publish(MakeEvent(static_cast<EventKind>(kind), Severity::kInfo));
  }
}

TEST(HubRoutingTest, SinkSeesOnlyItsDeclaredKinds) {
  Hub hub{Recording()};
  DeclaringSink sink{{EventKind::kDmaMap, EventKind::kStaleIotlbHit}};
  hub.AddSink(&sink);
  EXPECT_EQ(hub.sink_kinds(), sink.declared);
  PublishEveryKind(hub);
  ASSERT_EQ(sink.seen.size(), 2u);
  EXPECT_EQ(sink.seen[0].kind, EventKind::kDmaMap);
  EXPECT_EQ(sink.seen[1].kind, EventKind::kStaleIotlbHit);
  EXPECT_EQ(hub.ring().recorded(), kLastKind + 1);  // the ring still records every kind
  hub.RemoveSink(&sink);
}

TEST(HubRoutingTest, RemoveSinkDropsItsKindsFromTheUnion) {
  Hub hub;
  DeclaringSink maps{{EventKind::kDmaMap}};
  DeclaringSink faults{{EventKind::kIommuFault, EventKind::kDmaMap}};
  hub.AddSink(&maps);
  hub.AddSink(&faults);
  EXPECT_TRUE(hub.sink_kinds().contains(EventKind::kIommuFault));
  hub.RemoveSink(&faults);
  EXPECT_EQ(hub.sink_kinds(), KindSet{EventKind::kDmaMap});
  hub.Publish(MakeEvent(EventKind::kIommuFault, Severity::kWarn));
  hub.Publish(MakeEvent(EventKind::kDmaMap, Severity::kInfo));
  EXPECT_TRUE(faults.seen.empty());
  EXPECT_EQ(maps.seen.size(), 1u);
  hub.RemoveSink(&maps);
  EXPECT_EQ(hub.sink_kinds(), KindSet{});
}

TEST(HubRoutingTest, DefaultSinkSeesEveryKind) {
  Hub hub;  // recording off: only the sink sees the events
  RecordingSink sink;
  hub.AddSink(&sink);
  EXPECT_EQ(hub.sink_kinds(), KindSet::All());
  PublishEveryKind(hub);
  ASSERT_EQ(sink.seen.size(), kLastKind + 1);
  for (unsigned kind = 0; kind <= kLastKind; ++kind) {
    EXPECT_EQ(sink.seen[kind].kind, static_cast<EventKind>(kind));
  }
  hub.RemoveSink(&sink);
}

// The ring is written before sinks run: an event a sink publishes from
// OnEvent lands right after the one that triggered it, and every sink sees
// the trigger stamped but with seq 0.
TEST(HubRoutingTest, EventPublishedFromOnEventLandsAfterItsTrigger) {
  struct FollowUpSink : DeclaringSink {
    FollowUpSink() : DeclaringSink({EventKind::kIommuFault}) {}
    void OnEvent(const Event& event) override {
      RecordingSink::OnEvent(event);
      Event follow_up = MakeEvent(EventKind::kHealthBreach, Severity::kWarn);
      follow_up.site = "follow_up";
      hub->Publish(follow_up);
    }
    Hub* hub = nullptr;
  };
  SimClock clock;
  clock.AdvanceUs(1);
  Hub hub{Recording()};
  hub.BindClock(&clock);
  FollowUpSink first;
  first.hub = &hub;
  RecordingSink second;
  hub.AddSink(&first);
  hub.AddSink(&second);
  hub.set_current_span(5);
  hub.Publish(MakeEvent(EventKind::kDmaMap, Severity::kInfo));
  Event trigger = MakeEvent(EventKind::kIommuFault, Severity::kWarn);
  trigger.site = "trigger";
  hub.Publish(trigger);
  const std::vector<Event> events = hub.ring().Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].site, "trigger");
  EXPECT_EQ(events[1].cycle, clock.now());
  EXPECT_EQ(events[1].span, 5u);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_EQ(events[2].site, "follow_up");
  // The caller's Event is left as it was; the sinks got a stamped copy.
  EXPECT_EQ(trigger.cycle, 0u);
  EXPECT_EQ(trigger.span, 0u);
  ASSERT_EQ(first.seen.size(), 1u);
  EXPECT_EQ(first.seen[0].seq, 0u);
  EXPECT_EQ(first.seen[0].cycle, clock.now());
  EXPECT_EQ(first.seen[0].span, 5u);
  // The second sink saw the map, then the follow-up (published while the
  // first sink ran), then the trigger.
  ASSERT_EQ(second.seen.size(), 3u);
  EXPECT_EQ(second.seen[1].site, "follow_up");
  EXPECT_EQ(second.seen[2].site, "trigger");
  hub.RemoveSink(&second);
  hub.RemoveSink(&first);
}

// ---- Dispatch across sim CPUs ----------------------------------------------------

core::MachineConfig RecordingMachine(uint32_t cpus) {
  core::MachineConfig config;
  config.phys_pages = 4096;
  config.iommu.fast_path.num_cpus = cpus;
  config.telemetry.enabled = true;
  return config;
}

// A kmalloc, a map and an unmap outside RunOnCpus reach the sink and the
// ring before the calls return; a later RunOnCpus has nothing left to
// deliver.
TEST(HubThreadsTest, CoordinatorEventsReachSinksAtOnce) {
  RecordingSink sink;
  core::Machine machine{RecordingMachine(2)};
  const DeviceId dev{3};
  machine.iommu().AttachDevice(dev);
  Hub& hub = machine.telemetry();
  const uint64_t recorded = hub.ring().recorded();
  hub.AddSink(&sink);
  Kva buf = *machine.slab().Kmalloc(1024, "coordinator_probe");
  auto iova = machine.dma().MapSingle(dev, buf, 1024, dma::DmaDirection::kFromDevice,
                                      "coordinator_probe");
  ASSERT_TRUE(iova.ok());
  ASSERT_TRUE(machine.dma().UnmapSingle(dev, *iova, 1024, dma::DmaDirection::kFromDevice).ok());
  EXPECT_EQ(sink.seen.size(), 3u);
  EXPECT_EQ(hub.ring().recorded() - recorded, 3u);
  machine.RunOnCpus(2, [](CpuId) {});  // nothing is waiting to be delivered
  EXPECT_EQ(sink.seen.size(), 3u);
  EXPECT_EQ(hub.ring().recorded() - recorded, 3u);
  hub.RemoveSink(&sink);
  (void)machine.slab().Kfree(buf);
}

// Sinks publish from OnEvent (D-KASAN reports, incident announcements,
// window events). With every one of four CPUs publishing, every event and
// every follow-up reaches the sink and the ring exactly once.
TEST(HubThreadsTest, SinkRepublishesFromEveryWorker) {
  constexpr uint64_t kPerWorker = 500;
  struct RepublishingSink : EventSink {
    Hub* hub = nullptr;
    uint64_t probes = 0;
    uint64_t follow_ups = 0;
    void OnEvent(const Event& event) override {
      if (event.site != "probe") {
        ++follow_ups;
        return;
      }
      ++probes;
      Event follow_up = MakeEvent(EventKind::kAttackStage, Severity::kInfo);
      follow_up.site = "follow_up";
      hub->Publish(follow_up);
    }
  };
  RepublishingSink sink;
  core::Machine machine{RecordingMachine(4)};
  Hub& hub = machine.telemetry();
  sink.hub = &hub;
  const uint64_t recorded = hub.ring().recorded();
  hub.AddSink(&sink);
  machine.RunOnCpus(4, [&hub](CpuId) {
    for (uint64_t i = 0; i < kPerWorker; ++i) {
      Event event = MakeEvent(EventKind::kAttackStage, Severity::kInfo);
      event.site = "probe";
      hub.Publish(event);
    }
  });
  hub.RemoveSink(&sink);
  EXPECT_EQ(sink.probes, 4 * kPerWorker);
  EXPECT_EQ(sink.follow_ups, 4 * kPerWorker);
  EXPECT_EQ(hub.ring().recorded() - recorded, 8 * kPerWorker);
}

// ---- Exporters ------------------------------------------------------------------

TEST(ExportTest, CsvEscaping) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("two\nlines"), "\"two\nlines\"");
}

std::string JsonString(std::string_view text) { return json::Writer().String(text).Take(); }

TEST(ExportTest, JsonEscaping) {
  EXPECT_EQ(JsonString("plain"), "\"plain\"");
  EXPECT_EQ(JsonString("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(JsonString("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(JsonString(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(ExportTest, HistogramJsonCarriesSummaryQuantiles) {
  Hub::Config config;
  config.enabled = true;
  Hub hub{config};
  for (int i = 0; i < 99; ++i) {
    hub.histogram("op.cycles").Record(1);
  }
  hub.histogram("op.cycles").Record(1u << 20);
  const std::string json = hub.ExportJson();
  EXPECT_NE(json.find("\"p50\":1,"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":1,"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":1,"), std::string::npos);
  // Summarize() and the export derive from the same PercentileUpperBound.
  const Histogram::Summary summary = hub.histogram("op.cycles").Summarize();
  EXPECT_EQ(summary.count, 100u);
  EXPECT_EQ(summary.p50, 1u);
  EXPECT_EQ(summary.p99, 1u);
  EXPECT_DOUBLE_EQ(summary.mean, (99.0 + (1u << 20)) / 100.0);
}

TEST(ExportTest, JsonReportsDroppedCriticalFailLoud) {
  Hub::Config config;
  config.enabled = true;
  config.ring_capacity = 2;
  Hub hub{config};
  hub.Publish(MakeEvent(EventKind::kStaleIotlbHit, Severity::kCritical));
  hub.Publish(MakeEvent(EventKind::kDmaMap, Severity::kInfo));
  hub.Publish(MakeEvent(EventKind::kDmaMap, Severity::kInfo));  // evicts the finding
  const std::string json = hub.ExportJson();
  EXPECT_NE(json.find("\"dropped_critical\":1"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_by_severity\":[0,0,0,1]"), std::string::npos);
}

TEST(ExportTest, TraceCsvCarriesSpanColumn) {
  Hub::Config config;
  config.enabled = true;
  Hub hub{config};
  Event event = MakeEvent(EventKind::kDmaMap, Severity::kInfo);
  event.span = 7;
  hub.Publish(event);
  const std::string csv = hub.ExportTraceCsv();
  EXPECT_EQ(csv.rfind("seq,cycle,kind,severity,device,addr,addr2,len,aux,flag,span,site", 0),
            0u);
  const std::vector<Event> parsed = ParseTraceCsv(csv);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].span, 7u);
}

TEST(ExportTest, ParseTraceCsvRoundTripsAllFields) {
  Hub::Config config;
  config.enabled = true;
  Hub hub{config};
  Event event = MakeEvent(EventKind::kStaleIotlbHit, Severity::kCritical);
  event.device = 3;
  event.addr = 0x1000;
  event.addr2 = 0x2000;
  event.len = 64;
  event.aux = 5;
  event.flag = true;
  event.span = 12;
  event.site = "quoted, \"site\"";
  hub.Publish(event);
  const std::vector<Event> parsed = ParseTraceCsv(hub.ExportTraceCsv());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].kind, EventKind::kStaleIotlbHit);
  EXPECT_EQ(parsed[0].severity, Severity::kCritical);
  EXPECT_EQ(parsed[0].device, 3u);
  EXPECT_EQ(parsed[0].addr, 0x1000u);
  EXPECT_EQ(parsed[0].addr2, 0x2000u);
  EXPECT_EQ(parsed[0].len, 64u);
  EXPECT_EQ(parsed[0].aux, 5u);
  EXPECT_TRUE(parsed[0].flag);
  EXPECT_EQ(parsed[0].span, 12u);
  EXPECT_EQ(parsed[0].site, "quoted, \"site\"");
}

TEST(ExportTest, ParseTraceCsvSkipsMalformedRows) {
  // Only 12-column rows parse: a row without the span column is skipped like
  // any other malformed row.
  const std::string csv =
      "seq,cycle,kind,severity,device,addr,addr2,len,aux,flag,span,site\n"
      "0,100,dma_map,info,1,4096,8192,64,2,0,legacy_site\n"
      "not,a,valid,row\n"
      "1,200,dma_unmap,info,1,4096,8192,64,2,0,7,current_site\n";
  const std::vector<Event> parsed = ParseTraceCsv(csv);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].cycle, 200u);
  EXPECT_EQ(parsed[0].kind, EventKind::kDmaUnmap);
  EXPECT_EQ(parsed[0].span, 7u);
  EXPECT_EQ(parsed[0].site, "current_site");
}

// CsvEscape quotes a site that holds a newline; the parser keeps the whole
// field, and the rows after it still parse.
TEST(ExportTest, ParseTraceCsvKeepsQuotedNewlines) {
  Hub hub{Recording()};
  Event multi_line = MakeEvent(EventKind::kAttackStage, Severity::kInfo);
  multi_line.site = "line one\nline two";
  hub.Publish(multi_line);
  Event crlf = MakeEvent(EventKind::kAttackStage, Severity::kInfo);
  crlf.site = "quoted,\r\n\"cr lf\"";
  hub.Publish(crlf);
  Event after = MakeEvent(EventKind::kDmaMap, Severity::kInfo);
  after.site = "after";
  hub.Publish(after);
  const std::vector<Event> parsed = ParseTraceCsv(hub.ExportTraceCsv());
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].site, "line one\nline two");
  EXPECT_EQ(parsed[1].site, "quoted,\r\n\"cr lf\"");
  EXPECT_EQ(parsed[2].seq, 2u);
  EXPECT_EQ(parsed[2].site, "after");
}

// A number that does not fit its field skips the row instead of wrapping.
TEST(ExportTest, ParseTraceCsvSkipsOutOfRangeNumbers) {
  const std::string csv =
      "seq,cycle,kind,severity,device,addr,addr2,len,aux,flag,span,site\n"
      "0,100,dma_map,info,4294967297,4096,8192,64,2,0,0,device_too_large\n"
      "1,100,dma_map,info,1,18446744073709551616,8192,64,2,0,0,addr_too_large\n"
      "2,100,dma_map,info,1,4096,8192,64,2,0,99999999999999999999,span_too_large\n"
      "3,100,dma_map,info,4294967295,18446744073709551615,8192,64,2,0,0,largest\n";
  const std::vector<Event> parsed = ParseTraceCsv(csv);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].seq, 3u);
  EXPECT_EQ(parsed[0].device, UINT32_MAX);
  EXPECT_EQ(parsed[0].addr, UINT64_MAX);
  EXPECT_EQ(parsed[0].site, "largest");
}

TEST(ExportTest, TraceCsvRoundTripsNames) {
  Hub::Config config;
  config.enabled = true;
  Hub hub{config};
  Event event = MakeEvent(EventKind::kStaleIotlbHit, Severity::kCritical);
  event.site = "unmap, then access";
  hub.Publish(event);
  const std::string csv = hub.ExportTraceCsv();
  EXPECT_NE(csv.find("stale_iotlb_hit"), std::string::npos);
  EXPECT_NE(csv.find("critical"), std::string::npos);
  EXPECT_NE(csv.find("\"unmap, then access\""), std::string::npos);
}

// Runs the same short workload the trace CLI demo uses. Everything in the
// simulation is seeded, so two runs must export byte-identical documents.
std::string RunSeededWorkload(uint64_t seed) {
  core::MachineConfig config;
  config.seed = seed;
  config.phys_pages = 4096;
  config.telemetry.enabled = true;
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(2048, "export_test");
  std::vector<uint8_t> payload(64, 0x5a);
  for (int i = 0; i < 3; ++i) {
    auto iova = machine.dma().MapSingle(dev, buf, 2048, dma::DmaDirection::kFromDevice,
                                        "export_map");
    (void)machine.iommu().DeviceWrite(dev, *iova, payload);
    (void)machine.dma().UnmapSingle(dev, *iova, 2048, dma::DmaDirection::kFromDevice);
    // Deferred mode: this lands in the stale-IOTLB window after the unmap.
    (void)machine.iommu().DeviceWrite(dev, *iova, payload);
  }
  machine.clock().AdvanceUs(10001);
  machine.iommu().ProcessDeferredTimer();
  (void)machine.slab().Kfree(buf);
  return machine.telemetry().ExportJson();
}

TEST(ExportTest, JsonExportIsDeterministicUnderFixedSeed) {
  const std::string first = RunSeededWorkload(99);
  const std::string second = RunSeededWorkload(99);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"iommu.maps\""), std::string::npos);
  EXPECT_NE(first.find("\"dma.map_bytes\""), std::string::npos);
  EXPECT_NE(first.find("stale_iotlb_hit"), std::string::npos);
}

// ---- Layer tallies on the machine bus -------------------------------------------

TEST(TelemetryIntegrationTest, DetachedDomainCountsStayInHubTotals) {
  core::MachineConfig config;
  config.phys_pages = 4096;
  config.iommu.mode = iommu::InvalidationMode::kStrict;  // IOVAs recycle at once
  config.telemetry.enabled = true;
  core::Machine machine{config};
  const DeviceId dev{9};
  machine.iommu().AttachDevice(dev);  // hot-plug
  Kva buf = *machine.slab().Kmalloc(8192, "hotplug_test");
  const std::vector<uint8_t> payload(8192, 0x5a);
  for (int i = 0; i < 4; ++i) {
    auto iova = machine.dma().MapSingle(dev, buf, 8192, dma::DmaDirection::kFromDevice,
                                        "hotplug_map");
    ASSERT_TRUE(iova.ok());
    ASSERT_TRUE(machine.iommu().DeviceWrite(dev, *iova, payload).ok());
    ASSERT_TRUE(
        machine.dma().UnmapSingle(dev, *iova, 8192, dma::DmaDirection::kFromDevice).ok());
  }
  const iommu::IovaAllocator::Stats iova_stats = machine.iommu().iova_allocator(dev)->stats();
  const iommu::IoPageTable::WalkCacheStats walk_stats =
      machine.iommu().page_table(dev)->walk_cache_stats();
  ASSERT_GT(iova_stats.rcache_hits, 0u);
  ASSERT_GT(walk_stats.hits, 0u);

  ASSERT_TRUE(machine.iommu().DetachDevice(dev).ok());
  ASSERT_EQ(machine.iommu().iova_allocator(dev), nullptr);  // the domain is gone
  const Hub& hub = machine.telemetry();
  EXPECT_EQ(hub.counter_value("iova.rcache.hits"), iova_stats.rcache_hits);
  EXPECT_EQ(hub.counter_value("iova.rcache.misses"), iova_stats.rcache_misses);
  EXPECT_EQ(hub.counter_value("iommu.walk_cache.hits"), walk_stats.hits);
  EXPECT_EQ(hub.counter_value("iommu.walk_cache.misses"), walk_stats.misses);
  (void)machine.slab().Kfree(buf);
}

TEST(TelemetryIntegrationTest, BypassMapsAndUnmapsReachTheHub) {
  core::MachineConfig config;
  config.phys_pages = 4096;
  config.iommu.enabled = false;  // pre-IOMMU world: dma_addr == phys
  config.telemetry.enabled = true;
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);
  Kva buf = *machine.slab().Kmalloc(2048, "bypass_test");
  for (int i = 0; i < 3; ++i) {
    auto iova =
        machine.dma().MapSingle(dev, buf, 2048, dma::DmaDirection::kToDevice, "bypass_map");
    ASSERT_TRUE(iova.ok());
    ASSERT_TRUE(
        machine.dma().UnmapSingle(dev, *iova, 2048, dma::DmaDirection::kToDevice).ok());
  }
  const iommu::Iommu::Stats& stats = machine.iommu().stats();
  ASSERT_EQ(stats.maps, 3u);
  EXPECT_EQ(machine.telemetry().counter_value("iommu.maps"), stats.maps);
  EXPECT_EQ(machine.telemetry().counter_value("iommu.unmaps"), stats.unmaps);
  (void)machine.slab().Kfree(buf);
}

// ---- End-to-end: attack run on the machine bus ----------------------------------

// Same rig as tests/attack_test.cc, with telemetry recording turned on and the
// ring floored at kWarn so the attack narrative is what gets recorded.
TEST(TelemetryIntegrationTest, PoisonedTxStagesAppearInOrderOnTheBus) {
  core::MachineConfig config;
  config.seed = 41;
  config.iommu.mode = iommu::InvalidationMode::kDeferred;
  config.net.forwarding_enabled = false;
  config.telemetry.enabled = true;
  config.telemetry.min_severity = Severity::kWarn;

  net::NicDriver::Config driver_config;
  driver_config.name = "victim_nic";
  driver_config.rx_ring_size = 32;
  driver_config.rx_buf_len = 1728;  // i40e-style half-page buffers

  core::Machine machine{config};
  net::NicDriver& nic = machine.AddNicDriver(driver_config);
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  device.set_warm_iotlb_on_post(true);
  nic.AttachDevice(&device);
  machine.stack().set_egress(&nic);
  attack::MiniCpu cpu{machine.kmem(), machine.layout()};
  machine.stack().set_callback_invoker(&cpu);

  ASSERT_TRUE(machine.stack().CreateSocket(7, /*echo=*/true).ok());
  ASSERT_TRUE(nic.FillRxRing().ok());

  auto report = attack::PoisonedTxAttack::Run(
      attack::AttackEnv{machine, nic, device, cpu}, {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->success);

  // Every narrative step was published as a kWarn attack_stage event, in
  // order, prefixed with the attack name.
  std::vector<std::string> staged;
  for (const Event& event : machine.telemetry().ring().Snapshot()) {
    if (event.kind == EventKind::kAttackStage) {
      EXPECT_EQ(event.severity, Severity::kWarn);
      staged.push_back(event.site);
    }
  }
  ASSERT_EQ(staged.size(), report->steps.size());
  for (size_t i = 0; i < staged.size(); ++i) {
    EXPECT_EQ(staged[i], "poisoned_tx: " + report->steps[i]);
  }
  EXPECT_EQ(machine.telemetry().counter_value("attack.stages"), staged.size());

  // The kTrace/kInfo plumbing was filtered by the severity floor, not dropped.
  EXPECT_EQ(machine.telemetry().ring().dropped(), 0u);
  EXPECT_GT(machine.telemetry().ring().filtered(), 0u);

  // The run necessarily exercised the stale-IOTLB window; Critical events
  // passed the floor too.
  EXPECT_GT(machine.telemetry().counter_value("iommu.stale_iotlb_accesses"), 0u);
}

}  // namespace
}  // namespace spv::telemetry
