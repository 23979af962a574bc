// Allocation regression for observer storage: a Hub's trace ring and a
// flight recorder's per-CPU rings are built when first written, not when
// constructed, and a steady map/access/unmap/flush churn through a
// recorder with windows announced to a tracer allocates nothing. This
// executable replaces the global operator new with one that counts calls
// and bytes (alloc_counter.h), so it holds no other suite.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "alloc_counter.h"
#include "base/clock.h"
#include "base/exec.h"
#include "forensics/flight_recorder.h"
#include "telemetry/telemetry.h"
#include "trace/tracer.h"

namespace spv::forensics {
namespace {

using spv_alloc_counter::Allocations;

constexpr size_t kSoakRingCapacity = 16384;  // soak::RunSoak's trace ring
constexpr size_t kHubRingCapacity = 1024;
constexpr int kCycles = 10'000;

TEST(ForensicsAllocTest, ConstructingARecordingHubAllocatesNothing) {
  telemetry::Hub::Config config;
  config.enabled = true;
  config.ring_capacity = kSoakRingCapacity;
  const Allocations construction;
  telemetry::Hub hub{config};
  EXPECT_EQ(construction.calls_since(), 0u);

  // The first accepted event reserves every slot at once; filling the ring
  // allocates nothing more (sites within the small-string buffer).
  telemetry::Event event;
  event.site = "short site";
  const Allocations fill;
  for (size_t i = 0; i < kSoakRingCapacity; ++i) {
    hub.Publish(event);
  }
  EXPECT_EQ(fill.calls_since(), 1u);
  EXPECT_EQ(fill.bytes_since(), kSoakRingCapacity * sizeof(telemetry::Event));
  EXPECT_EQ(hub.ring().size(), kSoakRingCapacity);
  EXPECT_EQ(hub.ring().dropped(), 0u);
}

TEST(ForensicsAllocTest, ConstructingADefaultDisabledHubAllocatesNothing) {
  const Allocations construction;
  telemetry::Hub hub;
  EXPECT_EQ(construction.calls_since(), 0u);

  // Nothing is recorded, so no ring is ever built.
  hub.Publish(telemetry::Event{});
  EXPECT_EQ(construction.calls_since(), 0u);
  EXPECT_EQ(hub.ring().recorded(), 0u);
}

// A site longer than any window event's, so every wrapped ring slot's
// buffer fits what is published after.
void WrapRing(telemetry::Hub& hub) {
  telemetry::Event event;
  event.site = std::string(32, 'w');
  for (size_t i = 0; i < kHubRingCapacity; ++i) {
    hub.Publish(event);
  }
  ASSERT_EQ(hub.ring().recorded(), kHubRingCapacity);
}

// One life through every edge the deferred path feeds: a writable sub-page
// mapping (its sub-page window opens), an access through it, its unmap (the
// sub-page window closes, a stale window opens) and the capacity drain that
// revokes it (the stale window closes, the life retires and, with a ledger
// of one, the previous life is evicted).
void Cycle(FlightRecorder& recorder, SimClock& clock, const std::string& site) {
  const DeviceId dev{7};
  recorder.RecordMap(dev, Iova{0x10000}, Kva{0xffff800000001000}, 2048,
                     /*dir=*/1, /*bounced=*/false, site);
  clock.Advance(10);
  recorder.RecordAccess(dev, Iova{0x10010}, 0x5010, 16, /*is_write=*/true);
  clock.Advance(10);
  recorder.RecordUnmap(dev, Iova{0x10000}, 2048, /*dir=*/1, /*bounced=*/false);
  clock.Advance(10);
  recorder.RecordFlush(dev, Iova{0x10000}, 1, /*cost=*/2, "flush:capacity");
  clock.Advance(10);
}

TEST(ForensicsAllocTest, SteadyMapAccessUnmapFlushCyclesAllocateNothing) {
  SimClock clock;
  telemetry::Hub::Config hub_config;
  hub_config.enabled = true;
  hub_config.ring_capacity = kHubRingCapacity;
  telemetry::Hub hub{hub_config};
  hub.BindClock(&clock);
  trace::Tracer tracer{hub, clock};
  WrapRing(hub);
  ForensicsConfig config;
  config.enabled = true;
  config.ledger_capacity = 1;
  FlightRecorder recorder(&clock, config);
  recorder.set_tracer(&tracer);
  const std::string site(24, 's');  // past the small-string buffer

  // Warm-up. The first cycle builds the lane, its ring, index, ledger heap
  // and pool, the tracer's table and the recorder's reused announcement list
  // and window event. The second builds the pool's second slot and its site
  // buffer: with a ledger of one, the retained life and the newly mapped one
  // coexist. From the third on, each map reuses the slot just evicted.
  Cycle(recorder, clock, site);
  Cycle(recorder, clock, site);

  const Allocations steady;
  for (int i = 0; i < kCycles; ++i) {
    Cycle(recorder, clock, site);
  }
  EXPECT_EQ(steady.calls_since(), 0u);

  // Windows really opened and closed on every cycle.
  constexpr uint64_t kAllCycles = kCycles + 2;
  EXPECT_EQ(hub.counter_value("window.subpage.opened"), kAllCycles);
  EXPECT_EQ(hub.counter_value("window.subpage.closed"), kAllCycles);
  EXPECT_EQ(hub.counter_value("window.stale.opened"), kAllCycles);
  EXPECT_EQ(hub.counter_value("window.stale.closed"), kAllCycles);
  EXPECT_EQ(recorder.open_windows(WindowKind::kStaleIotlb), 0u);
  EXPECT_EQ(recorder.open_windows(WindowKind::kSubPage), 0u);
  EXPECT_EQ(recorder.ledger_dropped(), kAllCycles - 1);
  EXPECT_EQ(tracer.orphan_closes(), 0u);
  // The last window event: the stale window's close, published through the
  // recorder's reused Event (its span's close follows it).
  const std::vector<telemetry::Event> events = hub.ring().Snapshot();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[events.size() - 2].kind, telemetry::EventKind::kWindowClose);
  EXPECT_EQ(events[events.size() - 2].site, "window.stale:flush:capacity");
  EXPECT_EQ(events.back().kind, telemetry::EventKind::kSpanClose);
  const std::vector<MappingLife> ledger = recorder.SnapshotLedger(DeviceId{7});
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].generation, kAllCycles);
  EXPECT_EQ(ledger[0].site, site);
  EXPECT_EQ(ledger[0].accesses, 1u);
}

TEST(ForensicsAllocTest, ARingIsBuiltAtItsFirstRecordNotWhenItsDeviceIsNamed) {
  ForensicsConfig config;
  config.enabled = true;
  config.ring_capacity = 1 << 14;
  const uint64_t ring_bytes = uint64_t{config.ring_capacity} * sizeof(FlightRecord);
  SimClock clock;
  FlightRecorder recorder(&clock, config, /*num_cpus=*/4);
  const DeviceId dev{3};

  const Allocations lookups;
  EXPECT_TRUE(recorder.SnapshotTimeline(dev).empty());
  EXPECT_TRUE(recorder.SnapshotLedger(dev).empty());
  EXPECT_TRUE(recorder.SnapshotWindows(dev).empty());
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_EQ(lookups.calls_since(), 0u);

  // The first record on CPU 2 builds that CPU's ring alone.
  SetCurrentCpu(CpuId{2});
  const Allocations first;
  recorder.RecordFault(dev, Iova{0x4000}, kPageSize, /*is_write=*/true);
  EXPECT_GE(first.bytes_since(), ring_bytes);
  EXPECT_LT(first.bytes_since(), 2 * ring_bytes);
  const Allocations second;
  recorder.RecordFault(dev, Iova{0x5000}, kPageSize, /*is_write=*/false);
  EXPECT_EQ(second.calls_since(), 0u);

  // A snapshot naming the device copies its records and builds no ring.
  const Allocations snapshot;
  EXPECT_EQ(recorder.SnapshotTimeline(dev).size(), 2u);
  EXPECT_LT(snapshot.bytes_since(), ring_bytes);

  SetCurrentCpu(CpuId{0});
  const Allocations other_cpu;
  recorder.RecordFault(dev, Iova{0x6000}, kPageSize, /*is_write=*/true);
  EXPECT_GE(other_cpu.bytes_since(), ring_bytes);
  EXPECT_LT(other_cpu.bytes_since(), 2 * ring_bytes);
  EXPECT_EQ(recorder.total_recorded(), 3u);
}

}  // namespace
}  // namespace spv::forensics
