// Allocation regression for the publish path: once a recording Hub's ring
// has wrapped, opening and closing spans and publishing a reused Event
// allocate nothing. This executable replaces the global operator new with
// one that counts calls (alloc_counter.h), so it holds no other suite.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "alloc_counter.h"
#include "base/clock.h"
#include "telemetry/telemetry.h"
#include "trace/tracer.h"

namespace spv::telemetry {
namespace {

constexpr size_t kRingCapacity = 1024;
constexpr int kIterations = 10'000;

Hub::Config Recording() {
  Hub::Config config;
  config.enabled = true;
  config.ring_capacity = kRingCapacity;
  return config;
}

// A site longer than the small-string buffer, as most span names and
// many layer sites are.
Event SiteEvent() {
  Event event;
  event.kind = EventKind::kDmaMap;
  event.severity = Severity::kInfo;
  event.site = std::string(24, 's');
  return event;
}

// Fills every ring slot with a 24-byte site, so each slot's buffer fits
// every site published after.
void WrapRing(Hub& hub) {
  const Event event = SiteEvent();
  for (size_t i = 0; i < kRingCapacity; ++i) {
    hub.Publish(event);
  }
  ASSERT_EQ(hub.ring().recorded(), kRingCapacity);
}

TEST(PublishAllocTest, ScopedSpansAllocateNothingOnceTheRingHasWrapped) {
  SimClock clock;
  Hub hub{Recording()};
  hub.BindClock(&clock);
  trace::Tracer tracer{hub, clock};
  WrapRing(hub);
  { trace::ScopedSpan warm_up{&tracer, "iommu.device_access"}; }  // the tracer's own buffers

  const spv_alloc_counter::Allocations allocations;
  for (int i = 0; i < kIterations; ++i) {
    trace::ScopedSpan span{&tracer, "iommu.device_access"};
    clock.Advance(1);
  }
  EXPECT_EQ(allocations.calls_since(), 0u);
  EXPECT_EQ(hub.ring().recorded(), kRingCapacity + 2 + 2 * kIterations);
  EXPECT_EQ(hub.ring().Snapshot().back().site, "iommu.device_access");
}

TEST(PublishAllocTest, PublishOfAReusedEventAllocatesNothing) {
  Hub hub{Recording()};
  WrapRing(hub);
  Event event = SiteEvent();

  const spv_alloc_counter::Allocations allocations;
  for (int i = 0; i < kIterations; ++i) {
    event.addr = static_cast<uint64_t>(i);
    hub.Publish(event);
  }
  EXPECT_EQ(allocations.calls_since(), 0u);
  EXPECT_EQ(hub.ring().Snapshot().back().addr, static_cast<uint64_t>(kIterations - 1));
}

}  // namespace
}  // namespace spv::telemetry
