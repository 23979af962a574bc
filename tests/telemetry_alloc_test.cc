// Allocation regression for the publish path: once a recording Hub's ring
// has wrapped, opening and closing spans and publishing a reused Event
// allocate nothing. This executable replaces the global operator new with
// one that counts calls, so it holds no other suite.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "base/clock.h"
#include "telemetry/telemetry.h"
#include "trace/tracer.h"

namespace {

uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms too, so every block the plain deletes free came from
// malloc (sanitizers check that allocation and release functions match).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

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

  const uint64_t before = g_allocations;
  for (int i = 0; i < kIterations; ++i) {
    trace::ScopedSpan span{&tracer, "iommu.device_access"};
    clock.Advance(1);
  }
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(hub.ring().recorded(), kRingCapacity + 2 + 2 * kIterations);
  EXPECT_EQ(hub.ring().Snapshot().back().site, "iommu.device_access");
}

TEST(PublishAllocTest, PublishOfAReusedEventAllocatesNothing) {
  Hub hub{Recording()};
  WrapRing(hub);
  Event event = SiteEvent();

  const uint64_t before = g_allocations;
  for (int i = 0; i < kIterations; ++i) {
    event.addr = static_cast<uint64_t>(i);
    hub.Publish(event);
  }
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(hub.ring().Snapshot().back().addr, static_cast<uint64_t>(kIterations - 1));
}

}  // namespace
}  // namespace spv::telemetry
