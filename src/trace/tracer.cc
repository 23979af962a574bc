#include "trace/tracer.h"

#include <algorithm>

#include "trace/profile.h"

namespace spv::trace {

namespace {

// Home slot of span `id` in a detached-span table of `mask + 1` slots.
size_t DetachedHome(uint64_t id, size_t mask) {
  return static_cast<size_t>((id * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
}

// The forest of the ring's span events; spans still open are clipped at
// `now`.
SpanForest RingForest(const std::vector<telemetry::Event>& events, uint64_t now) {
  SpanForest forest = BuildSpanForest(events);
  forest.total_cycles = std::max(forest.total_cycles, now);
  return forest;
}

}  // namespace

Tracer::Tracer(telemetry::Hub& hub, const SimClock& clock) : hub_(hub), clock_(clock) {
  event_.severity = telemetry::Severity::kTrace;
}

Tracer::~Tracer() {
  // Leave the Hub's span register clean for whoever outlives us.
  hub_.set_current_span(0);
}

Tracer::OpenSpan Tracer::NewSpan(std::string_view name, SpanId parent, bool detached) {
  return OpenSpan{SpanId{++spans_opened_}, parent, name, clock_.now(), detached};
}

void Tracer::Publish(const OpenSpan& span, bool open) {
  if (!hub_.active()) {
    return;
  }
  // Only these fields vary; the Hub stamps the cycle into its ring slot.
  event_.kind = open ? telemetry::EventKind::kSpanOpen : telemetry::EventKind::kSpanClose;
  event_.addr = span.parent.value;
  event_.aux = open ? 0 : clock_.now() - span.open_cycle;
  event_.flag = span.detached;
  event_.span = span.id.value;
  event_.site.assign(span.name);
  hub_.Publish(event_);
}

SpanId Tracer::Open(std::string_view name) {
  stack_.push_back(NewSpan(name, current(), /*detached=*/false));
  const SpanId id = stack_.back().id;
  hub_.set_current_span(id.value);
  Publish(stack_.back(), /*open=*/true);
  return id;
}

SpanId Tracer::OpenDetached(std::string_view name, SpanId parent) {
  const OpenSpan span = NewSpan(name, parent, /*detached=*/true);
  // No stack push and no current-span change: a detached span does not
  // adopt the events of whoever happens to run while it is open.
  InsertDetached(span);
  Publish(span, /*open=*/true);
  return span.id;
}

void Tracer::InsertDetached(const OpenSpan& span) {
  if ((detached_open_ + 1) * 2 > detached_.size()) {
    std::vector<OpenSpan> old = std::move(detached_);
    detached_.assign(std::max<size_t>(16, old.size() * 2), OpenSpan{});
    detached_open_ = 0;
    for (const OpenSpan& entry : old) {
      if (entry.id.valid()) {
        InsertDetached(entry);
      }
    }
  }
  const size_t mask = detached_.size() - 1;
  size_t slot = DetachedHome(span.id.value, mask);
  while (detached_[slot].id.valid()) {
    slot = (slot + 1) & mask;
  }
  detached_[slot] = span;
  ++detached_open_;
}

bool Tracer::TakeDetached(SpanId id, OpenSpan* out) {
  if (detached_.empty()) {
    return false;
  }
  const size_t mask = detached_.size() - 1;
  size_t hole = DetachedHome(id.value, mask);
  while (detached_[hole].id != id) {
    if (!detached_[hole].id.valid()) {
      return false;
    }
    hole = (hole + 1) & mask;
  }
  *out = detached_[hole];
  // Backward shift: a later entry of the run moves into the hole unless its
  // home lies cyclically in (hole, next], where a lookup would stop short.
  for (size_t next = (hole + 1) & mask; detached_[next].id.valid(); next = (next + 1) & mask) {
    const size_t home = DetachedHome(detached_[next].id.value, mask);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      detached_[hole] = detached_[next];
      hole = next;
    }
  }
  detached_[hole] = OpenSpan{};
  --detached_open_;
  return true;
}

void Tracer::Close(SpanId id) {
  if (!id.valid()) {
    return;
  }
  const auto on_stack = std::find_if(stack_.rbegin(), stack_.rend(),
                                     [id](const OpenSpan& span) { return span.id == id; });
  if (on_stack != stack_.rend()) {
    // Close everything opened above `id` first so the stack discipline holds
    // even when an inner span leaks its Close.
    const size_t depth = static_cast<size_t>(stack_.rend() - on_stack) - 1;
    while (stack_.size() > depth) {
      const OpenSpan top = stack_.back();
      stack_.pop_back();
      Publish(top, /*open=*/false);
    }
    hub_.set_current_span(current().value);
    return;
  }
  OpenSpan detached;
  if (!TakeDetached(id, &detached)) {
    ++orphan_closes_;
    return;
  }
  Publish(detached, /*open=*/false);
}

std::string Tracer::ChromeTraceJson() const {
  const std::vector<telemetry::Event> events = hub_.ring().Snapshot();
  return trace::ChromeTraceJson(RingForest(events, clock_.now()),
                                CollectInstants(events, telemetry::Severity::kWarn));
}

std::string Tracer::CollapsedStacks() const {
  return trace::CollapsedStacks(RingForest(hub_.ring().Snapshot(), clock_.now()));
}

}  // namespace spv::trace
