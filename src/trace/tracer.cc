#include "trace/tracer.h"

#include <algorithm>

#include "trace/profile.h"

namespace spv::trace {

namespace {

// The forest of the ring's span events; spans still open are clipped at
// `now`.
SpanForest RingForest(const std::vector<telemetry::Event>& events, uint64_t now) {
  SpanForest forest = BuildSpanForest(events);
  forest.total_cycles = std::max(forest.total_cycles, now);
  return forest;
}

}  // namespace

Tracer::Tracer(telemetry::Hub& hub, const SimClock& clock) : hub_(hub), clock_(clock) {}

Tracer::~Tracer() {
  // Leave the Hub's span register clean for whoever outlives us.
  hub_.set_current_span(0);
}

SpanRecord Tracer::NewSpan(std::string_view name, SpanId parent, bool detached) {
  SpanRecord span;
  span.id = SpanId{++spans_opened_};
  span.parent = parent;
  span.name = std::string(name);
  span.open_cycle = clock_.now();
  span.detached = detached;
  return span;
}

void Tracer::Publish(const SpanRecord& span, bool open) {
  if (!hub_.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = open ? telemetry::EventKind::kSpanOpen : telemetry::EventKind::kSpanClose;
  event.severity = telemetry::Severity::kTrace;
  event.addr = span.parent.value;
  event.aux = open ? 0 : clock_.now() - span.open_cycle;
  event.flag = span.detached;
  event.span = span.id.value;
  event.site = span.name;
  hub_.Publish(std::move(event));
}

SpanId Tracer::Open(std::string_view name) {
  stack_.push_back(NewSpan(name, current(), /*detached=*/false));
  const SpanId id = stack_.back().id;
  hub_.set_current_span(id.value);
  Publish(stack_.back(), /*open=*/true);
  return id;
}

SpanId Tracer::OpenDetached(std::string_view name, SpanId parent) {
  SpanRecord span = NewSpan(name, parent, /*detached=*/true);
  const SpanId id = span.id;
  // No stack push and no current-span change: a detached span does not
  // adopt the events of whoever happens to run while it is open.
  Publish(detached_.emplace(id.value, std::move(span)).first->second, /*open=*/true);
  return id;
}

void Tracer::Close(SpanId id) {
  if (!id.valid()) {
    return;
  }
  const auto on_stack = std::find_if(stack_.rbegin(), stack_.rend(),
                                     [id](const SpanRecord& span) { return span.id == id; });
  if (on_stack != stack_.rend()) {
    // Close everything opened above `id` first so the stack discipline holds
    // even when an inner span leaks its Close.
    const size_t depth = static_cast<size_t>(stack_.rend() - on_stack) - 1;
    while (stack_.size() > depth) {
      const SpanRecord top = std::move(stack_.back());
      stack_.pop_back();
      Publish(top, /*open=*/false);
    }
    hub_.set_current_span(current().value);
    return;
  }
  auto detached = detached_.extract(id.value);
  if (detached.empty()) {
    ++orphan_closes_;
    return;
  }
  Publish(detached.mapped(), /*open=*/false);
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
