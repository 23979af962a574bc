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
  detached_.emplace(span.id.value, span);
  Publish(span, /*open=*/true);
  return span.id;
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
