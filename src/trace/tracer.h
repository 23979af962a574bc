// spv::trace — causal spans over the telemetry Hub.
//
// A span brackets one multi-step operation (a DMA map, a packet's trip
// through NIC and stack, an IOTLB flush drain, an attack stage, a detector
// scan). Opening a span publishes a kSpanOpen event and sets the Hub's
// current-span register, so every event emitted until the matching Close is
// causally linked to it via Event::span — no per-site plumbing. Closing
// publishes kSpanClose with the open duration in `aux`.
//
// The Tracer keeps only the spans that are open: the call stack, plus the
// open detached (window) spans. A closed span lives on only in the Hub's
// event stream, which is the one span history: BuildSpanForest (profile.h)
// turns it into a forest, for trace_cli and for this Tracer's own exporters
// alike, so a live export covers what the Hub's ring holds.
//
// Span names are views, kept while the span is open and copied only into
// the event's site: pass a literal (or other string that outlives the span).
// Opening and closing a span allocates nothing once the stack, the table of
// open detached spans and the Hub's ring slots have grown to fit.
//
// Ids are deterministic: the n-th span opened on a Tracer gets id n. Since
// the whole simulation is seeded and the clock is logical, two identical runs
// produce identical span trees — the property the regression tests pin.
//
// Cost model: emit sites hold a `Tracer*` that is null when tracing is off,
// so the disabled hot path pays exactly one pointer test — the same guard
// shape as the existing `hub && hub->active()` telemetry gates.

#ifndef SPV_TRACE_TRACER_H_
#define SPV_TRACE_TRACER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/clock.h"
#include "telemetry/telemetry.h"

namespace spv::trace {

// Strongly typed span id. 0 is "no span" (kNoSpan): events outside any span
// carry it, and ScopedSpan hands it out for a null tracer so callers need no
// error path.
struct SpanId {
  uint64_t value = 0;
  bool valid() const { return value != 0; }
  friend bool operator==(SpanId a, SpanId b) { return a.value == b.value; }
  friend bool operator!=(SpanId a, SpanId b) { return a.value != b.value; }
};

inline constexpr SpanId kNoSpan{};

// MachineConfig's switch: Machine builds a Tracer only when `enabled` is set.
struct TracerConfig {
  bool enabled = false;  // spans off by default, like Hub recording
};

// Single-owner registry of open spans. Not thread-safe (the simulator is
// single-threaded; CpuId is data, not a thread).
class Tracer {
 public:
  Tracer(telemetry::Hub& hub, const SimClock& clock);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Opens a span nested under the currently open one (stack discipline).
  // `name` is kept as a view until the span closes: pass a literal.
  SpanId Open(std::string_view name);

  // Opens a span with an explicit parent, outside the stack — for windows
  // and other operations whose lifetime does not follow call structure.
  // `name` is kept as a view until the span closes: pass a literal.
  SpanId OpenDetached(std::string_view name, SpanId parent = kNoSpan);

  // Closes `id`. Spans still open above it on the stack are closed first
  // (implicit close, same cycle) so the stack discipline self-heals. Closing
  // kNoSpan is a no-op; closing a span that is not open (never opened,
  // already closed, or closed by an outer close) is counted in
  // orphan_closes() and publishes nothing.
  void Close(SpanId id);

  // Stack top, or kNoSpan.
  SpanId current() const { return stack_.empty() ? kNoSpan : stack_.back().id; }

  uint64_t orphan_closes() const { return orphan_closes_; }

  // Exporters over the span forest of the Hub's ring (see profile.h); spans
  // still open are clipped at the clock's now.
  std::string ChromeTraceJson() const;
  std::string CollapsedStacks() const;

  telemetry::Hub& hub() { return hub_; }

 private:
  struct OpenSpan {
    SpanId id;
    SpanId parent;  // kNoSpan for roots
    std::string_view name;
    uint64_t open_cycle = 0;
    bool detached = false;
  };

  OpenSpan NewSpan(std::string_view name, SpanId parent, bool detached);
  void Publish(const OpenSpan& span, bool open);
  void InsertDetached(const OpenSpan& span);
  // Removes the open detached span `id` into `out`; false if none is open.
  bool TakeDetached(SpanId id, OpenSpan* out);

  telemetry::Hub& hub_;
  const SimClock& clock_;
  std::vector<OpenSpan> stack_;  // open stack spans, outermost first
  // Open detached spans, open-addressed by id: linear probing over a
  // power-of-two table kept at most half full, kNoSpan marking a free slot.
  // A removal shifts the rest of its probe run back, so there are no
  // tombstones and the table allocates only when it grows.
  std::vector<OpenSpan> detached_;
  size_t detached_open_ = 0;
  uint64_t spans_opened_ = 0;  // the last id handed out
  uint64_t orphan_closes_ = 0;
  telemetry::Event event_;  // every span event is published through this one
};

// RAII span. Tolerates a null tracer so emit sites can hold an unconditional
// ScopedSpan — the null case costs one branch. `name` is a view, as for
// Tracer::Open: pass a literal.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name)
      : tracer_(tracer), id_(tracer_ != nullptr ? tracer_->Open(name) : kNoSpan) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Close(id_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanId id() const { return id_; }

 private:
  Tracer* tracer_;
  SpanId id_;
};

}  // namespace spv::trace

#endif  // SPV_TRACE_TRACER_H_
