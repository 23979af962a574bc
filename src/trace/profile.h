// Cycle-attribution exporters over a span forest.
//
// The forest is always rebuilt from a kSpanOpen/kSpanClose event stream with
// BuildSpanForest: a live Tracer reads its Hub's ring, tools/trace_cli an
// exported CSV. Both render to the same two formats:
//
//   * Chrome trace-event JSON — Perfetto-loadable. Timebase is **sim
//     cycles**, emitted directly in the `ts`/`dur` microsecond fields (the
//     UI's unit label is wrong by a constant factor; relative widths, which
//     is what a profile is for, are exact). Stack spans are "X" complete
//     events on tid 1, detached window spans are async "b"/"e" pairs on
//     tid 2, warn+critical ring events are "i" instants.
//
//   * Collapsed stacks ("flamegraph" text) — one "root;child;leaf <self>"
//     line per distinct stack path, self cycles = total minus the total of
//     non-detached children. Detached spans are excluded: a window is not
//     CPU work attributable to its opener.

#ifndef SPV_TRACE_PROFILE_H_
#define SPV_TRACE_PROFILE_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "telemetry/telemetry.h"
#include "trace/tracer.h"

namespace spv::trace {

// One span of a SpanForest.
struct SpanRecord {
  SpanId id;
  SpanId parent;        // kNoSpan for roots
  std::string name;
  uint64_t open_cycle = 0;
  uint64_t close_cycle = 0;
  bool closed = false;
  // Detached spans (vulnerability windows) live outside the call stack: they
  // do not nest under the opener and are excluded from flamegraph self time.
  bool detached = false;

  uint64_t duration() const { return closed ? close_cycle - open_cycle : 0; }
};

struct SpanForest {
  std::vector<SpanRecord> records;  // open order; ids need not be dense
  uint64_t total_cycles = 0;        // horizon for still-open spans
};

// A point event worth showing on the timeline (warn/critical ring records).
struct Instant {
  uint64_t cycle = 0;
  std::string name;
  std::string detail;
  uint64_t span = 0;
};

// Rebuilds a forest from a trace-event stream (ExportTraceCsv / ring
// snapshot). A kSpanClose whose kSpanOpen was overwritten in the ring is
// recovered from the close record's duration in `aux`.
SpanForest BuildSpanForest(const std::vector<telemetry::Event>& events);

// Warn-and-above (by default) non-span events, as timeline instants.
std::vector<Instant> CollectInstants(
    const std::vector<telemetry::Event>& events,
    telemetry::Severity min_severity = telemetry::Severity::kWarn);

// Ids of `root` and every span (detached included) below it.
std::unordered_set<uint64_t> SubtreeMask(const SpanForest& forest, SpanId root);

// Empty mask = everything.
std::string ChromeTraceJson(const SpanForest& forest,
                            const std::vector<Instant>& instants = {},
                            const std::unordered_set<uint64_t>& mask = {});
std::string CollapsedStacks(const SpanForest& forest,
                            const std::unordered_set<uint64_t>& mask = {});

// How much of the run the span tree explains — the ISSUE 4 ">= 95% of total
// cycles attributed to named spans" acceptance metric.
struct Attribution {
  uint64_t total_cycles = 0;       // forest horizon
  uint64_t attributed_cycles = 0;  // covered by non-detached root spans
  double fraction = 0.0;           // attributed / total (0 when total is 0)
};
Attribution AttributedCycles(const SpanForest& forest);

}  // namespace spv::trace

#endif  // SPV_TRACE_PROFILE_H_
