// spv::telemetry — the one instrumentation spine of the simulated host.
//
// Every layer (IOMMU, IOTLB, DMA API, slab, page_frag, NIC driver, network
// stack, attacks, D-KASAN, SPADE) publishes events through a single Hub. The
// Hub provides:
//
//   * named counters and log2-bucketed Histograms in a deterministic (sorted)
//     registry. A fact a layer already tallies in its own StatCounter is
//     *linked* (Hub::Link), not counted twice: the Hub reads the layer's
//     tally, so there is one count per fact;
//   * a fixed-capacity trace ring of timestamped Events with
//     severity filtering and drop accounting — overwritten slots are counted,
//     never silently lost;
//   * deterministic JSON / CSV exporters (sorted names, fixed field order, no
//     wall-clock time) that benches consume instead of ad-hoc tallies, and
//     that tools/trace_cli replays as a timeline.
//
// The Hub is also the one fan-out path for functional consumers: D-KASAN,
// the recovery health scorer, the flight recorder, the incident engine and
// the trust policy are all plain EventSinks. Each sink declares the kinds it
// acts on (EventSink::kinds()) and receives only those, whether or not the
// Hub records; *recording* (ring, hub-owned counters, links) is fixed by
// `enabled` when the Hub is constructed, so a disabled Hub with no sinks
// costs one branch per emit site (components guard with `active()` before
// building an Event). Publish dispatches at once, so every sink sees each
// event when it happens.
//
// Publishing is cheap enough to leave on: Publish copies the event into its
// ring slot member by member (a wrapped ring reuses the slot's site buffer),
// builds one stamped copy only when some sink takes the kind, and layers
// resolve the hub-owned names they bump per event once (CachedMetric).

#ifndef SPV_TELEMETRY_TELEMETRY_H_
#define SPV_TELEMETRY_TELEMETRY_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "base/clock.h"
#include "base/stat_counter.h"

namespace spv::telemetry {

// ---- Events --------------------------------------------------------------------

enum class Severity : uint8_t {
  kTrace = 0,     // high-frequency plumbing (CPU accesses, slab traffic)
  kInfo = 1,      // normal operation milestones (maps, packets, flushes)
  kWarn = 2,      // suspicious (IOMMU faults, TX resets, attack stages)
  kCritical = 3,  // security findings (stale IOTLB hits, D-KASAN reports)
};

std::string_view SeverityName(Severity severity);
std::optional<Severity> SeverityFromName(std::string_view name);

enum class EventKind : uint8_t {
  // DMA API layer.
  kDmaMap,
  kDmaUnmap,
  kDmaSync,
  kCpuAccess,
  // IOMMU / IOTLB.
  kIotlbInvalidate,
  kIommuFlush,
  kIommuFault,
  kStaleIotlbHit,
  // Allocators.
  kSlabAlloc,
  kSlabFree,
  kFragAlloc,
  kFragFree,
  // NIC driver / network stack.
  kNicRx,
  kNicTx,
  kNicTxReset,
  kXdpDrop,
  kXdpTx,
  kStackDeliver,
  kStackForward,
  kStackDrop,
  kStackSend,
  kStackEcho,
  // Analyses and attack harnesses.
  kAttackStage,
  kDkasanReport,
  kSpadeFinding,
  // Fault injection (spv::fault) and the recovery paths it exercises.
  kFaultInjected,   // the engine fired a fault at an instrumented site
  kFaultRecovered,  // a consumer recovered (refill retry, TX requeue, ...)
  kNicRxError,      // driver dropped a completion (bad length, device fault)
  // Causal span layer (spv::trace). Span events carry their own id in
  // `span`, the parent id in `addr`, and the span name in `site`.
  kSpanOpen,
  kSpanClose,
  // Vulnerability windows (forensics::FlightRecorder). `addr2` is the IOVA page,
  // `aux` the open duration in cycles on close.
  kWindowOpen,
  kWindowClose,
  // Device lifecycle supervision (spv::recovery). `device` names the device;
  // `aux` carries the health score (breach) or the re-attach attempt count.
  kHealthBreach,        // health score crossed the quarantine threshold
  kDeviceQuarantined,   // mappings revoked, DMA fenced, rings torn down
  kDeviceReattached,    // supervised re-attach placed the device on probation
  kDeviceDetached,      // retry budget exhausted; permanently detached
  kDeviceFencedAccess,  // a fenced device attempted DMA (post-quarantine)
  kNicPollDeadline,     // a driver polling loop hit its bounded deadline
  // NVMe block driver / controller (spv::nvme). `aux` carries the CID on
  // submit/complete; `len` the transfer bytes.
  kNvmeSubmit,           // SQE written and the SQ doorbell rung
  kNvmeComplete,         // a valid CQE matched an outstanding command
  kNvmeCompletionError,  // CQE rejected (bad CID / phase / status / short)
  kNvmeQueueReset,       // watchdog flushed an IO queue and re-initialized it
  kNvmePollDeadline,     // a CQ polling loop hit its bounded deadline
  // Device trust policy (spv::policy). `aux` carries the new TrustState on
  // transitions; `flag` marks a refusal (hysteresis cooldown) on promote.
  kTrustPromoted,   // device moved up the trust ladder (or a refusal, flag=1)
  kTrustDemoted,    // device dropped back behind bounce buffers
  // Bounce-buffer pool (dma::BouncePool). `addr` is the original KVA, `addr2`
  // the bounce IOVA; `aux` carries the copy cycles spent.
  kBounceMap,
  kBounceUnmap,
  // Incident forensics (spv::forensics). `aux` carries the inferred attack
  // class on kIncidentReport; `site` the trigger / classification name.
  kIncidentOpen,    // a trigger event froze the flight-recorder evidence
  kIncidentReport,  // the incident report was sealed and classified
  // Sync-mode bounce rings (degraded service). Same field layout as
  // kBounceMap/kBounceUnmap: `addr` the original KVA, `addr2` the bounce
  // IOVA, `aux` the copy cycles spent by the sync.
  kBounceSyncCpu,     // bounce slot copied out so the CPU sees device writes
  kBounceSyncDevice,  // bounce slot scrubbed/copied in and re-armed for DMA
};

std::string_view EventKindName(EventKind kind);
std::optional<EventKind> EventKindFromName(std::string_view name);

// A set of EventKinds, one bit per kind: what a sink acts on.
class KindSet {
 public:
  constexpr KindSet() = default;
  constexpr KindSet(std::initializer_list<EventKind> kinds) {
    for (EventKind kind : kinds) {
      bits_ |= Bit(kind);
    }
  }
  static constexpr KindSet All() {
    KindSet all;
    all.bits_ = ~uint64_t{0};
    return all;
  }

  constexpr bool contains(EventKind kind) const { return (bits_ & Bit(kind)) != 0; }
  constexpr KindSet& operator|=(KindSet other) {
    bits_ |= other.bits_;
    return *this;
  }
  friend constexpr bool operator==(KindSet a, KindSet b) = default;

 private:
  static constexpr uint64_t Bit(EventKind kind) {
    return uint64_t{1} << static_cast<unsigned>(kind);
  }

  uint64_t bits_ = 0;
};

static_assert(static_cast<unsigned>(EventKind::kBounceSyncDevice) < 64,
              "KindSet keeps one bit per EventKind");

// One timestamped record. Field meaning is kind-specific but consistent:
// `addr` is the primary (kernel-virtual) address, `addr2` the secondary
// address (usually the IOVA), `aux` carries rights / kinds / counts and
// `flag` a kind-specific boolean (is_write, success, ...).
struct Event {
  uint64_t seq = 0;    // stamped by the trace ring; monotonic, never reset
  uint64_t cycle = 0;  // SimClock time, stamped by the Hub when bound
  EventKind kind = EventKind::kDmaMap;
  Severity severity = Severity::kInfo;
  uint32_t device = 0;
  uint64_t addr = 0;
  uint64_t addr2 = 0;
  uint64_t len = 0;
  uint64_t aux = 0;
  bool flag = false;
  // Causal span id (spv::trace). 0 = no enclosing span. Stamped by the Hub
  // from its current-span register when the emitter leaves it 0.
  uint64_t span = 0;
  // The emitting component (never exported). Lets a sink on a shared Hub
  // accept only the sources it attached to (D-KASAN's per-pool attachment).
  const void* origin = nullptr;
  std::string site;  // call site or free-form detail
};

// A consumer on the bus. A sink sees every published Event of the kinds it
// declares, regardless of the Hub's enabled flag — functional consumers
// (D-KASAN) must not go blind when recording is off — and no other kind.
//
// OnEvent runs inside Publish, in the middle of the publishing layer's
// operation. A sink may publish from OnEvent and may use its own state and
// the Hub's metrics, but it must never call into a layer (IOMMU, DMA API,
// allocators, drivers, fault engine): it only queues work. The layer that
// published is not done yet, so a sink that mapped, unmapped or detached
// could change state under it — the IOMMU, for one, holds a plain pointer
// to a translation domain across the events it publishes.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnEvent(const Event& event) = 0;
  // The kinds OnEvent acts on; Hub::AddSink reads it once. A sink that
  // keeps the default sees every kind.
  virtual KindSet kinds() const { return KindSet::All(); }
};

// ---- Metrics -------------------------------------------------------------------

namespace detail {
struct LinkedCount;  // one link's state, shared by its CounterLink and the Hub
}  // namespace detail

// The handle Hub::Link returns. Move-only; the owning layer keeps it next to
// (declared after) the StatCounter it links. Destroying it freezes the
// counter's linked increments into the Hub, so totals survive the layer — a
// detached device's IOVA domain, say.
class CounterLink {
 public:
  CounterLink() = default;
  CounterLink(CounterLink&& other) noexcept = default;
  CounterLink& operator=(CounterLink&& other) noexcept {
    Unlink();
    state_ = std::move(other.state_);
    return *this;
  }
  ~CounterLink() { Unlink(); }

 private:
  friend class Hub;
  explicit CounterLink(std::shared_ptr<detail::LinkedCount> state) : state_(std::move(state)) {}
  void Unlink();

  std::shared_ptr<detail::LinkedCount> state_;
};

// log2-bucketed histogram: bucket i counts samples whose bit width is i
// (bucket 0 holds v == 0). Upper bound of bucket i>0 is 2^i - 1.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void Record(uint64_t v);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  double Mean() const;
  // Upper bound of the bucket containing the p-th percentile (p in [0,100]).
  uint64_t PercentileUpperBound(double p) const;

  // The summary quantiles every consumer wants, derived once here instead of
  // re-derived by hand in each bench. Quantiles are bucket upper bounds
  // (nearest-rank over the log2 buckets), matching PercentileUpperBound.
  struct Summary {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    double mean = 0.0;
    uint64_t p50 = 0;
    uint64_t p90 = 0;
    uint64_t p99 = 0;
  };
  Summary Summarize() const;

  struct Bucket {
    uint64_t upper_bound;
    uint64_t count;
  };
  std::vector<Bucket> NonZeroBuckets() const;

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

// ---- Trace ring ----------------------------------------------------------------

// Fixed-capacity ring. No rebalancing on the push path (slot index is
// seq % capacity); the oldest record is overwritten when full and accounted
// as dropped. A severity floor filters before recording. The slots are
// built as events arrive: the first accepted event reserves all of them, so
// a ring nothing writes (a disabled Hub's) costs no storage.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity);

  void set_min_severity(Severity severity) { min_severity_ = severity; }
  Severity min_severity() const { return min_severity_; }

  // Copies `event` into the next slot and stamps its seq: a copy-constructed
  // slot until the ring is full, a member-wise overwrite after. An
  // overwritten slot's site keeps its buffer, so once the ring has wrapped a
  // push allocates only for a site longer than any the slot held. Returns the
  // slot written, or nullptr when the event was severity-filtered.
  Event* Push(const Event& event);

  // Live records, oldest first.
  std::vector<Event> Snapshot() const;

  size_t capacity() const { return capacity_; }
  size_t size() const;
  uint64_t recorded() const { return next_seq_; }
  // Overwritten (lost) records, total and per overwritten-record severity.
  // A full ring churning kTrace events must not mask the loss of a kCritical
  // security finding, so drops are accounted by what was overwritten.
  uint64_t dropped() const;
  uint64_t dropped(Severity severity) const {
    return dropped_by_severity_[static_cast<size_t>(severity)];
  }
  uint64_t filtered() const { return filtered_; }

  void Clear();

 private:
  size_t capacity_;
  std::vector<Event> slots_;  // grows to capacity_, in one reservation
  uint64_t next_seq_ = 0;  // count of accepted events; next slot = seq % capacity
  uint64_t filtered_ = 0;
  std::array<uint64_t, 4> dropped_by_severity_{};
  Severity min_severity_ = Severity::kTrace;
};

// ---- Hub -----------------------------------------------------------------------

class Hub {
 public:
  struct Config {
    bool enabled = false;  // recording off by default: zero-cost instrumentation
    size_t ring_capacity = 4096;
    Severity min_severity = Severity::kTrace;
  };

  Hub();  // all-default Config
  explicit Hub(Config config);

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  // Events are stamped with clock->now() once a clock is bound.
  void BindClock(const SimClock* clock) { clock_ = clock; }

  bool enabled() const { return enabled_; }

  // True if Publish may do any work — emit sites guard Event construction
  // with this so a disabled Hub with no sinks costs one branch.
  bool active() const { return enabled_ || !sinks_.empty(); }

  // Records `event` (when enabled) with the cycle and the current span
  // stamped into its ring slot, then hands one stamped copy to each sink
  // that declared the kind (always). The ring is written before any sink
  // runs, so an event a sink publishes lands after the one that triggered
  // it. Publish reads `event` only before the first sink runs: a caller may
  // reuse its Event once Publish returns.
  void Publish(const Event& event);

  // Current-span register (spv::trace::Tracer maintains it). Publish stamps
  // `event.span` from it when the emitter left the field 0, so every event
  // inside an open span is causally linked without per-site plumbing.
  void set_current_span(uint64_t span) { current_span_ = span; }
  uint64_t current_span() const { return current_span_; }

  // Subscribes `sink` to the kinds it declares (read once, here).
  void AddSink(EventSink* sink);
  void RemoveSink(EventSink* sink);
  size_t sink_count() const { return sinks_.size(); }
  // The union of the subscribed sinks' kinds.
  KindSet sink_kinds() const { return sink_kinds_; }

  // Named metrics. References are stable for the Hub's lifetime, so a layer
  // may keep one (CachedMetric). A hub-owned counter is for a fact no layer
  // tallies itself.
  StatCounter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Reports `counter`'s increments from now on under `name`, for as long as
  // the returned handle lives; links under one name sum, and a destroyed
  // handle's increments are kept. A layer links each tally once, where it is
  // wired to the Hub; with recording off the handle links nothing. The name
  // is exported (0 included) from the moment it is linked.
  [[nodiscard]] CounterLink Link(std::string_view name, const StatCounter& counter);

  // Hub-owned value plus every linked value, or 0 for an unknown name
  // (read-only lookup).
  uint64_t counter_value(std::string_view name) const;

  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }
  TraceRing& ring() { return ring_; }
  const TraceRing& ring() const { return ring_; }

  // ---- Deterministic exporters -------------------------------------------------
  // Sorted names, fixed field order, simulated time only: identical runs
  // produce byte-identical output.

  // Counters + histograms + trace (events included up to `max_trace_events`).
  std::string ExportJson(size_t max_trace_events = SIZE_MAX) const;
  // One CSV row per ring event; consumed by tools/trace_cli.
  std::string ExportTraceCsv() const;

 private:
  // One counter name: the hub-owned count plus the links reporting under it.
  struct CounterEntry {
    StatCounter owned;
    std::vector<std::shared_ptr<detail::LinkedCount>> links;
    uint64_t value() const;
  };
  CounterEntry& Entry(std::string_view name);

  struct Subscriber {
    EventSink* sink;
    KindSet kinds;
  };

  const bool enabled_;
  const SimClock* clock_ = nullptr;
  uint64_t current_span_ = 0;
  TraceRing ring_;
  std::vector<Subscriber> sinks_;
  KindSet sink_kinds_;
  std::map<std::string, CounterEntry, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// A hub-owned counter or histogram that a layer bumps per event, looked up
// by name on the first bump and through a pointer after. Looking up on the
// first bump, not when the layer is wired, keeps the name out of exports
// until then, exactly as a direct Hub::counter call would. One instance
// serves one Hub; the layer's Hub never changes after construction.
template <typename Metric>
class CachedMetric {
 public:
  explicit constexpr CachedMetric(std::string_view name) : name_(name) {}

  Metric& in(Hub& hub) {
    if (metric_ == nullptr) {
      if constexpr (std::is_same_v<Metric, StatCounter>) {
        metric_ = &hub.counter(name_);
      } else {
        metric_ = &hub.histogram(name_);
      }
    }
    return *metric_;
  }

 private:
  std::string_view name_;  // a literal
  Metric* metric_ = nullptr;
};

using CachedCounter = CachedMetric<StatCounter>;
using CachedHistogram = CachedMetric<Histogram>;

// CSV-escapes `field` (quotes it when it contains a comma, quote or newline).
std::string CsvEscape(std::string_view field);

// Parses `Hub::ExportTraceCsv` output back into Events (the inverse of the
// exporter; shared by tools/trace_cli and tests). A quoted field may span
// lines. Rows that are not 12 columns or do not parse are skipped, as are
// rows with a number above UINT64_MAX or a device above UINT32_MAX; a
// missing/foreign header line is tolerated.
std::vector<Event> ParseTraceCsv(std::string_view csv);

}  // namespace spv::telemetry

#endif  // SPV_TELEMETRY_TELEMETRY_H_
