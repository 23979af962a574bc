#include "telemetry/telemetry.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace spv::telemetry {

namespace {

struct KindName {
  EventKind kind;
  std::string_view name;
};

// Kept in declaration order; names are the stable export vocabulary.
constexpr KindName kKindNames[] = {
    {EventKind::kDmaMap, "dma_map"},
    {EventKind::kDmaUnmap, "dma_unmap"},
    {EventKind::kDmaSync, "dma_sync"},
    {EventKind::kCpuAccess, "cpu_access"},
    {EventKind::kIotlbInvalidate, "iotlb_invalidate"},
    {EventKind::kIommuFlush, "iommu_flush"},
    {EventKind::kIommuFault, "iommu_fault"},
    {EventKind::kStaleIotlbHit, "stale_iotlb_hit"},
    {EventKind::kSlabAlloc, "slab_alloc"},
    {EventKind::kSlabFree, "slab_free"},
    {EventKind::kFragAlloc, "frag_alloc"},
    {EventKind::kFragFree, "frag_free"},
    {EventKind::kNicRx, "nic_rx"},
    {EventKind::kNicTx, "nic_tx"},
    {EventKind::kNicTxReset, "nic_tx_reset"},
    {EventKind::kXdpDrop, "xdp_drop"},
    {EventKind::kXdpTx, "xdp_tx"},
    {EventKind::kStackDeliver, "stack_deliver"},
    {EventKind::kStackForward, "stack_forward"},
    {EventKind::kStackDrop, "stack_drop"},
    {EventKind::kStackSend, "stack_send"},
    {EventKind::kStackEcho, "stack_echo"},
    {EventKind::kAttackStage, "attack_stage"},
    {EventKind::kDkasanReport, "dkasan_report"},
    {EventKind::kSpadeFinding, "spade_finding"},
    {EventKind::kFaultInjected, "fault_injected"},
    {EventKind::kFaultRecovered, "fault_recovered"},
    {EventKind::kNicRxError, "nic_rx_error"},
    {EventKind::kSpanOpen, "span_open"},
    {EventKind::kSpanClose, "span_close"},
    {EventKind::kWindowOpen, "window_open"},
    {EventKind::kWindowClose, "window_close"},
    {EventKind::kHealthBreach, "health_breach"},
    {EventKind::kDeviceQuarantined, "device_quarantined"},
    {EventKind::kDeviceReattached, "device_reattached"},
    {EventKind::kDeviceDetached, "device_detached"},
    {EventKind::kDeviceFencedAccess, "device_fenced_access"},
    {EventKind::kNicPollDeadline, "nic_poll_deadline"},
    {EventKind::kNvmeSubmit, "nvme_submit"},
    {EventKind::kNvmeComplete, "nvme_complete"},
    {EventKind::kNvmeCompletionError, "nvme_completion_error"},
    {EventKind::kNvmeQueueReset, "nvme_queue_reset"},
    {EventKind::kNvmePollDeadline, "nvme_poll_deadline"},
    {EventKind::kTrustPromoted, "trust_promoted"},
    {EventKind::kTrustDemoted, "trust_demoted"},
    {EventKind::kBounceMap, "bounce_map"},
    {EventKind::kBounceUnmap, "bounce_unmap"},
    {EventKind::kIncidentOpen, "incident_open"},
    {EventKind::kIncidentReport, "incident_report"},
    {EventKind::kBounceSyncCpu, "bounce_sync_cpu"},
    {EventKind::kBounceSyncDevice, "bounce_sync_device"},
};

constexpr std::string_view kSeverityNames[] = {"trace", "info", "warn", "critical"};

}  // namespace

std::string_view SeverityName(Severity severity) {
  const auto index = static_cast<size_t>(severity);
  return index < std::size(kSeverityNames) ? kSeverityNames[index] : "?";
}

std::optional<Severity> SeverityFromName(std::string_view name) {
  for (size_t i = 0; i < std::size(kSeverityNames); ++i) {
    if (kSeverityNames[i] == name) {
      return static_cast<Severity>(i);
    }
  }
  return std::nullopt;
}

std::string_view EventKindName(EventKind kind) {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) {
      return entry.name;
    }
  }
  return "?";
}

std::optional<EventKind> EventKindFromName(std::string_view name) {
  for (const KindName& entry : kKindNames) {
    if (entry.name == name) {
      return entry.kind;
    }
  }
  return std::nullopt;
}

// ---- Histogram -----------------------------------------------------------------

void Histogram::Record(uint64_t v) {
  ++buckets_[static_cast<size_t>(std::bit_width(v))];
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

uint64_t Histogram::PercentileUpperBound(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the percentile sample (1-based, ceiling — the "nearest rank"
  // definition, deterministic for integer counts).
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>((p / 100.0) * static_cast<double>(count_) + 0.9999999));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return i == 0 ? 0 : (i >= 64 ? UINT64_MAX : (uint64_t{1} << i) - 1);
    }
  }
  return max_;
}

Histogram::Summary Histogram::Summarize() const {
  Summary s;
  s.count = count_;
  s.sum = sum_;
  s.min = min();
  s.max = max_;
  s.mean = Mean();
  s.p50 = PercentileUpperBound(50.0);
  s.p90 = PercentileUpperBound(90.0);
  s.p99 = PercentileUpperBound(99.0);
  return s;
}

std::vector<Histogram::Bucket> Histogram::NonZeroBuckets() const {
  std::vector<Bucket> out;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] != 0) {
      const uint64_t upper = i == 0 ? 0 : (i >= 64 ? UINT64_MAX : (uint64_t{1} << i) - 1);
      out.push_back(Bucket{upper, buckets_[i]});
    }
  }
  return out;
}

// ---- TraceRing -----------------------------------------------------------------

TraceRing::TraceRing(size_t capacity) : capacity_(std::max<size_t>(capacity, 1)) {}

Event* TraceRing::Push(const Event& event) {
  if (event.severity < min_severity_) {
    ++filtered_;
    return nullptr;
  }
  Event* slot;
  if (slots_.size() < capacity_) {
    // Not yet full: build the next slot. The first one reserves every slot,
    // so no later push moves the slots.
    if (slots_.capacity() < capacity_) {
      slots_.reserve(capacity_);
    }
    slot = &slots_.emplace_back(event);
  } else {
    slot = &slots_[next_seq_ % capacity_];
    // Overwriting a live record: account the loss under the severity of what
    // is being lost, not of what is being written.
    ++dropped_by_severity_[static_cast<size_t>(slot->severity)];
    *slot = event;  // member-wise: the site string is assigned into its buffer
  }
  slot->seq = next_seq_++;
  return slot;
}

uint64_t TraceRing::dropped() const {
  uint64_t total = 0;
  for (uint64_t d : dropped_by_severity_) {
    total += d;
  }
  return total;
}

size_t TraceRing::size() const {
  return next_seq_ < capacity_ ? static_cast<size_t>(next_seq_) : capacity_;
}

std::vector<Event> TraceRing::Snapshot() const {
  std::vector<Event> out;
  out.reserve(size());
  const uint64_t first = next_seq_ > capacity_ ? next_seq_ - capacity_ : 0;
  for (uint64_t seq = first; seq < next_seq_; ++seq) {
    out.push_back(slots_[seq % capacity_]);
  }
  return out;
}

void TraceRing::Clear() {
  slots_.clear();  // keeps the reservation
  next_seq_ = 0;
  filtered_ = 0;
  dropped_by_severity_.fill(0);
}

// ---- Hub -----------------------------------------------------------------------

Hub::Hub() : Hub(Config{}) {}

Hub::Hub(Config config) : enabled_(config.enabled), ring_(config.ring_capacity) {
  ring_.set_min_severity(config.min_severity);
}

void Hub::Publish(const Event& event) {
  const bool to_sinks = sink_kinds_.contains(event.kind);
  if (!enabled_ && !to_sinks) {
    return;
  }
  const uint64_t cycle =
      clock_ != nullptr && event.cycle == 0 ? clock_->now() : event.cycle;
  const uint64_t span = event.span == 0 ? current_span_ : event.span;
  if (enabled_) {
    if (Event* slot = ring_.Push(event); slot != nullptr) {
      slot->cycle = cycle;
      slot->span = span;
    }
  }
  if (!to_sinks) {
    return;
  }
  Event stamped = event;  // keeps the caller's seq: sinks see seq 0
  stamped.cycle = cycle;
  stamped.span = span;
  for (const Subscriber& subscriber : sinks_) {
    if (subscriber.kinds.contains(stamped.kind)) {
      subscriber.sink->OnEvent(stamped);
    }
  }
}

void Hub::AddSink(EventSink* sink) {
  assert(sink != nullptr);
  sinks_.push_back(Subscriber{sink, sink->kinds()});
  sink_kinds_ |= sinks_.back().kinds;
}

void Hub::RemoveSink(EventSink* sink) {
  std::erase_if(sinks_, [sink](const Subscriber& subscriber) { return subscriber.sink == sink; });
  sink_kinds_ = KindSet{};
  for (const Subscriber& subscriber : sinks_) {
    sink_kinds_ |= subscriber.kinds;
  }
}

namespace detail {

// Shared by the CounterLink handle and the Hub so that either may outlive the
// other.
struct LinkedCount {
  LinkedCount(const StatCounter* counter, uint64_t start) : source(counter), base(start) {}
  // Increments since linking; once unlinked, the increments the link kept.
  uint64_t value() const { return source != nullptr ? source->load() - base : kept; }

  const StatCounter* source;  // null once unlinked
  uint64_t base;              // the source's value when linked
  uint64_t kept = 0;          // set when `source` is cleared
};

}  // namespace detail

void CounterLink::Unlink() {
  if (state_ == nullptr) {
    return;
  }
  state_->kept = state_->source->load() - state_->base;
  state_->source = nullptr;
  state_.reset();
}

uint64_t Hub::CounterEntry::value() const {
  uint64_t total = owned.load();
  for (const auto& link : links) {
    total += link->value();
  }
  return total;
}

Hub::CounterEntry& Hub::Entry(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

StatCounter& Hub::counter(std::string_view name) {
  return Entry(name).owned;
}

CounterLink Hub::Link(std::string_view name, const StatCounter& counter) {
  if (!enabled_) {
    return CounterLink{};
  }
  auto state = std::make_shared<detail::LinkedCount>(&counter, counter.load());
  CounterEntry& entry = Entry(name);
  // Fold the links whose handles are gone into the hub-owned count, so
  // re-wiring and device hot-plug churn do not grow the list.
  std::erase_if(entry.links, [&entry](const std::shared_ptr<detail::LinkedCount>& link) {
    if (link->source != nullptr) {
      return false;
    }
    entry.owned += link->kept;
    return true;
  });
  entry.links.push_back(state);
  return CounterLink{std::move(state)};
}

Histogram& Hub::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  return it->second;
}

uint64_t Hub::counter_value(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

}  // namespace spv::telemetry
