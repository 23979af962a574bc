// Vulnerability-window accounting (ISSUE 4 tentpole, part 3; paper §5.2.1,
// Fig. 7).
//
// A WindowTracker is an EventSink that watches the normal event stream and
// maintains the set of *windows* — intervals during which a device can reach
// memory the kernel believes it cannot:
//
//   * stale-IOTLB windows: a dma_unmap under deferred invalidation leaves
//     the old translation cached until the next flush. Opens at kDmaUnmap
//     (when no strict invalidation of its range preceded it), closes at
//     kIommuFlush, at a quarantine's per-device drain of its range (the
//     kIotlbInvalidate with site "drain_device") or at a D-KASAN
//     detection. Under strict invalidation the window is the synchronous
//     invalidation latency itself (~2000 cycles per unmap, whatever its
//     page count), recorded closed on the spot — the deferred-vs-strict gap
//     in the resulting open-cycles histogram *is* Fig. 7.
//
//   * sub-page windows: a writable map whose buffer does not fill its pages
//     exposes the co-resident bytes (type-b/c/d co-residency). Opens at
//     kDmaMap when exposed_bytes > len and the mapping is device-writable,
//     closes at the matching kDmaUnmap.
//
// Each window is materialized as a *detached span* (when a Tracer is
// attached), published as kWindowOpen/kWindowClose events, and aggregated
// into open-cycles histograms plus per-detector (SPADE, D-KASAN) detection
// latency. Histograms are kept internally so benches can read them with hub
// recording off, and mirrored into hub histograms when recording is on.
//
// Mode inference is evidence-based: the tracker never asks the Iommu for its
// config (that would invert the spv_trace <- spv_iommu layering). Strict
// unmaps announce themselves through the ranged kIotlbInvalidate event (site
// "unmap_strict", len = the range's bytes) that immediately precedes their
// kDmaUnmap.

#ifndef SPV_TRACE_WINDOW_TRACKER_H_
#define SPV_TRACE_WINDOW_TRACKER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"
#include "trace/tracer.h"

namespace spv::trace {

enum class WindowKind : uint8_t {
  kStaleIotlb,  // unmapped but still translated (Fig. 6 window)
  kSubPage,     // mapped, writable, larger than the buffer
};

std::string_view WindowKindName(WindowKind kind);

struct Window {
  WindowKind kind = WindowKind::kStaleIotlb;
  SpanId span;              // kNoSpan when no Tracer is attached
  uint32_t device = 0;
  uint64_t iova_page = 0;   // page-aligned base IOVA
  uint64_t pages = 0;
  uint64_t exposed_bytes = 0;  // sub-page: bytes reachable beyond the buffer
  uint64_t open_cycle = 0;
  uint64_t close_cycle = 0;
  bool open = true;
  uint64_t device_hits = 0;       // stale translations actually served inside
  uint64_t first_hit_cycle = 0;
  bool detected = false;          // a detector fired while it was open
  uint64_t detect_cycle = 0;
  std::string close_reason;       // "flush:<reason>" / "unmap" / "detected:<d>"

  uint64_t duration() const { return open ? 0 : close_cycle - open_cycle; }
};

class WindowTracker : public telemetry::EventSink {
 public:
  struct Config {
    // When the machine runs without an IOMMU there is no flush to ever close
    // a stale window; the tracker then skips stale tracking entirely.
    bool iommu_enabled = true;
  };

  // `tracer` may be null (windows then carry kNoSpan ids). The tracker does
  // not add itself to the hub; the owner wires AddSink/RemoveSink.
  WindowTracker(telemetry::Hub& hub, Tracer* tracer, Config config);

  void OnEvent(const telemetry::Event& event) override;

  const std::vector<Window>& windows() const { return windows_; }
  size_t open_stale_count() const { return open_stale_.size(); }
  size_t open_subpage_count() const { return open_subpage_.size(); }
  uint64_t dropped_windows() const { return dropped_windows_; }

  // Aggregates, readable regardless of hub recording state.
  telemetry::Histogram::Summary stale_open_summary() const {
    return stale_open_cycles_.Summarize();
  }
  telemetry::Histogram::Summary subpage_open_summary() const {
    return subpage_open_cycles_.Summarize();
  }
  telemetry::Histogram::Summary spade_latency_summary() const {
    return detect_latency_spade_.Summarize();
  }
  telemetry::Histogram::Summary dkasan_latency_summary() const {
    return detect_latency_dkasan_.Summarize();
  }

 private:
  struct PendingStrictInvalidation {
    uint32_t device = 0;
    uint64_t iova_page = 0;
    uint64_t pages = 0;
    uint64_t cycle = 0;
  };

  void OnDmaMap(const telemetry::Event& event);
  void OnDmaUnmap(const telemetry::Event& event);
  void OnFlush(const telemetry::Event& event);
  void OnDeviceDrain(const telemetry::Event& event);
  void OnStaleHit(const telemetry::Event& event);
  void OnDetection(const telemetry::Event& event, bool dkasan);

  // Returns SIZE_MAX when the record budget (kMaxWindows) is exhausted.
  size_t NewWindow(WindowKind kind, const telemetry::Event& event, uint64_t iova_page,
                   uint64_t pages, uint64_t exposed);
  void CloseWindow(size_t index, uint64_t cycle, std::string reason);
  void PublishWindowEvent(const Window& window, bool open,
                          telemetry::Severity severity);

  telemetry::Hub& hub_;
  Tracer* tracer_;
  Config config_;

  std::vector<Window> windows_;
  std::vector<size_t> open_stale_;                    // indices into windows_
  std::map<std::pair<uint32_t, uint64_t>, size_t> open_subpage_;  // (dev, page)
  std::vector<PendingStrictInvalidation> pending_strict_;
  uint64_t dropped_windows_ = 0;

  telemetry::Histogram stale_open_cycles_;
  telemetry::Histogram subpage_open_cycles_;
  telemetry::Histogram detect_latency_spade_;
  telemetry::Histogram detect_latency_dkasan_;
};

}  // namespace spv::trace

#endif  // SPV_TRACE_WINDOW_TRACKER_H_
