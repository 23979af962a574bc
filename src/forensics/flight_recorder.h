// spv::forensics — the mapping-life ledger and DMA flight recorder.
//
// One record per mapping life (direct or bounced): its map, every device
// access through it, its unmap, the IOTLB invalidation that finally revokes
// its translation, stale hits and detector hits. The paper's temporal
// measurements are *views* of these lives, not a second tracker:
//
//   * stale-IOTLB window (§5.2.1, Figs. 6–7): a direct life's unmap until
//     the invalidation of its range. A deferred unmap opens it and a queue
//     drain (flush:<reason>) or a quarantine's per-device drain
//     (flush:device) closes it; an invalidation that precedes the unmap edge
//     (a strict unmap, "strict", or a capacity drain inside the unmap call)
//     makes it closed on arrival, spanning the synchronous invalidation. A
//     D-KASAN report closes it early (detected:dkasan — the kernel now
//     knows); a SPADE finding only marks it detected. No IOMMU, no window.
//   * sub-page window (§3.3): a device-writable direct life whose buffer
//     does not fill its pages, from map to unmap.
//
// Bounced lives open no window: their IOVA is the pool's static page.
//
// Edges arrive once, from the call site that holds all their fields: the
// DMA API's map, unmap and sync sites, and the IOMMU's device accesses,
// stale hits, faults and three invalidation sites (strict unmap, per-device
// drain, flush-queue drain). Device-side edges find their life by a binary
// search of the device's IOVA index, a sorted flat vector, never by a scan.
// No live life is evicted; retired lives per device stay bounded by
// `ledger_capacity`, and a life whose translation still awaits invalidation
// is never evicted. Lives sit in a per-device pool: an evicted life's slot,
// string buffers included, serves the device's next map, so a steady
// map/unmap/flush churn allocates nothing.
//
// With forensics on, every edge is also appended to a bounded per-device,
// per-CPU ring of FlightRecords — the timeline the incident engine freezes.
// A ring reserves its full capacity at its first record, so a CPU that never
// records on a device costs no storage. Rings overwrite the *oldest* record
// when full and account each loss by the class of the record lost
// (`dropped_critical` for faults and stale hits, the telemetry trace ring's
// fail-loud parity).
//
// With a Tracer attached, each window is also a detached span, announced as
// kWindowOpen/kWindowClose events, and counted in `window.*` hub metrics.
// The recorder applies each edge first and announces its windows after. It
// joins the Hub as a sink for kDkasanReport and kSpadeFinding only:
// detection latency is measured from the most recently opened stale window
// still open (else the most recent stale window of any state).
//
// Pure observer: recording never advances SimClock. Layering: spv_forensics
// depends only on spv_base + spv_telemetry + spv_trace, so spv_iommu and
// spv_dma link it without cycles; directions arrive as raw uint8_t.

#ifndef SPV_FORENSICS_FLIGHT_RECORDER_H_
#define SPV_FORENSICS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/clock.h"
#include "base/exec.h"
#include "base/types.h"
#include "telemetry/telemetry.h"
#include "trace/tracer.h"

namespace spv::forensics {

// What a FlightRecord witnessed. kStaleHit and kFault are the critical
// class for drop accounting; everything else is the info class.
enum class RecordOp : uint8_t {
  kMap = 0,      // DmaApi installed a translation (gpa carries the KVA)
  kUnmap,        // DmaApi removed it (translation may linger in the IOTLB)
  kDeviceRead,   // device-side read translated and served
  kDeviceWrite,  // device-side write translated and served
  kStaleHit,     // a translation was served from the IOTLB after its unmap
  kFault,        // translation failed: no live mapping, no cached entry
  kFlush,        // an IOTLB invalidation covered this range (strict/deferred)
  kSyncCpu,      // bounce slot handed to the CPU (sync_for_cpu copy-out)
  kSyncDevice,   // bounce slot re-armed for the device (scrub + copy-in)
};

std::string_view RecordOpName(RecordOp op);
bool RecordOpCritical(RecordOp op);

// One device-side transaction or mapping edge, 64 bytes, trivially
// copyable. `gpa` is the translated physical address for device ops and the
// kernel-virtual address for map/unmap edges; `generation` links the record
// to the MappingLife it went through (0 = no life matched).
struct FlightRecord {
  uint64_t cycle = 0;
  uint64_t seq = 0;  // per-ring monotonic; merge tie-breaker
  uint32_t cpu = 0;
  uint32_t device = 0;
  RecordOp op = RecordOp::kMap;
  uint8_t dir = 0;  // dma::DmaDirection as raw u8 (0 on device ops)
  bool bounced = false;
  uint64_t iova = 0;
  uint64_t gpa = 0;
  uint64_t len = 0;
  uint64_t generation = 0;
};

static_assert(sizeof(FlightRecord) == 64, "a FlightRecord is one cache line");

// The map→access→unmap→flush lifecycle of one mapping. Generations are
// per-device monotonic, bumped on every map edge, so a record names exactly
// one life.
struct MappingLife {
  uint64_t generation = 0;
  uint32_t device = 0;
  uint64_t iova = 0;
  uint64_t kva = 0;
  uint64_t len = 0;
  uint8_t dir = 0;
  bool bounced = false;
  std::string site;
  uint64_t map_cycle = 0;
  uint64_t unmap_cycle = 0;  // 0 = still live
  uint64_t flush_cycle = 0;  // 0 = its translation not (yet) invalidated
  uint64_t accesses = 0;     // device reads+writes served through it
  uint64_t stale_hits = 0;   // translations served after unmap_cycle
};

enum class WindowKind : uint8_t {
  kStaleIotlb,  // unmapped but still translated (Fig. 6 window)
  kSubPage,     // mapped, writable, larger than the buffer
};

std::string_view WindowKindName(WindowKind kind);

// A window as seen from its life at one instant.
struct Window {
  WindowKind kind = WindowKind::kStaleIotlb;
  uint64_t generation = 0;     // the life it is a view of
  trace::SpanId span;          // kNoSpan without a Tracer
  uint32_t device = 0;
  uint64_t iova_page = 0;      // page-aligned base IOVA
  uint64_t pages = 0;
  uint64_t exposed_bytes = 0;  // sub-page: bytes reachable beyond the buffer
  uint64_t open_cycle = 0;
  uint64_t close_cycle = 0;
  bool open = true;
  uint64_t device_hits = 0;    // stale translations served inside
  uint64_t first_hit_cycle = 0;
  bool detected = false;       // a detector fired while it was the target
  std::string close_reason;    // "flush:<reason>" / "strict" / "unmap" / "detected:dkasan"

  uint64_t duration() const { return open ? 0 : close_cycle - open_cycle; }
};

struct ForensicsConfig {
  bool enabled = false;             // flight rings and the incident engine
  uint32_t ring_capacity = 1024;    // FlightRecords per (device, CPU) ring
  uint32_t ledger_capacity = 128;   // retired lives kept per device
};

class FlightRecorder : public telemetry::EventSink {
 public:
  // Rings are kept iff `config.enabled`; one per sim CPU per device, so
  // Machine passes its CPU count (>= 1). Without an IOMMU no stale window
  // opens (nothing translates, so nothing lingers).
  FlightRecorder(const SimClock* clock, ForensicsConfig config, uint32_t num_cpus = 1,
                 bool iommu_enabled = true);

  // Attaching a Tracer turns on window spans, events and hub metrics.
  void set_tracer(trace::Tracer* tracer) {
    tracer_ = tracer;
    metrics_ = {};  // resolved again in the new tracer's Hub
  }

  // kDkasanReport / kSpadeFinding: detection latency against the windows.
  void OnEvent(const telemetry::Event& event) override;
  telemetry::KindSet kinds() const override {
    return {telemetry::EventKind::kDkasanReport, telemetry::EventKind::kSpadeFinding};
  }

  // ---- Edges (hot path; callers hold a non-null recorder) -----------------------

  void RecordMap(DeviceId device, Iova iova, Kva kva, uint64_t len, uint8_t dir,
                 bool bounced, std::string_view site);
  void RecordUnmap(DeviceId device, Iova iova, uint64_t len, uint8_t dir, bool bounced);
  // Device-side access served for one in-page chunk (gpa = translated phys).
  void RecordAccess(DeviceId device, Iova iova, uint64_t gpa, uint64_t len, bool is_write);
  // Translation served from the IOTLB after the mapping was torn down.
  void RecordStaleHit(DeviceId device, Iova page_iova, uint64_t gpa);
  void RecordFault(DeviceId device, Iova iova, uint64_t len, bool is_write);
  // The IOTLB invalidation of [page_iova, page_iova + pages) completed now,
  // `cost` cycles after it started; `reason` names the closing edge
  // ("strict", "flush:<drain reason>", "flush:device").
  void RecordFlush(DeviceId device, Iova page_iova, uint64_t pages, uint64_t cost,
                   std::string_view reason);
  // Sync-mode ownership handoff on a persistent bounce (sync_for_cpu when
  // `for_cpu`, else sync_for_device), stamped with the covering life.
  void RecordSync(DeviceId device, Iova iova, uint64_t len, uint8_t dir, bool for_cpu,
                  bool bounced);

  // ---- Snapshots ------------------------------------------------------------------

  // Merged per-device timeline across all CPU rings, oldest first, ordered
  // by (cycle, cpu, seq) — deterministic for deterministic runs.
  std::vector<FlightRecord> SnapshotTimeline(DeviceId device) const;
  // The device's retained lives, oldest generation first.
  std::vector<MappingLife> SnapshotLedger(DeviceId device) const;
  // The windows of the device's retained lives, in the order they opened.
  std::vector<Window> SnapshotWindows(DeviceId device) const;

  size_t open_windows(WindowKind kind) const;
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

  // Totals across every ring, by drop class, and lives evicted.
  uint64_t total_recorded() const;
  uint64_t total_dropped() const;
  uint64_t total_dropped_critical() const;
  uint64_t ledger_dropped() const;

  // Deterministic per-ring drop accounting, `dropped_critical` parity with
  // the telemetry trace ring: {"rings":[{"device","cpu","recorded",
  // "dropped","dropped_critical"}...],"ledgers":[...]}. Sorted by (device,
  // cpu); embedded in incident reports.
  std::string AccountingJson() const;

 private:
  // One (device, CPU) ring. Its slots are reserved at its first record and
  // copy-constructed until it is full; after that a record overwrites the
  // oldest.
  struct Ring {
    std::vector<FlightRecord> slots;
    uint64_t next_seq = 0;  // accepted records; next slot = seq % capacity
    uint64_t dropped_info = 0;
    uint64_t dropped_critical = 0;

    void Push(const FlightRecord& record, size_t capacity);
    void AppendTo(std::vector<FlightRecord>& out, size_t capacity) const;
  };

  // A life plus the bookkeeping its windows are computed from. A pool slot
  // is free while `facts.generation` is 0.
  struct Life {
    MappingLife facts;
    uint64_t subpage_seq = 0;  // window open order; 0 = no such window
    uint64_t stale_seq = 0;
    uint64_t stale_open = 0;
    uint64_t stale_close = 0;  // 0 while open
    std::string stale_reason;  // why the stale window closed
    uint64_t first_hit_cycle = 0;
    bool detected = false;
    trace::SpanId subpage_span;
    trace::SpanId stale_span;
    // Links in the list of open stale windows, oldest first.
    Life* older_open = nullptr;
    Life* newer_open = nullptr;
    Life* next_free = nullptr;  // the lane's free list, while free
  };

  struct IndexEntry {
    uint64_t iova;  // the life's first byte; the sort key
    Life* life;
  };

  struct RetiredEntry {
    uint64_t generation;
    Life* life;
  };

  struct Lane {
    std::vector<Ring> rings;  // one per sim CPU; empty with forensics off
    // Every retained life, and the slots evicted ones left. A deque keeps
    // each at one address: the open-window list, the detection fallback and
    // announcements hold Life*.
    std::deque<Life> pool;
    Life* free = nullptr;  // evicted slots, reused by the next map
    uint64_t retained = 0;  // pool slots in use
    // By IOVA, ascending: mapped lives, and unmapped ones whose translation
    // awaits invalidation (their IOVA stays parked until then, so none
    // overlap).
    std::vector<IndexEntry> by_iova;
    std::vector<RetiredEntry> retired;  // evictable lives, a min-heap on generation
    uint64_t next_generation = 1;
    uint64_t dropped = 0;
  };

  // The window.* hub metrics (Tracer attached), resolved on their first bump.
  struct WindowMetrics {
    telemetry::CachedCounter stale_hits{"window.stale.hits"};
    telemetry::CachedCounter stale_opened{"window.stale.opened"};
    telemetry::CachedCounter stale_closed{"window.stale.closed"};
    telemetry::CachedHistogram stale_open_cycles{"window.stale.open_cycles"};
    telemetry::CachedCounter subpage_opened{"window.subpage.opened"};
    telemetry::CachedCounter subpage_closed{"window.subpage.closed"};
    telemetry::CachedHistogram subpage_open_cycles{"window.subpage.open_cycles"};
    telemetry::CachedCounter detected_dkasan{"window.detected.dkasan"};
    telemetry::CachedCounter detected_spade{"window.detected.spade"};
    telemetry::CachedHistogram detect_latency_dkasan{"window.detect_latency.dkasan"};
    telemetry::CachedHistogram detect_latency_spade{"window.detect_latency.spade"};
  };

  // A window event to announce once the edge is applied (Tracer attached).
  struct Announcement {
    Window window;
    Life* life = nullptr;  // opens only: where the span id goes
    bool open = false;
    bool opened_closed = false;  // closed on arrival: count the open too
  };

  template <typename Fn>
  uint64_t SumRings(Fn per_ring) const;
  std::vector<std::pair<uint32_t, const Lane*>> LanesByDevice() const;
  Lane& LaneFor(DeviceId device);
  const Lane* FindLane(DeviceId device) const;
  static Life* FindLive(Lane& lane, uint64_t iova);
  static Life* FindPending(Lane& lane, uint64_t page);
  static Life& NewLife(Lane& lane);
  static void FreeLife(Lane& lane, Life& life);
  void Retire(Lane& lane, Life& life);
  void LinkOpen(Life& life);
  void UnlinkOpen(Life& life);
  void CloseStale(Life& life, uint64_t cycle, std::string_view reason,
                  std::vector<Announcement>& out);
  static Window SubPageView(const Life& life);
  static Window StaleView(const Life& life);
  void Push(Lane& lane, FlightRecord record);
  // The edge's announcement list: the reused one, or a fresh one for an edge
  // nested inside another's Announce (a sink publishing), so neither
  // clobbers the other. Announce hands it back for reuse.
  std::vector<Announcement> TakeAnnouncements() { return std::move(announcements_); }
  void Announce(std::vector<Announcement>& announcements);
  void PublishWindowEvent(const Window& window, bool open);

  const SimClock* clock_;
  ForensicsConfig config_;
  uint32_t num_cpus_;
  bool iommu_enabled_;
  trace::Tracer* tracer_ = nullptr;
  WindowMetrics metrics_;

  std::unordered_map<uint32_t, Lane> lanes_;  // nodes never move
  uint32_t last_device_ = 0;  // the device of the last edge, and its lane
  Lane* last_lane_ = nullptr;
  Life* newest_open_ = nullptr;  // open stale windows: detection targets
  size_t stale_windows_open_ = 0;
  size_t subpage_windows_open_ = 0;
  uint64_t next_window_seq_ = 1;
  // The most recent stale window of any state: the detection fallback. The
  // life is gone once its slot no longer holds that generation.
  Life* last_stale_ = nullptr;
  uint64_t last_stale_generation_ = 0;
  uint64_t last_stale_open_ = 0;
  std::vector<Announcement> announcements_;
  telemetry::Event window_event_;  // every window event is published through this one

  telemetry::Histogram stale_open_cycles_;
  telemetry::Histogram subpage_open_cycles_;
  telemetry::Histogram detect_latency_spade_;
  telemetry::Histogram detect_latency_dkasan_;
};

}  // namespace spv::forensics

#endif  // SPV_FORENSICS_FLIGHT_RECORDER_H_
