// spv::forensics — the DMA flight recorder (ISSUE 9 tentpole, part 1).
//
// Every device-side transaction at the IOMMU boundary (reads, writes,
// translation faults, stale-IOTLB hits, flush edges) and every mapping
// lifecycle edge from the DMA API (map/unmap, direct or bounced) lands in a
// bounded per-device, per-CPU ring of FlightRecords. The recorder is the
// evidence substrate the incident engine freezes when a detector fires: it
// answers "what exactly did the device do, to which mappings, in what
// order, and on which CPU" after the fact, from recorded state alone.
//
// Design rules, in the PR-7 telemetry-ring tradition:
//   * bounded memory — fixed-capacity rings that overwrite the *oldest*
//     record when full (forensics wants the most recent history), with drops
//     accounted by the severity class of the record that was lost: losing a
//     fault or stale hit bumps `dropped_critical`, the same fail-loud parity
//     the telemetry trace ring keeps (`TraceRing::dropped(Severity::kCritical)`);
//   * near-zero cost when disabled — every hook in Iommu/DmaApi guards on a
//     null recorder pointer, so a machine without forensics pays one branch;
//   * pure observer — recording never advances SimClock, so enabling the
//     recorder cannot move a single sim-cycle quantile (the bench gate);
//   * thread-safe snapshots — each ring and each ledger is guarded by an
//     atomic_flag spinlock (the Histogram::Record idiom), so kThreads
//     workers record concurrently while the incident engine snapshots from
//     another worker, TSan-clean.
//
// Layering: spv_forensics depends only on spv_base + spv_telemetry +
// spv_trace, so spv_iommu and spv_dma can link it without cycles. The
// recorder never sees dma:: or iommu:: types — directions arrive as raw
// uint8_t and addresses as the base vocabulary types.

#ifndef SPV_FORENSICS_FLIGHT_RECORDER_H_
#define SPV_FORENSICS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/clock.h"
#include "base/exec.h"
#include "base/types.h"

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

// One device-side transaction or mapping edge, ~56 bytes, trivially
// copyable. `gpa` is the translated physical address for device ops and the
// kernel-virtual address for map/unmap edges; `generation` links the record
// to the MappingLife entry it went through (0 = no live mapping matched).
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

// The full map→access→unmap→flush lifecycle of one mapping, kept in a
// bounded per-device ledger. Generations are per-device monotonic, bumped
// on every map edge, so an access record names exactly one life.
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
  uint64_t flush_cycle = 0;  // 0 = translation never (yet) invalidated
  uint64_t accesses = 0;     // device reads+writes served through it
  uint64_t stale_hits = 0;   // translations served after unmap_cycle
  uint64_t faults = 0;       // faults attributed to its IOVA range
};

struct ForensicsConfig {
  bool enabled = false;          // null recorder when false: one-branch cost
  uint32_t ring_capacity = 1024;    // FlightRecords per (device, CPU) ring
  uint32_t ledger_capacity = 128;   // MappingLife entries per device
};

class FlightRecorder {
 public:
  // One ring per sim CPU per device; Machine passes its CPU count (>= 1).
  FlightRecorder(const SimClock* clock, ForensicsConfig config, uint32_t num_cpus = 1);

  // ---- Hook entry points (hot path; called with recorder != nullptr) -----------

  // Mapping installed. Returns the generation assigned to this life.
  void RecordMap(DeviceId device, Iova iova, Kva kva, uint64_t len, uint8_t dir,
                 bool bounced, std::string_view site);
  void RecordUnmap(DeviceId device, Iova iova, uint64_t len, uint8_t dir,
                   bool bounced);
  // Device-side access served for one in-page chunk (gpa = translated phys).
  void RecordAccess(DeviceId device, Iova iova, uint64_t gpa, uint64_t len,
                    bool is_write);
  // Translation served from the IOTLB after the mapping was torn down.
  void RecordStaleHit(DeviceId device, Iova page_iova, uint64_t gpa);
  void RecordFault(DeviceId device, Iova iova, uint64_t len, bool is_write);
  // IOTLB invalidation covering [page_iova, page_iova + pages) landed.
  void RecordFlush(DeviceId device, Iova page_iova, uint64_t pages);
  // Sync-mode ownership handoff on a persistent bounce (sync_for_cpu when
  // `for_cpu`, else sync_for_device). Linked to the covering mapping life
  // like unmap edges, so ledger cross-checks see the full sync history.
  void RecordSync(DeviceId device, Iova iova, uint64_t len, uint8_t dir,
                  bool for_cpu, bool bounced);

  // ---- Evidence snapshots (incident engine / exports) --------------------------

  // Merged per-device timeline across all CPU rings, oldest first, ordered
  // by (cycle, cpu, seq) — deterministic for deterministic runs.
  std::vector<FlightRecord> SnapshotTimeline(DeviceId device) const;
  // The device's mapping ledger, oldest life first.
  std::vector<MappingLife> SnapshotLedger(DeviceId device) const;

  // Totals across every ring, by drop class.
  uint64_t total_recorded() const;
  uint64_t total_dropped() const;
  uint64_t total_dropped_critical() const;
  uint64_t ledger_dropped() const;

  // Deterministic per-ring drop accounting, `dropped_critical` parity with
  // the telemetry trace ring: {"rings":[{"device","cpu","recorded",
  // "dropped","dropped_critical"}...],"ledgers":[...]}. Sorted by (device,
  // cpu); embedded in incident reports and the soak JSON.
  std::string AccountingJson() const;

 private:
  struct Ring {
    explicit Ring(size_t capacity) : slots(capacity) {}
    std::vector<FlightRecord> slots;
    uint64_t next_seq = 0;  // accepted records; next slot = seq % capacity
    uint64_t dropped_info = 0;
    uint64_t dropped_critical = 0;
    mutable std::atomic_flag lock = ATOMIC_FLAG_INIT;

    void Push(const FlightRecord& record);
    std::vector<FlightRecord> Snapshot() const;
  };

  // Per-device lane: one ring per CPU plus the mapping ledger.
  struct Lane {
    std::vector<std::unique_ptr<Ring>> rings;
    std::deque<MappingLife> ledger;
    uint64_t next_generation = 1;
    uint64_t ledger_dropped = 0;
    mutable std::atomic_flag ledger_lock = ATOMIC_FLAG_INIT;
  };

  Lane& LaneFor(DeviceId device);
  const Lane* FindLane(DeviceId device) const;
  Ring& RingFor(Lane& lane) const;
  void Push(Lane& lane, FlightRecord record);

  const SimClock* clock_;
  ForensicsConfig config_;
  uint32_t num_cpus_;
  // Lane structure is append-only; the spinlock guards map mutation and
  // lookup so kThreads workers can fault in lanes for hot-plugged devices.
  mutable std::atomic_flag lanes_lock_ = ATOMIC_FLAG_INIT;
  std::map<uint32_t, std::unique_ptr<Lane>> lanes_;
};

}  // namespace spv::forensics

#endif  // SPV_FORENSICS_FLIGHT_RECORDER_H_
