// Policy-routed bounce-buffer pool: the paper's §8 bounce-buffer defence
// (Markuze et al. [47]), wired into the trust policy of spv::policy.
//
// DmaApi consults a DmaRouter per map and diverts only the flagged devices'
// transfers through dedicated pages, so trusted devices keep the zero-copy
// fast path while untrusted ones are structurally confined. A machine whose
// devices all register untrusted is the paper's wholesale bounce backend.
//
//   * sub-page co-location (paper types (a)/(d)) is eliminated — the device
//     only ever sees dedicated whole pages scrubbed before each I/O, and
//     unmap copies back exactly the buffer's bytes, so device writes outside
//     [offset, offset+len) never reach kernel memory;
//   * deferred-invalidation windows are eliminated on this path — the pool's
//     mappings are static (installed at attach, BIDIRECTIONAL), so the I/O
//     path performs no unmap and queues no invalidation;
//   * cost — one copy per direction in simulated cycles, the paper's
//     trade-off, which the trust policy charges only to untrusted devices.
//
// Multi-page buffers are supported by carving the pool's one contiguous
// IOVA block into runs of consecutive free slots; the returned IOVA
// preserves the caller's sub-page offset so driver arithmetic is unchanged.

#ifndef SPV_DMA_BOUNCE_POOL_H_
#define SPV_DMA_BOUNCE_POOL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/stat_counter.h"
#include "base/status.h"
#include "base/types.h"
#include "dma/dma_api.h"
#include "mem/page_allocator.h"
#include "mem/phys_memory.h"

namespace spv::dma {

// Simulated copy cost per 64-byte cache line moved through the pool (§8
// discussion: copying is cheap relative to a 2000-cycle IOTLB invalidation
// for packet-sized buffers).
inline constexpr uint64_t kCopyCyclesPerCacheLine = 2;

// Per-map routing decision, answered by the trust policy (spv::policy
// implements this). Lives in the dma layer so DmaApi never links against
// the policy engine — the dependency points the other way.
class DmaRouter {
 public:
  virtual ~DmaRouter() = default;

  // True if `device` must not receive direct mappings: DmaApi::MapSingle
  // diverts the transfer through the BouncePool instead, and queue-protocol
  // drivers run their rings in ServiceMode::kBounceSync.
  virtual bool ShouldBounce(DeviceId device) const = 0;
};

class BouncePool {
 public:
  static constexpr uint64_t kDefaultPoolPages = 16;

  BouncePool(iommu::Iommu& iommu, const mem::KernelLayout& layout,
             mem::PhysicalMemory& pm, mem::PageAllocator& page_alloc, SimClock& clock,
             telemetry::Hub* hub = nullptr);

  BouncePool(const BouncePool&) = delete;
  BouncePool& operator=(const BouncePool&) = delete;

  // Builds `device`'s pool: `pages` dedicated pages mapped once as a single
  // contiguous BIDIRECTIONAL IOVA block, never unmapped on the I/O path.
  Status AttachDevice(DeviceId device, uint64_t pages = kDefaultPoolPages);

  // Hot-unplug: unmaps the static block and frees the pages. Fails if
  // bounces are still in flight (ReleaseAll first).
  Status DetachDevice(DeviceId device);

  bool HasPool(DeviceId device) const;

  // The bounce-path equivalents of the DmaApi verbs. Map scrubs the slots
  // and copies in for device-readable directions; Unmap copies device
  // writes back (exactly [offset, offset+len), nothing else) and recycles
  // the slots. The syncs model persistent-mapping drivers: SyncForCpu
  // copies out without releasing, SyncForDevice re-scrubs and re-arms.
  Result<Iova> Map(DeviceId device, Kva kva, uint64_t len, DmaDirection dir,
                   std::string_view site = "bounce_map");
  Status Unmap(DeviceId device, Iova iova, uint64_t len, DmaDirection dir);

  // Persistent variant: same slot carving, but the run is flagged as a
  // long-lived ring/slot mapping the driver syncs instead of re-mapping.
  // Released with Unmap like any other bounce.
  Result<Iova> MapPersistent(DeviceId device, Kva kva, uint64_t len, DmaDirection dir,
                             std::string_view site = "bounce_map_persistent");

  // Partial-range syncs: `iova` may point anywhere inside a live bounce
  // (not just its first page) and `len` covers just the bytes handed over —
  // a single SQE, one CQE, a packet's bytes. `dir` must match the mapping.
  // SyncForCpu copies device writes back for the range; SyncForDevice scrubs
  // the range (whole pages when the full mapping is re-armed) and copies
  // kernel bytes in for device-readable directions. Both publish telemetry
  // (kBounceSyncCpu/kBounceSyncDevice; the hub reads the sync tallies as
  // bounce.sync_*).
  Status SyncForCpu(DeviceId device, Iova iova, uint64_t len, DmaDirection dir);
  Status SyncForDevice(DeviceId device, Iova iova, uint64_t len, DmaDirection dir);

  // True if `iova` falls inside `device`'s pool block — i.e. it was handed
  // out by Map, not by the zero-copy path. DmaApi checks this before its own
  // tracker so in-flight bounces survive a trust promotion.
  bool Owns(DeviceId device, Iova iova) const;

  // Synthesizes the DmaMapping a tracker lookup would have produced, so
  // FindMapping-based audits (NicDriver::AuditQueues) see bounced buffers.
  std::optional<DmaMapping> Lookup(DeviceId device, Iova iova) const;

  // Quarantine support: drops every in-flight bounce for `device` without
  // copy-out (the device is suspect; its writes are discarded). Returns the
  // number of bounces released. The static mappings stay — the IOMMU fence
  // already blocks the device, and RevokeDeviceMappings tears PTEs down.
  uint64_t ReleaseAll(DeviceId device);

  // Machine::CheckInvariants hook: slot in-use accounting must match the
  // active table, active runs must be disjoint and in range, and every pool
  // page must still translate (the mappings are supposed to be static).
  Status Audit() const;

  uint64_t copies() const { return copies_; }
  uint64_t total_active() const;
  uint64_t pool_pages(DeviceId device) const;
  uint64_t active_bounces(DeviceId device) const;
  uint64_t persistent_bounces(DeviceId device) const;
  uint64_t syncs_for_cpu(DeviceId device) const;
  uint64_t syncs_for_device(DeviceId device) const;

 private:
  struct Slot {
    Pfn pfn;
    bool in_use = false;
  };
  struct Active {
    size_t first_slot;
    uint64_t num_slots;
    Kva orig_kva;
    uint64_t len;
    DmaDirection dir;
    std::string site;
    bool persistent = false;
  };
  struct Pool {
    Iova base;  // slot 0's IOVA; slot i lives at base + i*kPageSize
    std::vector<Slot> slots;
    std::map<uint64_t, Active> active;  // first slot's IOVA value -> bounce
    uint64_t syncs_for_cpu = 0;
    uint64_t syncs_for_device = 0;
  };

  Result<Iova> MapInternal(DeviceId device, Kva kva, uint64_t len, DmaDirection dir,
                           std::string_view site, bool persistent);
  Status Copy(Kva dst, Kva src, uint64_t len);
  Kva SlotKva(const Pool& pool, size_t slot) const;
  // Walks the per-slot chunks of buffer offsets [from, from+span):
  // fn(slot_index, slot_offset, buffer_offset, chunk_len).
  template <typename Fn>
  Status ForEachChunkRange(const Active& active, uint64_t from, uint64_t span,
                           Fn&& fn) const;
  // Containing-run lookup for the syncs: unlike Unmap's exact first-page
  // key, `iova` may land anywhere inside the run. Returns active.end() on
  // miss; *rel_out is the byte offset of `iova` within the buffer.
  std::map<uint64_t, Active>::iterator FindContaining(Pool& pool, Iova iova,
                                                      uint64_t* rel_out);
  Status CopyInRange(Pool& pool, const Active& active, uint64_t from, uint64_t span);
  Status CopyOutRange(Pool& pool, const Active& active, uint64_t from, uint64_t span);
  Status Scrub(Pool& pool, const Active& active);
  Status ScrubRange(Pool& pool, const Active& active, uint64_t from, uint64_t span);
  void PublishEvent(telemetry::EventKind kind, DeviceId device, const Active& active,
                    Iova iova, uint64_t len, uint64_t cycles_spent);

  iommu::Iommu& iommu_;
  const mem::KernelLayout& layout_;
  mem::PhysicalMemory& pm_;
  mem::PageAllocator& page_alloc_;
  SimClock& clock_;
  telemetry::Hub* hub_;
  std::map<uint32_t, Pool> pools_;
  uint64_t copies_ = 0;
  uint64_t copy_cycles_ = 0;
  StatCounter syncs_for_cpu_;
  StatCounter syncs_for_device_;
  std::vector<telemetry::CounterLink> links_;  // after the tallies it reads
  // The hub-owned metrics bumped per event.
  telemetry::CachedCounter maps_{"bounce.maps"};
  telemetry::CachedCounter unmaps_{"bounce.unmaps"};
};

}  // namespace spv::dma

#endif  // SPV_DMA_BOUNCE_POOL_H_
