// NVMe block driver over the DMA API — the storage-side fast-path caller.
//
// Queue memory comes from kmalloc, PRP-list segments (by default) from the
// per-CPU page_frag pool in 128-byte sub-page carves, and data buffers from
// whatever the caller kmalloc'd — so the driver reproduces all four of the
// paper's vulnerability classes on the storage path:
//   (a) callers map buffers embedded in structs with function pointers;
//   (b) PRP-list frags share pages with other kernel data;
//   (c) two frags on one page mapped under distinct IOVAs;
//   (d) kmalloc'd IO buffers co-locate with unrelated slab objects.
//
// The driver trusts the completion queue exactly as far as a real driver
// does: CID must match an outstanding command, phase must match the expected
// pass, and DW0 must account for the bytes — but a *plausible* forged CQE
// (valid CID, correct phase) is indistinguishable from a real one, which is
// what makes Poisoned Completion (the storage Poisoned TX) work.

#ifndef SPV_NVME_NVME_DRIVER_H_
#define SPV_NVME_NVME_DRIVER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/clock.h"
#include "base/status.h"
#include "base/types.h"
#include "dma/dma_api.h"
#include "dma/kernel_memory.h"
#include "nvme/nvme_defs.h"
#include "nvme/nvme_device_model.h"
#include "recovery/supervised.h"
#include "slab/page_frag.h"
#include "slab/slab_allocator.h"

namespace spv::fault {
class FaultEngine;
}  // namespace spv::fault

namespace spv::nvme {

inline constexpr uint16_t kAdminQid = 0;
inline constexpr uint16_t kIoQid = 1;

class NvmeDriver : public recovery::SupervisedDriver {
 public:
  struct Config {
    std::string name = "nvme0";
    CpuId cpu{0};
    uint16_t io_queue_entries = 32;
    // A command outstanding longer than this is failed by CheckTimeouts(),
    // which flushes and re-creates the IO queue (the NVMe controller-reset
    // analogue of the NIC TX watchdog).
    uint64_t completion_timeout_cycles = SimClock::MsToCycles(5000);
    // Budget for CQ polling loops; exceeded -> kNvmePollDeadline and yield.
    uint64_t poll_deadline_cycles = SimClock::MsToCycles(2);
    // PRP-list segments as 128-byte page_frag carves (sub-page co-location:
    // the attack surface). false = one kmalloc page per segment, sole owner.
    bool prp_lists_from_frags = true;
  };

  NvmeDriver(DeviceId device_id, dma::DmaApi& dma, dma::KernelMemory& kmem,
             slab::SlabAllocator& slab, slab::PageFragPool* frag_pool,
             SimClock& clock, Config config);

  NvmeDriver(const NvmeDriver&) = delete;
  NvmeDriver& operator=(const NvmeDriver&) = delete;

  void AttachDevice(NvmeDeviceModel* device) { device_ = device; }
  // Optional fault hook (the kNvme* sites live in the controller; the driver
  // consults none itself but forwards arming state to queue-reset paths).
  void set_fault_engine(fault::FaultEngine* engine) { fault_ = engine; }
  // Optional causal span tracer: nullptr detaches.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  // Brings the device up: admin queue pair, Identify, one IO queue pair
  // created through real admin commands (CreateCq/CreateSq fetched from the
  // admin SQ by DMA).
  Status Init();

  // Releases everything without device cooperation: fails outstanding
  // commands, unmaps and frees queue memory and PRP segments. Best-effort;
  // first error reported, teardown continues. Leak-free even against a
  // hostile controller.
  Status Shutdown() override;

  // SupervisedDriver re-attach hook: full re-init.
  Status Resume() override;

  // Trust-probation hook (spv::policy): clamps the CQ poll budget and the
  // number of commands outstanding at once. A zeroed struct restores the
  // config defaults; limits only ever tighten, never exceed them.
  void ApplyDmaPolicy(const recovery::DmaPolicyLimits& limits) override {
    policy_limits_ = limits;
  }
  const recovery::DmaPolicyLimits& policy_limits() const { return policy_limits_; }

  // ---- Block IO ---------------------------------------------------------------

  // Asynchronous primitives: submit returns the CID; completions arrive via
  // PollCompletions(). `buf` stays mapped (device-owned) until completion.
  Result<uint16_t> SubmitRead(uint64_t slba, uint16_t nblocks, Kva buf);
  Result<uint16_t> SubmitWrite(uint64_t slba, uint16_t nblocks, Kva buf);

  // Synchronous wrappers: submit + poll to completion; return bytes moved.
  Result<uint64_t> ReadBlocks(uint64_t slba, uint16_t nblocks, Kva buf);
  Result<uint64_t> WriteBlocks(uint64_t slba, uint16_t nblocks, Kva buf);

  // Drains the IO CQ: validates phase/CID/status/DW0, finishes matching
  // commands (unmap + PRP teardown). Returns completions consumed. Bounded
  // by poll_deadline_cycles.
  uint32_t PollCompletions();

  // Polls until `cid` completes or the poll deadline passes. On success
  // returns bytes transferred; a vanished completion returns Unavailable and
  // leaves the command for the watchdog.
  Result<uint64_t> WaitFor(uint16_t cid);

  // Watchdog: commands outstanding past completion_timeout_cycles are failed
  // and the IO queue is flushed + re-created (kNvmeQueueReset). Returns the
  // number of commands failed.
  uint32_t CheckTimeouts();

  // ---- Introspection -----------------------------------------------------------

  DeviceId device_id() const { return device_id_; }
  uint64_t capacity_blocks() const { return capacity_blocks_; }
  bool io_queue_live() const { return io_.live; }
  size_t outstanding() const { return outstanding_.size(); }
  uint64_t reads_completed() const { return reads_completed_; }
  uint64_t writes_completed() const { return writes_completed_; }
  uint64_t io_errors() const { return io_errors_; }
  uint64_t completion_errors() const { return completion_errors_; }
  uint32_t queue_resets() const { return static_cast<uint32_t>(queue_resets_.load()); }
  uint64_t poll_deadline_hits() const { return poll_deadline_hits_; }
  uint64_t prp_segments_built() const { return prp_segments_built_; }
  // Degraded-service state: which queue protocol the driver is running
  // (kBounceSync = rings on persistent sync'd bounce slots) and how many
  // live transitions it has absorbed.
  dma::ServiceMode service_mode() const { return active_mode_; }
  uint32_t mode_switches() const { return static_cast<uint32_t>(mode_switches_.load()); }

  // Queue geometry, for the attack tests that target ring memory.
  Iova io_sq_iova() const { return io_.sq_iova; }
  Iova io_cq_iova() const { return io_.cq_iova; }

 private:
  // Driver-side view of one queue pair (SQ ring + CQ ring, both persistently
  // DMA-mapped: SQ readable, CQ writable by the device).
  struct QueueView {
    bool live = false;
    uint16_t qid = 0;
    Kva sq_kva;
    Iova sq_iova;
    uint16_t sq_entries = 0;
    uint16_t sq_tail = 0;
    Kva cq_kva;
    Iova cq_iova;
    uint16_t cq_entries = 0;
    uint16_t cq_head = 0;
    bool phase = true;  // phase tag expected on the next valid CQE
    // Sync-mode (degraded service): the rings live in persistent bounce
    // slots; every SQE is sync'd for-device before its doorbell and every
    // CQE sync'd for-cpu before the phase check. The CQ is *never* sync'd
    // for-device — a mid-pass scrub would fabricate phase-matching zero
    // CQEs after the first wrap.
    bool sq_bounced = false;
    bool cq_bounced = false;
  };

  // One mapped PRP-list segment backing an in-flight command.
  struct PrpSeg {
    Kva kva;
    Iova iova;
    bool from_frag = false;
  };

  struct IoCmd {
    uint8_t opcode = 0;
    Kva buf;
    uint64_t len = 0;
    Iova data_iova;
    dma::DmaDirection dir = dma::DmaDirection::kToDevice;
    std::vector<PrpSeg> segs;
    uint64_t submit_cycle = 0;
    // Enough of the original request to re-issue it across a live service-
    // mode switch (ring teardown invalidates data_iova and the PRP chain).
    uint64_t slba = 0;
    uint16_t nblocks = 0;
  };

  struct Finished {
    uint8_t status = 0;
    uint64_t transferred = 0;
  };

  Status AllocQueue(QueueView& view, uint16_t qid, uint16_t sq_entries,
                    uint16_t cq_entries);
  Status FreeQueue(QueueView& view);
  Status IdentifyController();
  Status CreateIoQueue();
  // Synchronous admin round trip: SQE in, CQE out, bounded poll.
  Result<Cqe> AdminCommand(const Sqe& sqe);

  Result<uint16_t> SubmitIo(uint8_t opcode, uint64_t slba, uint16_t nblocks,
                            Kva buf);
  // SubmitIo body with the CID and submit cycle pinned — the resubmit path
  // of a live service-mode switch reuses the original identity so callers
  // blocked in WaitFor(cid) never notice the rings moved.
  Result<uint16_t> SubmitIoWithCid(uint8_t opcode, uint64_t slba,
                                   uint16_t nblocks, Kva buf, uint16_t cid,
                                   uint64_t submit_cycle);
  // Compares the router's service mode against active_mode_; on change,
  // re-homes the rings (teardown + bring-up under the new mode) and
  // re-issues every in-flight command with its original CID.
  void RefreshServiceMode();
  Status SwitchServiceMode(dma::ServiceMode next);
  // Builds the PRP chain for `page_iovas` (segments written before mapping,
  // chained back-to-front). On success sets `prp2` and appends to `segs`.
  Status BuildPrpChain(const std::vector<uint64_t>& page_iovas,
                       std::vector<PrpSeg>& segs, uint64_t& prp2);
  Status WriteSqe(QueueView& view, const Sqe& sqe);
  // Reads the CQE at `view.cq_head` if its phase matches; advances head and
  // rings the CQ doorbell.
  std::optional<Cqe> TryPopCqe(QueueView& view);
  // Completion bookkeeping for one matched CQE. Returns false (and accounts
  // a completion error) when the CQE is implausible.
  bool HandleIoCqe(const Cqe& cqe);
  // Unmaps data + PRP segments of `cmd`; frees the segments.
  Status ReleaseCmd(IoCmd& cmd, std::string_view why);
  void FailAllOutstanding(std::string_view why);
  Status ResetIoQueue();
  bool PollDeadlineHit(uint64_t start_cycle, std::string_view loop);
  uint16_t NextCid();
  // Config values after the trust-policy clamp (identity with no limits).
  uint64_t EffectivePollDeadline() const {
    return policy_limits_.poll_deadline_cycles != 0 &&
                   policy_limits_.poll_deadline_cycles < config_.poll_deadline_cycles
               ? policy_limits_.poll_deadline_cycles
               : config_.poll_deadline_cycles;
  }
  size_t EffectiveQueueDepth() const {
    const size_t cap = io_.sq_entries == 0 ? 0 : static_cast<size_t>(io_.sq_entries) - 1;
    return policy_limits_.ring_limit != 0 && policy_limits_.ring_limit < cap
               ? policy_limits_.ring_limit
               : cap;
  }

  DeviceId device_id_;
  dma::DmaApi& dma_;
  dma::KernelMemory& kmem_;
  slab::SlabAllocator& slab_;
  slab::PageFragPool* frag_pool_;
  SimClock& clock_;
  Config config_;
  NvmeDeviceModel* device_ = nullptr;
  fault::FaultEngine* fault_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  recovery::DmaPolicyLimits policy_limits_;  // zeroed = full service

  QueueView admin_;
  QueueView io_;
  uint64_t capacity_blocks_ = 0;
  std::map<uint16_t, IoCmd> outstanding_;
  std::map<uint16_t, Finished> finished_;
  uint16_t next_cid_ = 1;

  // The hub reads these tallies as nvme.* (linked in the constructor).
  StatCounter reads_completed_;
  StatCounter writes_completed_;
  StatCounter io_errors_;          // commands that failed: bad status or aborted
  StatCounter completion_errors_;  // CQEs rejected as implausible
  StatCounter queue_resets_;
  StatCounter poll_deadline_hits_;
  uint64_t prp_segments_built_ = 0;
  dma::ServiceMode active_mode_ = dma::ServiceMode::kZeroCopy;
  StatCounter mode_switches_;
  bool in_mode_switch_ = false;  // re-entrancy guard for RefreshServiceMode
  std::vector<telemetry::CounterLink> links_;  // after the tallies it reads
  // The hub-owned histograms recorded per completion.
  telemetry::CachedHistogram io_latency_cycles_{"nvme.io_latency_cycles"};
  telemetry::CachedHistogram transfer_bytes_{"nvme.transfer_bytes"};
};

}  // namespace spv::nvme

#endif  // SPV_NVME_NVME_DRIVER_H_
