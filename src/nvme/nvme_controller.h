// NvmeController: an honest NVMe controller model behind the IOMMU.
//
// The controller owns nothing but a DevicePort and its private media array.
// Submission queue entries are FETCHED from host memory by DMA, completion
// queue entries are WRITTEN into host memory by DMA, and every data transfer
// walks PRP lists that also live in host memory — so the entire command path
// crosses the IOMMU, which is what makes the storage queue structures the
// same attack surface the paper demonstrated on NIC rings. Fault-injection
// sites model the controller-side failure modes (corrupt fetches, wild PRP
// dereferences, phase-flipped or dropped completions, doorbell storms, short
// transfers); the malicious twin in malicious_nvme.h overrides the service
// loop to mount deliberate attacks with the same primitives.

#ifndef SPV_NVME_NVME_CONTROLLER_H_
#define SPV_NVME_NVME_CONTROLLER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "device/device_port.h"
#include "nvme/nvme_defs.h"
#include "nvme/nvme_device_model.h"
#include "trace/tracer.h"

namespace spv::fault {
class FaultEngine;
}  // namespace spv::fault

namespace spv::nvme {

// One contiguous piece of a command's data transfer, as resolved by the PRP
// walk: an IOVA range the device will DMA to/from.
struct PrpChunk {
  Iova iova;
  uint64_t len = 0;
};

class NvmeController : public NvmeDeviceModel {
 public:
  struct Config {
    uint64_t capacity_blocks = 2048;  // 1 MiB of media at 512-byte LBAs
  };

  struct Stats {
    uint64_t sqes_fetched = 0;
    uint64_t fetch_errors = 0;       // SQ fetch DMA failed (fenced/unmapped)
    uint64_t cqes_posted = 0;
    uint64_t cqe_post_errors = 0;    // CQ write DMA failed
    uint64_t bytes_read = 0;         // media -> host
    uint64_t bytes_written = 0;      // host -> media
    uint64_t prp_segments_walked = 0;
    uint64_t transfer_errors = 0;    // data-phase DMA failed mid-command
    uint64_t cq_overflows = 0;       // completion dropped: CQ full
  };

  explicit NvmeController(device::DevicePort port, Config config);
  explicit NvmeController(device::DevicePort port)
      : NvmeController(port, Config{}) {}

  // ---- NvmeDeviceModel --------------------------------------------------------

  void OnAdminQueueConfigured(const QueuePair& queues) override;
  void OnSqDoorbell(uint16_t qid, uint16_t tail) override;
  void OnCqDoorbell(uint16_t qid, uint16_t head) override;
  void OnQueueDeleted(uint16_t qid) override;

  // ---- Wiring -----------------------------------------------------------------

  // Controller-side fault sites (kNvme*); nullptr detaches.
  void set_fault_engine(fault::FaultEngine* engine) { fault_ = engine; }
  // Optional span tracer for fetch/transfer/post phases; nullptr detaches.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  device::DevicePort& port() { return port_; }
  const Stats& stats() const { return stats_; }
  uint64_t capacity_blocks() const { return config_.capacity_blocks; }

  // Host-side test oracle: peek at the media without any DMA.
  Result<std::vector<uint8_t>> PeekMedia(uint64_t slba, uint64_t blocks) const;

  // How many of the most recently walked PRP-list segments the controller
  // remembers; older ones are forgotten, so the list stays bounded on a
  // long storage run.
  static constexpr size_t kPrpSegmentsKept = 1024;

  // PRP-list segment IOVAs the controller has legitimately observed while
  // walking commands, oldest first (at most kPrpSegmentsKept) — the
  // malicious twin harvests the pages behind them.
  const std::deque<Iova>& prp_segments_seen() const { return prp_segments_seen_; }

 protected:
  struct QueueState {
    QueuePair cfg;
    uint16_t sq_head = 0;
    uint16_t cq_tail = 0;
    uint16_t cq_head = 0;  // last head the host doorbelled
    bool phase = true;     // tag for the next CQE posted
  };

  // Fetches, decodes, executes and completes entries [sq_head, tail). The
  // malicious twin overrides this to reorder / forge / withhold completions.
  virtual void ServiceSq(uint16_t qid, QueueState& queue, uint16_t tail);

  // One command, fetch to completion. Returns false when the SQE fetch
  // itself failed (fenced device: stop ringing the ring).
  bool ServiceOne(uint16_t qid, QueueState& queue);

  Result<Sqe> FetchSqe(const QueueState& queue, uint16_t index);
  // Executes `sqe`, filling `cqe` (status + dw0). Admin commands mutate the
  // queue map; IO commands move data between media and host memory. Virtual
  // so the malicious twin can complete-before-transfer (Poisoned Completion).
  virtual void Execute(uint16_t qid, const Sqe& sqe, Cqe& cqe);
  // Posts `cqe` into the queue's CQ ring (phase stamped from queue state).
  // Respects kNvmeCqPhaseFlip / kNvmeCompletionDrop when armed.
  Status PostCqe(QueueState& queue, Cqe cqe);

  // Resolves the data pointers of a command into DMA chunks, reading PRP
  // list segments from host memory. `status` receives a command status code
  // on walk failure.
  Result<std::vector<PrpChunk>> WalkPrps(const Sqe& sqe, uint64_t total_bytes,
                                         uint8_t& status);

  void ExecuteIo(const Sqe& sqe, Cqe& cqe);
  void ExecuteAdmin(uint16_t qid, const Sqe& sqe, Cqe& cqe);

  device::DevicePort port_;
  Config config_;
  std::vector<uint8_t> media_;
  std::map<uint16_t, QueueState> queues_;
  // CreateCq parks geometry here until the matching CreateSq arrives.
  struct PendingCq {
    Iova base;
    uint16_t entries = 0;
  };
  std::map<uint16_t, PendingCq> pending_cqs_;
  std::deque<Iova> prp_segments_seen_;
  Stats stats_;
  fault::FaultEngine* fault_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace spv::nvme

#endif  // SPV_NVME_NVME_CONTROLLER_H_
