#include "nvme/nvme_controller.h"

#include <algorithm>
#include <cstring>

#include "fault/fault.h"

namespace spv::nvme {
namespace {

// Default SQ-fetch corruption: flips an opcode bit and a CID bit, so the
// executed command and its completion both disagree with what the driver
// submitted.
constexpr uint64_t kDefaultFetchXor = 0x0000'0000'0001'0004ull;

bool Inject(fault::FaultEngine* engine, fault::FaultSite site) {
  return engine != nullptr && engine->armed() && engine->ShouldInject(site);
}

}  // namespace

NvmeController::NvmeController(device::DevicePort port, Config config)
    : port_(port),
      config_(config),
      media_(config.capacity_blocks * kLbaSize, 0) {}

void NvmeController::OnAdminQueueConfigured(const QueuePair& queues) {
  QueueState state;
  state.cfg = queues;
  queues_[queues.qid] = state;
}

void NvmeController::OnSqDoorbell(uint16_t qid, uint16_t tail) {
  auto it = queues_.find(qid);
  if (it == queues_.end()) {
    return;  // unknown queue: doorbell write to a dead register
  }
  QueueState& queue = it->second;
  if (queue.cfg.sq_entries == 0 || tail >= queue.cfg.sq_entries) {
    return;  // bogus tail, ignore like hardware would
  }
  if (Inject(fault_, fault::FaultSite::kNvmeDoorbellStorm)) {
    // The doorbell "re-announces" entries the controller already consumed:
    // rewind the head so they execute again. Duplicate CQEs with stale CIDs
    // follow, which the driver must reject.
    const uint64_t replay =
        fault_->magnitude(fault::FaultSite::kNvmeDoorbellStorm, 1) %
        queue.cfg.sq_entries;
    queue.sq_head = static_cast<uint16_t>(
        (queue.sq_head + queue.cfg.sq_entries - replay) % queue.cfg.sq_entries);
  }
  ServiceSq(qid, queue, tail);
}

void NvmeController::OnCqDoorbell(uint16_t qid, uint16_t head) {
  auto it = queues_.find(qid);
  if (it == queues_.end() || head >= it->second.cfg.cq_entries) {
    return;
  }
  it->second.cq_head = head;
}

void NvmeController::OnQueueDeleted(uint16_t qid) {
  queues_.erase(qid);
  pending_cqs_.erase(qid);
}

void NvmeController::ServiceSq(uint16_t qid, QueueState& queue, uint16_t tail) {
  while (queue.sq_head != tail) {
    if (!ServiceOne(qid, queue)) {
      break;  // fetch path is dead (fenced / unmapped): stop hammering it
    }
  }
}

bool NvmeController::ServiceOne(uint16_t qid, QueueState& queue) {
  trace::ScopedSpan span(tracer_, "nvme.service");
  Result<Sqe> sqe = FetchSqe(queue, queue.sq_head);
  if (!sqe.ok()) {
    ++stats_.fetch_errors;
    return false;
  }
  ++stats_.sqes_fetched;
  queue.sq_head =
      static_cast<uint16_t>((queue.sq_head + 1) % queue.cfg.sq_entries);
  Cqe cqe;
  cqe.cid = sqe->cid;
  cqe.sq_id = qid;
  Execute(qid, *sqe, cqe);
  cqe.sq_head = queue.sq_head;
  (void)PostCqe(queue, cqe);
  return true;
}

Result<Sqe> NvmeController::FetchSqe(const QueueState& queue, uint16_t index) {
  trace::ScopedSpan span(tracer_, "nvme.fetch");
  const Iova slot{queue.cfg.sq_base.value +
                  static_cast<uint64_t>(index) * kSqeSize};
  Result<std::vector<uint8_t>> raw = port_.ReadBlock(slot, kSqeSize);
  if (!raw.ok()) {
    return raw.status();
  }
  if (Inject(fault_, fault::FaultSite::kNvmeSqFetchCorrupt)) {
    uint64_t mask =
        fault_->magnitude(fault::FaultSite::kNvmeSqFetchCorrupt, kDefaultFetchXor);
    uint64_t dword0 = 0;
    std::memcpy(&dword0, raw->data(), 8);
    dword0 ^= mask;
    std::memcpy(raw->data(), &dword0, 8);
  }
  return DecodeSqe(*raw);
}

void NvmeController::Execute(uint16_t qid, const Sqe& sqe, Cqe& cqe) {
  cqe.status = kScSuccess;
  if (qid == 0) {
    ExecuteAdmin(qid, sqe, cqe);
  } else {
    ExecuteIo(sqe, cqe);
  }
}

void NvmeController::ExecuteAdmin(uint16_t /*qid*/, const Sqe& sqe, Cqe& cqe) {
  switch (sqe.opcode) {
    case kAdminIdentify: {
      if (sqe.prp1 == 0) {
        cqe.status = kScInvalidField;
        return;
      }
      std::vector<uint8_t> page(kPageSize, 0);
      const uint64_t capacity = config_.capacity_blocks;
      const uint64_t lba_size = kLbaSize;
      std::memcpy(page.data() + kIdentifyCapacityOff, &capacity, 8);
      std::memcpy(page.data() + kIdentifyLbaSizeOff, &lba_size, 8);
      if (!port_.Write(Iova{sqe.prp1}, page).ok()) {
        ++stats_.transfer_errors;
        cqe.status = kScDataTransferError;
        return;
      }
      cqe.dw0 = static_cast<uint32_t>(kPageSize);
      return;
    }
    case kAdminCreateCq: {
      const uint16_t qid = static_cast<uint16_t>(sqe.cdw10 & 0xffff);
      const uint16_t entries = static_cast<uint16_t>((sqe.cdw10 >> 16) + 1);
      if (qid == 0 || entries < 2 || sqe.prp1 == 0) {
        cqe.status = kScInvalidField;
        return;
      }
      pending_cqs_[qid] = PendingCq{Iova{sqe.prp1}, entries};
      return;
    }
    case kAdminCreateSq: {
      const uint16_t qid = static_cast<uint16_t>(sqe.cdw10 & 0xffff);
      const uint16_t entries = static_cast<uint16_t>((sqe.cdw10 >> 16) + 1);
      const uint16_t cqid = static_cast<uint16_t>(sqe.cdw11 & 0xffff);
      auto cq = pending_cqs_.find(cqid);
      if (qid == 0 || entries < 2 || sqe.prp1 == 0 ||
          cq == pending_cqs_.end()) {
        cqe.status = kScInvalidField;
        return;
      }
      QueueState state;
      state.cfg = QueuePair{qid, Iova{sqe.prp1}, entries, cq->second.base,
                            cq->second.entries};
      queues_[qid] = state;
      return;
    }
    case kAdminDeleteSq: {
      const uint16_t qid = static_cast<uint16_t>(sqe.cdw10 & 0xffff);
      if (qid == 0) {
        cqe.status = kScInvalidField;
        return;
      }
      queues_.erase(qid);
      return;
    }
    case kAdminDeleteCq: {
      pending_cqs_.erase(static_cast<uint16_t>(sqe.cdw10 & 0xffff));
      return;
    }
    default:
      cqe.status = kScInvalidOpcode;
      return;
  }
}

void NvmeController::ExecuteIo(const Sqe& sqe, Cqe& cqe) {
  if (sqe.opcode == kOpFlush) {
    return;  // media is always durable here; success with dw0 = 0
  }
  if (sqe.opcode != kOpRead && sqe.opcode != kOpWrite) {
    cqe.status = kScInvalidOpcode;
    return;
  }
  const uint64_t blocks = static_cast<uint64_t>(sqe.nlb) + 1;
  if (sqe.slba + blocks > config_.capacity_blocks) {
    cqe.status = kScLbaOutOfRange;
    return;
  }
  const uint64_t total = blocks << kLbaShift;
  uint8_t walk_status = kScSuccess;
  Result<std::vector<PrpChunk>> chunks = WalkPrps(sqe, total, walk_status);
  if (!chunks.ok()) {
    cqe.status = walk_status;
    return;
  }
  if (!chunks->empty() && Inject(fault_, fault::FaultSite::kNvmePrpWild)) {
    // One data pointer dereferences wild: the transfer lands on (or reads
    // from) an IOVA nobody mapped, and the IOMMU logs the fault.
    chunks->back().iova.value +=
        fault_->magnitude(fault::FaultSite::kNvmePrpWild, 1ull << 30);
  }
  uint64_t limit = total;
  if (Inject(fault_, fault::FaultSite::kNvmeShortTransfer)) {
    // The device silently stops moving data early but still completes with
    // success; only CQE DW0 betrays the short count.
    limit = std::min(
        fault_->magnitude(fault::FaultSite::kNvmeShortTransfer, total / 2),
        total);
  }
  trace::ScopedSpan span(tracer_, "nvme.transfer");
  const uint64_t media_off = sqe.slba << kLbaShift;
  uint64_t transferred = 0;
  for (const PrpChunk& chunk : *chunks) {
    const uint64_t n = std::min(chunk.len, limit - transferred);
    if (n == 0) {
      break;
    }
    Status io;
    if (sqe.opcode == kOpRead) {
      io = port_.Write(
          chunk.iova,
          std::span<const uint8_t>(media_.data() + media_off + transferred, n));
    } else {
      io = port_.Read(
          chunk.iova,
          std::span<uint8_t>(media_.data() + media_off + transferred, n));
    }
    if (!io.ok()) {
      ++stats_.transfer_errors;
      cqe.status = kScDataTransferError;
      break;
    }
    transferred += n;
  }
  if (sqe.opcode == kOpRead) {
    stats_.bytes_read += transferred;
  } else {
    stats_.bytes_written += transferred;
  }
  cqe.dw0 = static_cast<uint32_t>(transferred);
}

Result<std::vector<PrpChunk>> NvmeController::WalkPrps(const Sqe& sqe,
                                                       uint64_t total_bytes,
                                                       uint8_t& status) {
  std::vector<PrpChunk> chunks;
  if (total_bytes == 0) {
    return chunks;
  }
  if (sqe.prp1 == 0) {
    status = kScInvalidField;
    return InvalidArgument("prp1 is null");
  }
  uint64_t remaining = total_bytes;
  const uint64_t first_off = sqe.prp1 & (kPageSize - 1);
  const uint64_t first_len = std::min(kPageSize - first_off, remaining);
  chunks.push_back(PrpChunk{Iova{sqe.prp1}, first_len});
  remaining -= first_len;
  if (remaining == 0) {
    return chunks;
  }
  if (remaining <= kPageSize) {
    // PRP2 is a direct data pointer and must be page-aligned.
    if (sqe.prp2 == 0 || (sqe.prp2 & (kPageSize - 1)) != 0) {
      status = kScInvalidField;
      return InvalidArgument("prp2 page pointer invalid");
    }
    chunks.push_back(PrpChunk{Iova{sqe.prp2}, remaining});
    return chunks;
  }
  // PRP2 points at a list segment in host memory; overflow chains through the
  // segment's last qword.
  uint64_t cur = sqe.prp2;
  while (remaining > 0) {
    if (cur == 0 || (cur & 7) != 0) {
      status = kScInvalidField;
      return InvalidArgument("prp list pointer invalid");
    }
    ++stats_.prp_segments_walked;
    prp_segments_seen_.push_back(Iova{cur});
    if (prp_segments_seen_.size() > kPrpSegmentsKept) {
      prp_segments_seen_.pop_front();
    }
    const uint64_t pages_left = (remaining + kPageSize - 1) / kPageSize;
    const uint64_t data_entries =
        pages_left <= kPrpSegEntries ? pages_left : kPrpSegEntries - 1;
    for (uint64_t i = 0; i < data_entries; ++i) {
      Result<uint64_t> entry = port_.ReadU64(Iova{cur + 8 * i});
      if (!entry.ok()) {
        status = kScDataTransferError;
        return entry.status();
      }
      if (*entry == 0 || (*entry & (kPageSize - 1)) != 0) {
        status = kScInvalidField;
        return InvalidArgument("prp list entry not page-aligned");
      }
      const uint64_t len = std::min<uint64_t>(kPageSize, remaining);
      chunks.push_back(PrpChunk{Iova{*entry}, len});
      remaining -= len;
    }
    if (remaining > 0) {
      Result<uint64_t> chain = port_.ReadU64(Iova{cur + 8 * (kPrpSegEntries - 1)});
      if (!chain.ok()) {
        status = kScDataTransferError;
        return chain.status();
      }
      cur = *chain;
    }
  }
  return chunks;
}

Status NvmeController::PostCqe(QueueState& queue, Cqe cqe) {
  trace::ScopedSpan span(tracer_, "nvme.cq_post");
  const uint16_t next =
      static_cast<uint16_t>((queue.cq_tail + 1) % queue.cfg.cq_entries);
  if (next == queue.cq_head) {
    ++stats_.cq_overflows;
    return ResourceExhausted("completion queue full");
  }
  if (Inject(fault_, fault::FaultSite::kNvmeCompletionDrop)) {
    // The command executed; its completion evaporates. The driver's watchdog
    // owns this now.
    return OkStatus();
  }
  cqe.phase = queue.phase;
  if (Inject(fault_, fault::FaultSite::kNvmeCqPhaseFlip)) {
    cqe.phase = !cqe.phase;
  }
  const std::array<uint8_t, kCqeSize> raw = EncodeCqe(cqe);
  const Iova slot{queue.cfg.cq_base.value +
                  static_cast<uint64_t>(queue.cq_tail) * kCqeSize};
  Status written = port_.Write(slot, raw);
  if (!written.ok()) {
    ++stats_.cqe_post_errors;
    return written;
  }
  ++stats_.cqes_posted;
  queue.cq_tail = next;
  if (queue.cq_tail == 0) {
    queue.phase = !queue.phase;
  }
  return OkStatus();
}

Result<std::vector<uint8_t>> NvmeController::PeekMedia(uint64_t slba,
                                                       uint64_t blocks) const {
  if (slba + blocks > config_.capacity_blocks) {
    return InvalidArgument("PeekMedia out of range");
  }
  const uint64_t off = slba << kLbaShift;
  const uint64_t len = blocks << kLbaShift;
  return std::vector<uint8_t>(media_.begin() + off, media_.begin() + off + len);
}

}  // namespace spv::nvme
