#include "net/nic_driver.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "base/align.h"
#include "dma/bounce_pool.h"
#include "fault/fault.h"

namespace spv::net {

namespace {

// After a failed RX refill the driver waits this long before retrying
// (bounded backoff: a starved allocator is not hammered every completion).
constexpr uint64_t kRefillRetryBackoffCycles = SimClock::MsToCycles(1);
// A watchdog-flushed TX skb is reposted at most this many times before the
// driver gives up and frees it.
constexpr uint32_t kTxRequeueMaxAttempts = 3;

// One helper for every driver emit point: packet milestones share the shape
// (device + length + site), only kind/severity vary.
void EmitNicEvent(telemetry::Hub& hub, telemetry::EventKind kind,
                  telemetry::Severity severity, DeviceId device, uint64_t len,
                  const void* origin, std::string site) {
  if (!hub.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = kind;
  event.severity = severity;
  event.device = device.value;
  event.len = len;
  event.origin = origin;
  event.site = std::move(site);
  hub.Publish(event);
}

}  // namespace

NicDriver::NicDriver(DeviceId device_id, dma::DmaApi& dma, dma::KernelMemory& kmem,
                     SkbAllocator& skb_alloc, SimClock& clock, Config config)
    : device_id_(device_id),
      dma_(dma),
      kmem_(kmem),
      skb_alloc_(skb_alloc),
      clock_(clock),
      config_(std::move(config)),
      rss_(config_.num_queues == 0 ? 1 : config_.num_queues) {
  queues_.resize(config_.num_queues == 0 ? 1 : config_.num_queues);
  for (uint32_t q = 0; q < queues_.size(); ++q) {
    Queue& queue = queues_[q];
    if (q < config_.queue_cpus.size()) {
      queue.cpu = config_.queue_cpus[q];
    } else {
      queue.cpu = CpuId{config_.cpu.value + q};
    }
    // Queue 0 keeps the bare device name so its telemetry sites and fault
    // attribution are byte-identical to the historical single-queue driver.
    queue.name = q == 0 ? config_.name : config_.name + ".q" + std::to_string(q);
    queue.rx_ring.resize(config_.rx_ring_size);
    queue.tx_ring.resize(config_.tx_ring_size);
  }
  // Every queue tally and the hub name it is linked under (tx_resets backs
  // two names).
  static constexpr std::pair<std::string_view, StatCounter Queue::*> kQueueCounterNames[] = {
      {"nic.rx_packets", &Queue::rx_packets},
      {"nic.tx_packets", &Queue::tx_packets},
      {"nic.xdp_drops", &Queue::xdp_drops},
      {"nic.xdp_tx", &Queue::xdp_tx},
      {"nic.tx_resets", &Queue::tx_resets},
      {"nic.ring_reset", &Queue::tx_resets},
      {"nic.rx_length_errors", &Queue::rx_length_errors},
      {"nic.rx_device_drops", &Queue::rx_device_drops},
      {"nic.rx_refill_failures", &Queue::rx_refill_failures},
      {"nic.tx_dropped", &Queue::tx_flush_drops},
      {"nic.tx_requeue_dropped", &Queue::tx_requeue_drops},
      {"nic.poll_deadline_exceeded", &Queue::poll_deadline_hits},
      {"nic.rx_sync_frames", &Queue::rx_sync_frames},
  };
  telemetry::Hub& hub = dma_.telemetry();
  for (const Queue& queue : queues_) {
    for (const auto& [name, tally] : kQueueCounterNames) {
      links_.push_back(hub.Link(name, queue.*tally));
    }
  }
}

uint32_t NicDriver::rx_buffer_bytes() const {
  if (config_.hw_lro) {
    return kLroBufBytes;
  }
  return static_cast<uint32_t>(SkbDataAlign(config_.rx_buf_len) +
                               SkbDataAlign(SharedInfoLayout::kSize));
}

uint32_t NicDriver::SyncRingLimit() const {
  // The pool is per device, so the queues share it. A buffer whose first
  // byte is the last byte of a page spans the most pages; sizing for that
  // fits any page_frag offset. A pool too small for one buffer still gets
  // one slot, whose refill then fails loudly.
  const dma::BouncePool* bounce = dma_.bounce_pool();
  const uint64_t pool_pages = bounce != nullptr ? bounce->pool_pages(device_id_) : 0;
  const uint64_t buffer_pages = AlignUp(kPageMask + rx_buffer_bytes(), kPageSize) >> kPageShift;
  const uint64_t fit = pool_pages / (queues_.size() * buffer_pages);
  return static_cast<uint32_t>(std::clamp<uint64_t>(fit, 1, kSyncRingLimit));
}

bool NicDriver::PollDeadlineHit(Queue& q, uint64_t start_cycle, std::string_view loop) {
  if (clock_.now() - start_cycle < EffectivePollDeadline()) {
    return false;
  }
  ++q.poll_deadline_hits;
  EmitNicEvent(dma_.telemetry(), telemetry::EventKind::kNicPollDeadline,
               telemetry::Severity::kWarn, device_id_, clock_.now() - start_cycle,
               this, q.name + "_" + std::string(loop));
  return true;
}

Status NicDriver::FillRxRing(uint32_t queue) {
  trace::ScopedSpan span(tracer_, "nic.fill_rx");
  Queue& q = queues_[queue];
  // Each queue's NAPI context owns its own deadline: the budget starts when
  // this queue's fill starts, not when the device-wide pass did.
  const uint64_t start = clock_.now();
  // Best-effort: one slot failing to fill must not leave the ones after it
  // empty; the first error is still reported.
  Status first = OkStatus();
  // Probation clamp: only the first `ring limit` descriptors are posted, so
  // an untrusted-ish device exposes proportionally less memory at a time.
  // (Sync mode tightens the limit further — persistent bounce slots are a
  // scarcer resource than kernel pages.)
  for (uint32_t i = 0; i < EffectiveRxRingLimitNow(); ++i) {
    if (q.rx_ring[i].posted) {
      continue;
    }
    if (PollDeadlineHit(q, start, "fill_rx")) {
      // Out of budget: leave the rest for the retry path instead of stalling
      // the caller on a slow map path.
      q.rx_needs_refill = true;
      break;
    }
    Status status = RefillSlot(q, queue, i);
    if (first.ok() && !status.ok()) {
      first = status;
    }
  }
  return first;
}

Status NicDriver::FillAllRxRings() {
  Status first = OkStatus();
  for (uint32_t q = 0; q < queues_.size(); ++q) {
    Status status = FillRxRing(q);
    if (first.ok() && !status.ok()) {
      first = status;
    }
  }
  return first;
}

Status NicDriver::RefillSlot(Queue& q, uint32_t queue, uint32_t index) {
  if (fault_ != nullptr && fault_->armed() &&
      fault_->ShouldInject(fault::FaultSite::kNicRxRefillStarve)) {
    return ResourceExhausted("injected: rx refill starvation");
  }
  // Ring work executes on the queue's IRQ CPU: IOVA magazine traffic for
  // this device stays CPU-local (the Linux rcache locality assumption).
  dma_.set_current_cpu(q.cpu);
  slab::PageFragPool* pool = skb_alloc_.frag_pool(q.cpu);
  if (pool == nullptr) {
    return FailedPrecondition("no page_frag pool for driver cpu");
  }
  Result<Kva> head =
      pool->Alloc(rx_buffer_bytes(), kSmpCacheBytes, q.name + "_alloc_rx_buf");
  if (!head.ok()) {
    return head.status();
  }
  // XDP programs may rewrite and retransmit the buffer, so XDP-enabled
  // drivers map RX buffers BIDIRECTIONAL — handing the device READ access to
  // the whole page on top of the usual WRITE (§5.1).
  const dma::DmaDirection rx_dir =
      config_.xdp ? dma::DmaDirection::kBidirectional : dma::DmaDirection::kFromDevice;
  const bool want_sync =
      dma_.service_mode(device_id_) == dma::ServiceMode::kBounceSync;
  if (want_sync && index >= std::min(SyncRingLimit(), EffectiveRxRingLimit())) {
    // Live demotion shrank the ring: slots past the sync clamp retire as
    // their completions land instead of being re-armed. Not an error — the
    // slot simply stays empty until a promotion grows the ring back.
    (void)pool->Free(*head);
    return OkStatus();
  }
  // Sync mode pins the buffer to one bounce slot for the ring's life;
  // trusted devices get the byte-identical MapSingle path.
  Result<Iova> iova =
      want_sync ? dma_.MapPersistent(device_id_, *head, rx_buffer_bytes(),
                                     rx_dir, q.name + "_map_rx")
                : dma_.MapSingle(device_id_, *head, rx_buffer_bytes(), rx_dir,
                                 q.name + "_map_rx");
  if (!iova.ok()) {
    (void)pool->Free(*head);
    return iova.status();
  }
  dma::BouncePool* bounce = dma_.bounce_pool();
  const bool sync_slot =
      want_sync && bounce != nullptr && bounce->Owns(device_id_, *iova);
  q.rx_ring[index] = RxSlot{true, *head, *iova, sync_slot};
  if (device_ != nullptr) {
    RxPostedDescriptor descriptor;
    descriptor.queue = queue;
    descriptor.index = index;
    descriptor.iova = *iova;
    descriptor.buf_len = rx_buffer_bytes();
    device_->OnRxPosted(descriptor);
  }
  return OkStatus();
}

void NicDriver::RefillSlotTolerant(Queue& q, uint32_t queue, uint32_t index) {
  Status status = RefillSlot(q, queue, index);
  if (status.ok()) {
    return;
  }
  // The ring runs one slot short; RetryRefills() will try again after the
  // backoff window instead of failing the completion that noticed it.
  ++q.rx_refill_failures;
  q.rx_needs_refill = true;
  q.refill_backoff_until = clock_.now() + kRefillRetryBackoffCycles;
}

uint32_t NicDriver::RetryRefills(uint32_t queue) {
  Queue& q = queues_[queue];
  if (!q.rx_needs_refill || clock_.now() < q.refill_backoff_until) {
    return 0;
  }
  const uint64_t start = clock_.now();
  uint32_t refilled = 0;
  bool failed = false;
  for (uint32_t i = 0; i < EffectiveRxRingLimitNow(); ++i) {
    if (q.rx_ring[i].posted) {
      continue;
    }
    if (PollDeadlineHit(q, start, "retry_refills")) {
      failed = true;  // budget spent: keep rx_needs_refill armed for later
      break;
    }
    Status status = RefillSlot(q, queue, i);
    if (!status.ok()) {
      ++q.rx_refill_failures;
      q.refill_backoff_until = clock_.now() + kRefillRetryBackoffCycles;
      failed = true;
      break;
    }
    ++refilled;
  }
  if (!failed) {
    q.rx_needs_refill = false;
  }
  if (refilled > 0) {
    EmitNicEvent(dma_.telemetry(), telemetry::EventKind::kFaultRecovered,
                 telemetry::Severity::kInfo, device_id_, refilled, this,
                 q.name + "_rx_refill_retry");
    if (dma_.telemetry().enabled()) {
      ++dma_.telemetry().counter("fault.recovered.rx_refill_retry");
    }
  }
  return refilled;
}

uint32_t NicDriver::RetryAllRefills() {
  uint32_t refilled = 0;
  for (uint32_t q = 0; q < queues_.size(); ++q) {
    refilled += RetryRefills(q);
  }
  return refilled;
}

Result<SkBuffPtr> NicDriver::DropRxFrame(uint32_t queue, uint32_t index,
                                         uint32_t pkt_len) {
  Queue& q = queues_[queue];
  RxSlot slot = q.rx_ring[index];
  q.rx_ring[index].posted = false;
  EmitNicEvent(dma_.telemetry(), telemetry::EventKind::kNicRxError,
               telemetry::Severity::kWarn, device_id_, pkt_len, this,
               q.name + "_rx_error");
  const dma::DmaDirection rx_dir =
      config_.xdp ? dma::DmaDirection::kBidirectional : dma::DmaDirection::kFromDevice;
  if (slot.sync_mode &&
      dma_.service_mode(device_id_) == dma::ServiceMode::kBounceSync) {
    // Degraded ring: scrub the bounce slot (so the dropped frame's bytes
    // cannot be replayed into the next completion) and re-arm it in place.
    (void)dma_.SyncSingleForDevice(device_id_, slot.iova, rx_buffer_bytes(),
                                   rx_dir);
    q.rx_ring[index] = slot;
    if (device_ != nullptr) {
      RxPostedDescriptor descriptor;
      descriptor.queue = queue;
      descriptor.index = index;
      descriptor.iova = slot.iova;
      descriptor.buf_len = rx_buffer_bytes();
      device_->OnRxPosted(descriptor);
    }
    return SkBuffPtr{};
  }
  if (config_.sync_only_rx && !slot.sync_mode) {
    // Page-reuse drivers keep the buffer and its (permanent) mapping: the
    // same slot is simply reposted.
    q.rx_ring[index] = slot;
    if (device_ != nullptr) {
      RxPostedDescriptor descriptor;
      descriptor.queue = queue;
      descriptor.index = index;
      descriptor.iova = slot.iova;
      descriptor.buf_len = rx_buffer_bytes();
      device_->OnRxPosted(descriptor);
    }
    return SkBuffPtr{};
  }
  SPV_RETURN_IF_ERROR(dma_.UnmapSingle(device_id_, slot.iova, rx_buffer_bytes(), rx_dir));
  slab::PageFragPool* pool = skb_alloc_.frag_pool(q.cpu);
  if (pool != nullptr) {
    SPV_RETURN_IF_ERROR(pool->Free(slot.head));
  }
  RefillSlotTolerant(q, queue, index);
  return SkBuffPtr{};
}

Result<SkBuffPtr> NicDriver::CompleteRx(uint32_t queue, uint32_t index, uint32_t pkt_len) {
  trace::ScopedSpan span(tracer_, "nic.complete_rx");
  if (queue >= queues_.size()) {
    return FailedPrecondition("RX completion on unknown queue");
  }
  Queue& q = queues_[queue];
  if (index >= q.rx_ring.size() || !q.rx_ring[index].posted) {
    return FailedPrecondition("RX completion on empty slot");
  }
  dma_.set_current_cpu(q.cpu);
  RetryRefills(queue);
  const bool faulting = fault_ != nullptr && fault_->armed();
  if (faulting && fault_->ShouldInject(fault::FaultSite::kNicDeviceStall)) {
    // The device went quiet for a while before delivering this completion;
    // everything time-based (TX watchdog, refill backoff) sees the gap.
    clock_.Advance(fault_->magnitude(fault::FaultSite::kNicDeviceStall,
                                     SimClock::MsToCycles(1)));
  }
  const uint32_t usable =
      rx_buffer_bytes() - static_cast<uint32_t>(SkbDataAlign(SharedInfoLayout::kSize));
  bool injected_bad_len = false;
  if (faulting && fault_->ShouldInject(fault::FaultSite::kNicDescWriteback)) {
    // Descriptor writeback corruption: the length field is device-supplied
    // garbage, exactly what a malfunctioning NIC would post.
    pkt_len = static_cast<uint32_t>(
        fault_->magnitude(fault::FaultSite::kNicDescWriteback, 0xdeadbeef));
    injected_bad_len = true;
  } else if (faulting && fault_->ShouldInject(fault::FaultSite::kNicRxTruncate)) {
    pkt_len = static_cast<uint32_t>(std::min<uint64_t>(
        pkt_len, fault_->magnitude(fault::FaultSite::kNicRxTruncate, pkt_len / 2)));
    injected_bad_len = pkt_len < PacketHeader::kSize || pkt_len > usable;
  }
  if (pkt_len < PacketHeader::kSize || pkt_len > usable) {
    if (injected_bad_len) {
      // Device-originated garbage: drop with accounting and recover the slot.
      ++q.rx_length_errors;
      return DropRxFrame(queue, index, pkt_len);
    }
    // Caller misuse: reject and leave the slot posted.
    return InvalidArgument("RX packet length out of bounds");
  }
  if (faulting && fault_->ShouldInject(fault::FaultSite::kNicRxDrop)) {
    ++q.rx_device_drops;
    return DropRxFrame(queue, index, pkt_len);
  }
  RxSlot slot = q.rx_ring[index];
  q.rx_ring[index].posted = false;
  if (slot.sync_mode) {
    // The device's bytes live in the bounce slot: pull the frame across the
    // sync boundary before anything (XDP, header parse) reads the kernel
    // buffer. Only pkt_len bytes cross — the measured cost of distrust.
    const dma::DmaDirection sync_dir = config_.xdp
                                           ? dma::DmaDirection::kBidirectional
                                           : dma::DmaDirection::kFromDevice;
    Status synced =
        dma_.SyncSingleForCpu(device_id_, slot.iova, pkt_len, sync_dir);
    if (!synced.ok()) {
      q.rx_ring[index] = slot;  // restore: DropRxFrame re-arms from the ring
      ++q.rx_device_drops;
      return DropRxFrame(queue, index, pkt_len);
    }
  }
  if (faulting && fault_->ShouldInject(fault::FaultSite::kNicRxCorrupt)) {
    // Payload corruption: scribble the on-wire header before the driver
    // parses it; the stack's length/parse checks must catch it.
    (void)kmem_.Fill(slot.head, PacketHeader::kSize, 0xFF);
  }

  auto build = [&]() -> Result<SkBuffPtr> {
    Result<SkBuffPtr> skb = skb_alloc_.BuildSkb(
        slot.head, rx_buffer_bytes(),
        OwnedBuffer{slot.head, BufSource::kPageFrag, q.cpu});
    if (!skb.ok()) {
      return skb.status();
    }
    (*skb)->len = pkt_len;
    Result<PacketHeader> header = ReadPacketHeader(kmem_, (*skb)->data);
    if (header.ok()) {
      (*skb)->header = *header;
      (*skb)->header_parsed = true;
    }
    return skb;
  };

  const dma::DmaDirection rx_dir =
      config_.xdp ? dma::DmaDirection::kBidirectional : dma::DmaDirection::kFromDevice;

  // XDP runs on the raw buffer while it is still mapped BIDIRECTIONAL — the
  // program may rewrite the packet in place (§5.1's zero-copy case).
  if (config_.xdp && xdp_program_ != nullptr) {
    const XdpVerdict verdict = xdp_program_->Run(kmem_, slot.head, pkt_len);
    if (verdict != XdpVerdict::kPass) {
      SPV_RETURN_IF_ERROR(
          dma_.UnmapSingle(device_id_, slot.iova, rx_buffer_bytes(), rx_dir));
      if (verdict == XdpVerdict::kDrop) {
        ++q.xdp_drops;
        EmitNicEvent(dma_.telemetry(), telemetry::EventKind::kXdpDrop,
                     telemetry::Severity::kInfo, device_id_, pkt_len, this,
                     q.name + "_xdp_drop");
        slab::PageFragPool* pool = skb_alloc_.frag_pool(q.cpu);
        if (pool != nullptr) {
          SPV_RETURN_IF_ERROR(pool->Free(slot.head));
        }
        SPV_RETURN_IF_ERROR(RefillSlot(q, queue, index));
        return SkBuffPtr{};
      }
      // XDP_TX: bounce the (possibly rewritten) packet straight back out.
      Result<SkBuffPtr> bounce = skb_alloc_.BuildSkb(
          slot.head, rx_buffer_bytes(),
          OwnedBuffer{slot.head, BufSource::kPageFrag, q.cpu});
      if (!bounce.ok()) {
        return bounce.status();
      }
      (*bounce)->len = pkt_len;
      Result<uint32_t> tx = PostTx(queue, std::move(*bounce));
      if (!tx.ok()) {
        return tx.status();
      }
      ++q.xdp_tx;
      EmitNicEvent(dma_.telemetry(), telemetry::EventKind::kXdpTx,
                   telemetry::Severity::kInfo, device_id_, pkt_len, this,
                   q.name + "_xdp_tx");
      SPV_RETURN_IF_ERROR(RefillSlot(q, queue, index));
      return SkBuffPtr{};
    }
  }

  Result<SkBuffPtr> skb = InvalidArgument("unreachable");
  if (slot.sync_mode &&
      dma_.service_mode(device_id_) == dma::ServiceMode::kBounceSync) {
    // Degraded ring (kBounceSync): the slot's bounce mapping is permanent,
    // so the frame is copybroken into a fresh buffer, the skb built from the
    // copy, and the same slot scrubbed + re-armed for the device. One copy
    // per frame, zero map/unmap churn, zero queued invalidations — the
    // untrusted device keeps serving at reduced, measured speed.
    slab::PageFragPool* pool = skb_alloc_.frag_pool(q.cpu);
    if (pool == nullptr) {
      return FailedPrecondition("no page_frag pool for driver cpu");
    }
    auto rearm = [&]() {
      (void)dma_.SyncSingleForDevice(device_id_, slot.iova, rx_buffer_bytes(),
                                     rx_dir);
      q.rx_ring[index] = slot;
      if (device_ != nullptr) {
        RxPostedDescriptor descriptor;
        descriptor.queue = queue;
        descriptor.index = index;
        descriptor.iova = slot.iova;
        descriptor.buf_len = rx_buffer_bytes();
        device_->OnRxPosted(descriptor);
      }
    };
    Result<Kva> copy = pool->Alloc(rx_buffer_bytes(), kSmpCacheBytes,
                                   q.name + "_sync_copybreak");
    if (!copy.ok()) {
      // No memory for the copy: drop the frame but keep the ring armed.
      rearm();
      ++q.rx_device_drops;
      return SkBuffPtr{};
    }
    Status copied = kmem_.Copy(*copy, slot.head, pkt_len);
    if (!copied.ok()) {
      (void)pool->Free(*copy);
      return copied;
    }
    Result<SkBuffPtr> built = skb_alloc_.BuildSkb(
        *copy, rx_buffer_bytes(), OwnedBuffer{*copy, BufSource::kPageFrag, q.cpu});
    if (!built.ok()) {
      (void)pool->Free(*copy);
      return built.status();
    }
    (*built)->len = pkt_len;
    Result<PacketHeader> header = ReadPacketHeader(kmem_, (*built)->data);
    if (header.ok()) {
      (*built)->header = *header;
      (*built)->header_parsed = true;
    }
    rearm();
    ++q.rx_packets;
    ++q.rx_sync_frames;
    EmitNicEvent(dma_.telemetry(), telemetry::EventKind::kNicRx,
                 telemetry::Severity::kInfo, device_id_, pkt_len, this,
                 q.name + "_rx_sync");
    return built;
  }
  if (slot.sync_mode) {
    // Promoted mid-flight: retire the persistent bounce slot through the
    // normal unmap path (the pool routes it) and let the refill below remap
    // the slot direct under the new trust state.
    SPV_RETURN_IF_ERROR(
        dma_.UnmapSingle(device_id_, slot.iova, rx_buffer_bytes(), rx_dir));
    skb = build();
  } else if (config_.sync_only_rx) {
    // Page-reuse drivers never unmap: ownership comes back via dma_sync, the
    // translation stays installed, and the device keeps WRITE access to the
    // skb's page forever (§9: "the whole page is accessible").
    SPV_RETURN_IF_ERROR(
        dma_.SyncSingleForCpu(device_id_, slot.iova, rx_buffer_bytes(), rx_dir));
    skb = build();
  } else if (config_.unmap_before_build) {
    // Correct DMA API usage: revoke first, then let the CPU initialize
    // skb_shared_info (Fig 7 path (ii)/(iii) — still attackable, but not via
    // a live mapping of this buffer).
    SPV_RETURN_IF_ERROR(
        dma_.UnmapSingle(device_id_, slot.iova, rx_buffer_bytes(), rx_dir));
    skb = build();
  } else {
    // i40e-like ordering (Fig 7 path (i)): sk_buff is built — including the
    // CPU's "legitimate" shared_info initialization — while the device still
    // has WRITE access. The device gets its race window, then we unmap.
    skb = build();
    if (device_ != nullptr) {
      device_->OnRxCompleting(queue, index);
    }
    SPV_RETURN_IF_ERROR(
        dma_.UnmapSingle(device_id_, slot.iova, rx_buffer_bytes(), rx_dir));
  }
  if (!skb.ok()) {
    return skb.status();
  }
  ++q.rx_packets;
  EmitNicEvent(dma_.telemetry(), telemetry::EventKind::kNicRx,
               telemetry::Severity::kInfo, device_id_, pkt_len, this,
               q.name + "_rx");
  // Linux refills opportunistically; we refill immediately to keep the ring
  // full (this is what makes consecutive ring buffers page-neighbours). A
  // failed refill must not lose the packet we already built — it arms the
  // retry backoff instead.
  RefillSlotTolerant(q, queue, index);
  return skb;
}

Result<uint32_t> NicDriver::PostTx(uint32_t queue, SkBuffPtr skb) {
  trace::ScopedSpan span(tracer_, "nic.post_tx");
  if (queue >= queues_.size()) {
    (void)skb_alloc_.FreeSkb(std::move(skb), nullptr);
    return FailedPrecondition("TX post on unknown queue");
  }
  Result<uint32_t> index = TryPostTx(queue, skb);
  if (!index.ok() && skb != nullptr) {
    // TryPostTx leaves the skb with the caller on failure; PostTx owns it, so
    // it is released here rather than leaked.
    (void)skb_alloc_.FreeSkb(std::move(skb), nullptr);
  }
  return index;
}

Result<uint32_t> NicDriver::TryPostTx(uint32_t queue, SkBuffPtr& skb) {
  Queue& q = queues_[queue];
  dma_.set_current_cpu(q.cpu);
  uint32_t index = 0;
  for (; index < q.tx_ring.size(); ++index) {
    if (!q.tx_ring[index].busy) {
      break;
    }
  }
  if (index == q.tx_ring.size()) {
    return ResourceExhausted("TX ring full");
  }
  TxSlot& slot = q.tx_ring[index];
  slot.busy = true;
  slot.linear_len = skb->linear_len();
  slot.post_cycle = clock_.now();

  Result<Iova> linear = dma_.MapSingle(device_id_, skb->data, slot.linear_len,
                                       dma::DmaDirection::kToDevice,
                                       q.name + "_xmit_linear");
  if (!linear.ok()) {
    slot = TxSlot{};
    return linear.status();
  }
  slot.linear_iova = *linear;

  // Map each fragment. The frag descriptors are read from the shared_info in
  // DEVICE-VISIBLE memory: whatever struct page pointers sit there — GRO's,
  // the TCP stack's, or an attacker's — get mapped for device READ.
  SharedInfoView shinfo{kmem_, skb->shared_info()};
  auto fail = [&](Status status) -> Result<uint32_t> {
    (void)UnmapTxSlot(q, slot);
    slot = TxSlot{};
    return status;
  };
  Result<uint8_t> nr_frags = shinfo.nr_frags();
  if (!nr_frags.ok()) {
    return fail(nr_frags.status());
  }
  for (uint8_t i = 0; i < *nr_frags; ++i) {
    Result<FragRef> frag = shinfo.frag(i);
    if (!frag.ok()) {
      return fail(frag.status());
    }
    Result<Pfn> pfn = kmem_.layout().StructPageKvaToPfn(frag->struct_page);
    if (!pfn.ok()) {
      // A corrupt frag page pointer would oops the real kernel; we surface it.
      return fail(InvalidArgument("TX frag with non-vmemmap struct page pointer"));
    }
    const Kva frag_kva =
        kmem_.layout().PhysToDirectMapKva(PhysAddr::FromPfn(*pfn, frag->page_offset));
    Result<Iova> frag_iova = dma_.MapSingle(device_id_, frag_kva, frag->size,
                                            dma::DmaDirection::kToDevice,
                                            q.name + "_xmit_frag");
    if (!frag_iova.ok()) {
      return fail(frag_iova.status());
    }
    slot.frags.push_back(TxFragMapping{*frag_iova, frag_kva, frag->size});
  }

  TxPostedDescriptor descriptor;
  descriptor.queue = queue;
  descriptor.index = index;
  descriptor.linear_iova = slot.linear_iova;
  descriptor.linear_len = slot.linear_len;
  for (const TxFragMapping& frag : slot.frags) {
    descriptor.frag_iovas.push_back(frag.iova);
    descriptor.frag_lens.push_back(frag.len);
  }
  slot.skb = std::move(skb);
  ++q.tx_packets;
  EmitNicEvent(dma_.telemetry(), telemetry::EventKind::kNicTx,
               telemetry::Severity::kInfo, device_id_, slot.linear_len, this,
               q.name + "_tx");
  if (device_ != nullptr) {
    device_->OnTxPosted(descriptor);
  }
  return index;
}

Status NicDriver::UnmapTxSlot(Queue& q, TxSlot& slot) {
  dma_.set_current_cpu(q.cpu);
  // Attempt every unmap even if one fails — an early return here would strand
  // the remaining frag mappings with no one left holding their IOVAs.
  Status first = dma_.UnmapSingle(device_id_, slot.linear_iova, slot.linear_len,
                                  dma::DmaDirection::kToDevice);
  for (const TxFragMapping& frag : slot.frags) {
    Status status =
        dma_.UnmapSingle(device_id_, frag.iova, frag.len, dma::DmaDirection::kToDevice);
    if (first.ok() && !status.ok()) {
      first = status;
    }
  }
  return first;
}

Result<SkBuffPtr> NicDriver::CompleteTx(uint32_t queue, uint32_t index) {
  trace::ScopedSpan span(tracer_, "nic.complete_tx");
  if (queue >= queues_.size()) {
    return FailedPrecondition("TX completion on unknown queue");
  }
  Queue& q = queues_[queue];
  if (index >= q.tx_ring.size() || !q.tx_ring[index].busy) {
    return FailedPrecondition("TX completion on empty slot");
  }
  if (fault_ != nullptr && fault_->armed() &&
      fault_->ShouldInject(fault::FaultSite::kNicTxCompletionLoss)) {
    // The completion never arrives: the slot stays busy (mappings and skb
    // intact) until the TX watchdog flushes it (§5.4's T/O path).
    return Unavailable("injected: TX completion lost");
  }
  TxSlot& slot = q.tx_ring[index];
  SPV_RETURN_IF_ERROR(UnmapTxSlot(q, slot));
  SkBuffPtr skb = std::move(slot.skb);
  slot = TxSlot{};
  return skb;
}

uint32_t NicDriver::CheckTxTimeout(uint32_t queue) {
  Queue& q = queues_[queue];
  uint32_t timed_out = 0;
  for (TxSlot& slot : q.tx_ring) {
    if (slot.busy && clock_.now() - slot.post_cycle > config_.tx_timeout_cycles) {
      ++timed_out;
    }
  }
  if (timed_out > 0) {
    // Queue reset: flush every pending TX buffer on THIS queue (siblings are
    // untouched, like netif_tx_stop_queue on one txq). Flushed skbs are
    // parked on the queue's bounded requeue list — not leaked.
    for (TxSlot& slot : q.tx_ring) {
      if (!slot.busy) {
        continue;
      }
      (void)UnmapTxSlot(q, slot);
      if (q.tx_requeue.size() < q.tx_ring.size()) {
        q.tx_requeue.push_back(PendingTx{std::move(slot.skb), 0});
      } else {
        ++q.tx_flush_drops;
        (void)skb_alloc_.FreeSkb(std::move(slot.skb), nullptr);
      }
      slot = TxSlot{};
    }
    ++q.tx_resets;
    EmitNicEvent(dma_.telemetry(), telemetry::EventKind::kNicTxReset,
                 telemetry::Severity::kWarn, device_id_, timed_out, this,
                 q.name + "_tx_timeout_reset");
  }
  return timed_out;
}

uint32_t NicDriver::CheckTxTimeout() {
  uint32_t timed_out = 0;
  for (uint32_t q = 0; q < queues_.size(); ++q) {
    timed_out += CheckTxTimeout(q);
  }
  return timed_out;
}

uint32_t NicDriver::RequeueTimedOut(uint32_t queue) {
  Queue& q = queues_[queue];
  const uint64_t start = clock_.now();
  uint32_t reposted = 0;
  while (!q.tx_requeue.empty()) {
    if (PollDeadlineHit(q, start, "requeue_timed_out")) {
      break;  // remaining skbs stay parked for the next poll
    }
    PendingTx pending = std::move(q.tx_requeue.front());
    q.tx_requeue.pop_front();
    Result<uint32_t> index = TryPostTx(queue, pending.skb);
    if (index.ok()) {
      ++reposted;
      EmitNicEvent(dma_.telemetry(), telemetry::EventKind::kFaultRecovered,
                   telemetry::Severity::kInfo, device_id_, *index, this,
                   q.name + "_tx_requeue");
      if (dma_.telemetry().enabled()) {
        ++dma_.telemetry().counter("fault.recovered.tx_requeue");
      }
      continue;
    }
    ++pending.attempts;
    if (pending.attempts >= kTxRequeueMaxAttempts) {
      ++q.tx_requeue_drops;
      (void)skb_alloc_.FreeSkb(std::move(pending.skb), nullptr);
      continue;
    }
    // Head-of-line: put it back and stop — the ring is presumably still full.
    q.tx_requeue.push_front(std::move(pending));
    break;
  }
  return reposted;
}

uint32_t NicDriver::RequeueTimedOut() {
  uint32_t reposted = 0;
  for (uint32_t q = 0; q < queues_.size(); ++q) {
    reposted += RequeueTimedOut(q);
  }
  return reposted;
}

Status NicDriver::Shutdown() {
  trace::ScopedSpan span(tracer_, "nic.shutdown");
  Status first = OkStatus();
  auto note = [&first](const Status& status) {
    if (first.ok() && !status.ok()) {
      first = status;
    }
  };
  const dma::DmaDirection rx_dir =
      config_.xdp ? dma::DmaDirection::kBidirectional : dma::DmaDirection::kFromDevice;
  for (Queue& q : queues_) {
    dma_.set_current_cpu(q.cpu);
    slab::PageFragPool* pool = skb_alloc_.frag_pool(q.cpu);
    for (RxSlot& slot : q.rx_ring) {
      if (!slot.posted) {
        continue;
      }
      note(dma_.UnmapSingle(device_id_, slot.iova, rx_buffer_bytes(), rx_dir));
      if (pool != nullptr) {
        note(pool->Free(slot.head));
      }
      slot = RxSlot{};
    }
    for (TxSlot& slot : q.tx_ring) {
      if (!slot.busy) {
        continue;
      }
      note(UnmapTxSlot(q, slot));
      note(skb_alloc_.FreeSkb(std::move(slot.skb), nullptr));
      slot = TxSlot{};
    }
    while (!q.tx_requeue.empty()) {
      note(skb_alloc_.FreeSkb(std::move(q.tx_requeue.front().skb), nullptr));
      q.tx_requeue.pop_front();
    }
    q.rx_needs_refill = false;
  }
  return first;
}

std::optional<Kva> NicDriver::RxSlotKva(uint32_t queue, uint32_t index) const {
  if (queue >= queues_.size()) {
    return std::nullopt;
  }
  const Queue& q = queues_[queue];
  if (index >= q.rx_ring.size() || !q.rx_ring[index].posted) {
    return std::nullopt;
  }
  return q.rx_ring[index].head;
}

std::optional<Iova> NicDriver::RxSlotIova(uint32_t queue, uint32_t index) const {
  if (queue >= queues_.size()) {
    return std::nullopt;
  }
  const Queue& q = queues_[queue];
  if (index >= q.rx_ring.size() || !q.rx_ring[index].posted) {
    return std::nullopt;
  }
  return q.rx_ring[index].iova;
}

uint32_t NicDriver::pending_tx() const {
  uint32_t count = 0;
  for (uint32_t q = 0; q < queues_.size(); ++q) {
    count += pending_tx(q);
  }
  return count;
}

uint32_t NicDriver::pending_tx(uint32_t queue) const {
  uint32_t count = 0;
  for (const TxSlot& slot : queues_[queue].tx_ring) {
    if (slot.busy) {
      ++count;
    }
  }
  return count;
}

size_t NicDriver::tx_requeue_depth() const {
  size_t depth = 0;
  for (const Queue& q : queues_) {
    depth += q.tx_requeue.size();
  }
  return depth;
}

Status NicDriver::AuditQueues() const {
  for (uint32_t qi = 0; qi < queues_.size(); ++qi) {
    const Queue& q = queues_[qi];
    for (uint32_t i = 0; i < q.rx_ring.size(); ++i) {
      const RxSlot& slot = q.rx_ring[i];
      if (!slot.posted) {
        continue;
      }
      std::optional<dma::DmaMapping> mapping = dma_.FindMapping(device_id_, slot.iova);
      if (!mapping.has_value()) {
        return Internal(q.name + " rx slot " + std::to_string(i) +
                        " posted but its IOVA has no live DMA mapping");
      }
      if (mapping->len != rx_buffer_bytes()) {
        return Internal(q.name + " rx slot " + std::to_string(i) +
                        " mapping length disagrees with the ring's buffer size");
      }
    }
    for (uint32_t i = 0; i < q.tx_ring.size(); ++i) {
      const TxSlot& slot = q.tx_ring[i];
      if (!slot.busy) {
        continue;
      }
      if (!dma_.FindMapping(device_id_, slot.linear_iova).has_value()) {
        return Internal(q.name + " tx slot " + std::to_string(i) +
                        " busy but its linear IOVA has no live DMA mapping");
      }
      for (const TxFragMapping& frag : slot.frags) {
        if (!dma_.FindMapping(device_id_, frag.iova).has_value()) {
          return Internal(q.name + " tx slot " + std::to_string(i) +
                          " has an unmapped frag IOVA");
        }
      }
    }
    if (q.tx_requeue.size() > q.tx_ring.size()) {
      return Internal(q.name + " requeue list exceeds its bound");
    }
  }
  return OkStatus();
}

}  // namespace spv::net
