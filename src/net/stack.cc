#include "net/stack.h"

#include <string_view>
#include <utility>

#include "mem/kernel_symbols.h"

namespace spv::net {

namespace {
// Modelled struct sock size: lands in the kmalloc-1024 class, the same class
// small TX data buffers come from — which is what co-locates sockets with
// I/O pages (type (d)).
constexpr uint64_t kSockObjectBytes = 680;
constexpr uint64_t kSkNetOffset = 8;  // sk->sk_net position within the object
// SendPacket puts larger payloads into frags.
constexpr uint32_t kLinearTxThreshold = 512;

// Stack milestones share one shape: a kind + packet length + free-form site.
void EmitStackEvent(telemetry::Hub& hub, telemetry::EventKind kind, uint64_t len,
                    const void* origin, std::string site) {
  if (!hub.active()) {
    return;
  }
  telemetry::Event event;
  event.kind = kind;
  event.severity = telemetry::Severity::kInfo;
  event.len = len;
  event.origin = origin;
  event.site = std::move(site);
  hub.Publish(event);
}

}  // namespace

NetworkStack::NetworkStack(dma::KernelMemory& kmem, slab::SlabAllocator& slab,
                           SkbAllocator& skb_alloc, Config config)
    : kmem_(kmem),
      slab_(slab),
      skb_alloc_(skb_alloc),
      config_(config),
      gro_(kmem, skb_alloc),
      init_net_(kmem.layout().SymbolKva(mem::kSymInitNet)) {
  static constexpr std::pair<std::string_view, StatCounter Stats::*> kStatNames[] = {
      {"stack.rx_delivered", &Stats::rx_delivered},
      {"stack.rx_forwarded", &Stats::rx_forwarded},
      {"stack.rx_dropped", &Stats::rx_dropped},
      {"stack.rx_length_errors", &Stats::rx_length_errors},
      {"stack.tx_sent", &Stats::tx_sent},
      {"stack.echoed", &Stats::echoed},
      {"stack.tx_shed", &Stats::tx_shed},
  };
  telemetry::Hub& hub = slab_.telemetry();
  for (const auto& [name, tally] : kStatNames) {
    links_.push_back(hub.Link(name, stats_.*tally));
  }
}

Result<Kva> NetworkStack::CreateSocket(uint16_t port, bool echo) {
  if (sockets_.contains(port)) {
    return AlreadyExists("port already bound");
  }
  Result<Kva> object = slab_.Kmalloc(kSockObjectBytes, "sock_alloc_inode+0x4f/0x120");
  if (!object.ok()) {
    return object.status();
  }
  // sk->sk_net = &init_net — the pointer §2.4's scan looks for.
  SPV_RETURN_IF_ERROR(kmem_.WriteU64(*object + kSkNetOffset, init_net_.value));
  // sk->sk_node list head, self-initialized: a direct-map pointer whose
  // upper bits reveal page_offset_base (1 GiB alignment, §2.4).
  SPV_RETURN_IF_ERROR(kmem_.WriteU64(*object + 16, (*object + 16).value));
  sockets_[port] = Socket{*object, echo};
  return *object;
}

Status NetworkStack::NapiGroReceive(SkBuffPtr skb) {
  trace::ScopedSpan span(tracer_, "stack.rx");
  Result<SkBuffPtr> out = gro_.Receive(std::move(skb));
  if (!out.ok()) {
    return out.status();
  }
  if (*out) {
    return Deliver(std::move(*out));
  }
  return OkStatus();
}

Status NetworkStack::NapiComplete() {
  for (SkBuffPtr& skb : gro_.FlushAll()) {
    SPV_RETURN_IF_ERROR(Deliver(std::move(skb)));
  }
  return OkStatus();
}

Status NetworkStack::Deliver(SkBuffPtr skb) {
  telemetry::Hub& hub = slab_.telemetry();
  if (!skb->header_parsed) {
    Drop(skb->len, "unparseable header");
    return FreeSkb(std::move(skb));
  }
  // A header claiming more payload than the skb holds is device-originated
  // garbage (truncated frame, corrupt length field): reading it would walk
  // past the buffer. GRO only grows skb->len, so a merged skb never trips it.
  if (PacketHeader::kSize + uint64_t{skb->header.payload_len} > skb->len) {
    ++stats_.rx_length_errors;
    Drop(skb->len, "payload_len over-claims skb length");
    return FreeSkb(std::move(skb));
  }
  if (skb->header.dst_ip == config_.local_ip) {
    auto it = sockets_.find(skb->header.dst_port);
    if (it == sockets_.end()) {
      Drop(skb->len, "no socket bound");
      return FreeSkb(std::move(skb));
    }
    ++stats_.rx_delivered;
    EmitStackEvent(hub, telemetry::EventKind::kStackDeliver, skb->len, this,
                   "local delivery");
    if (it->second.echo) {
      SPV_RETURN_IF_ERROR(Echo(*skb));
      ++stats_.echoed;
      EmitStackEvent(hub, telemetry::EventKind::kStackEcho, skb->len, this, "echo service");
    }
    return FreeSkb(std::move(skb));
  }
  if (config_.forwarding_enabled && egress_ != nullptr) {
    return Forward(std::move(skb));
  }
  Drop(skb->len, "not local, forwarding off");
  return FreeSkb(std::move(skb));
}

void NetworkStack::Drop(uint64_t len, std::string reason) {
  ++stats_.rx_dropped;
  EmitStackEvent(slab_.telemetry(), telemetry::EventKind::kStackDrop, len, this,
                 std::move(reason));
}

void NetworkStack::Shed(uint64_t len, std::string_view path) {
  ++stats_.tx_shed;
  EmitStackEvent(slab_.telemetry(), telemetry::EventKind::kStackDrop, len, this,
                 std::string("egress revoked: ") + std::string(path));
}

Status NetworkStack::Forward(SkBuffPtr skb) {
  // ip_forward: the RX skb goes straight back out. Its shared_info — frags
  // filled by GRO, destructor_arg still device-reachable — is now mapped for
  // device READ by the egress driver.
  const uint64_t len = skb->len;
  Result<uint32_t> index = egress_->PostTx(std::move(skb));
  if (!index.ok()) {
    if (index.status().code() == StatusCode::kRevoked) {
      // The egress device is quarantined: shed the packet (PostTx already
      // freed the skb) and keep the RX path alive.
      Shed(len, "ip_forward");
      return OkStatus();
    }
    return index.status();
  }
  ++stats_.rx_forwarded;
  EmitStackEvent(slab_.telemetry(), telemetry::EventKind::kStackForward, 0, this,
                 "ip_forward");
  return OkStatus();
}

Result<std::vector<uint8_t>> NetworkStack::ReadPayload(const SkBuff& skb) {
  std::vector<uint8_t> payload;
  const uint32_t linear_payload = skb.linear_len() - PacketHeader::kSize;
  payload.resize(linear_payload);
  SPV_RETURN_IF_ERROR(
      kmem_.Read(skb.data + PacketHeader::kSize, std::span<uint8_t>(payload)));

  SharedInfoView shinfo{kmem_, skb.shared_info()};
  Result<uint8_t> nr_frags = shinfo.nr_frags();
  if (!nr_frags.ok()) {
    return nr_frags.status();
  }
  for (uint8_t i = 0; i < *nr_frags; ++i) {
    Result<FragRef> frag = shinfo.frag(i);
    if (!frag.ok()) {
      return frag.status();
    }
    Result<Pfn> pfn = kmem_.layout().StructPageKvaToPfn(frag->struct_page);
    if (!pfn.ok()) {
      return pfn.status();
    }
    const Kva frag_kva =
        kmem_.layout().PhysToDirectMapKva(PhysAddr::FromPfn(*pfn, frag->page_offset));
    const size_t old_size = payload.size();
    payload.resize(old_size + frag->size);
    SPV_RETURN_IF_ERROR(kmem_.Read(
        frag_kva, std::span<uint8_t>(payload.data() + old_size, frag->size)));
  }
  return payload;
}

Status NetworkStack::Echo(const SkBuff& skb) {
  Result<std::vector<uint8_t>> payload = ReadPayload(skb);
  if (!payload.ok()) {
    return payload.status();
  }
  PacketHeader reply = skb.header;
  std::swap(reply.src_ip, reply.dst_ip);
  std::swap(reply.src_port, reply.dst_port);
  reply.payload_len = static_cast<uint16_t>(payload->size());
  return SendPacket(reply, *payload);
}

Status NetworkStack::SendPacket(const PacketHeader& header, std::span<const uint8_t> payload) {
  trace::ScopedSpan span(tracer_, "stack.tx");
  if (egress_ == nullptr) {
    return FailedPrecondition("no egress driver");
  }
  const bool use_frags = payload.size() > kLinearTxThreshold;
  const uint32_t linear_payload =
      use_frags ? 0 : static_cast<uint32_t>(payload.size());

  Result<SkBuffPtr> skb =
      skb_alloc_.AllocSkb(PacketHeader::kSize + linear_payload, "tcp_sendmsg+0x2d0/0x800");
  if (!skb.ok()) {
    return skb.status();
  }
  (*skb)->len = PacketHeader::kSize + linear_payload;
  (*skb)->header = header;
  (*skb)->header_parsed = true;
  SPV_RETURN_IF_ERROR(WritePacketHeader(kmem_, (*skb)->data, header));
  if (linear_payload > 0) {
    SPV_RETURN_IF_ERROR(
        kmem_.Write((*skb)->data + PacketHeader::kSize, payload.first(linear_payload)));
  }

  if (use_frags) {
    // sendmsg with a large payload: data lands in page-frag pages referenced
    // by frags[] — the exact shape of Figure 8. Under DAMN the pages come
    // from the dedicated I/O region instead.
    const bool damn = skb_alloc_.damn_pool() != nullptr;
    const CpuId frag_cpu = damn ? SkbAllocator::kDamnPoolCpu : CpuId{0};
    slab::PageFragPool* pool =
        damn ? skb_alloc_.damn_pool() : skb_alloc_.frag_pool(CpuId{0});
    if (pool == nullptr) {
      return FailedPrecondition("no page_frag pool for TX frags");
    }
    size_t done = 0;
    while (done < payload.size()) {
      const size_t chunk = std::min<size_t>(payload.size() - done, kPageSize / 2);
      Result<Kva> buf = pool->Alloc(chunk, kSmpCacheBytes, "skb_page_frag_refill");
      if (!buf.ok()) {
        return buf.status();
      }
      SPV_RETURN_IF_ERROR(kmem_.Write(*buf, payload.subspan(done, chunk)));
      Result<PhysAddr> phys = kmem_.layout().DirectMapKvaToPhys(*buf);
      if (!phys.ok()) {
        return phys.status();
      }
      FragRef frag{kmem_.layout().StructPageKva(phys->pfn()),
                   static_cast<uint32_t>(phys->page_offset()), static_cast<uint32_t>(chunk)};
      SPV_RETURN_IF_ERROR(skb_alloc_.AddFrag(
          **skb, frag, OwnedBuffer{*buf, BufSource::kPageFrag, frag_cpu}));
      done += chunk;
    }
  }

  Result<uint32_t> index = egress_->PostTx(std::move(*skb));
  if (!index.ok()) {
    if (index.status().code() == StatusCode::kRevoked) {
      Shed(payload.size(), "sendmsg");
      return OkStatus();
    }
    return index.status();
  }
  ++stats_.tx_sent;
  EmitStackEvent(slab_.telemetry(), telemetry::EventKind::kStackSend, payload.size(), this,
                 use_frags ? "sendmsg (frags)" : "sendmsg (linear)");
  return OkStatus();
}

Status NetworkStack::OnTxCompleted(uint32_t tx_index) {
  trace::ScopedSpan span(tracer_, "stack.tx_complete");
  if (egress_ == nullptr) {
    return FailedPrecondition("no egress driver");
  }
  Result<SkBuffPtr> skb = egress_->CompleteTx(tx_index);
  if (!skb.ok()) {
    return skb.status();
  }
  return FreeSkb(std::move(*skb));
}

Status NetworkStack::FreeSkb(SkBuffPtr skb) {
  return skb_alloc_.FreeSkb(std::move(skb), invoker_);
}

}  // namespace spv::net
