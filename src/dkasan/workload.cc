#include "dkasan/workload.h"

#include <array>
#include <vector>

#include "base/rng.h"
#include "net/layouts.h"

namespace spv::dkasan {

namespace {

// Allocation sites and sizes mirroring Figure 3.
struct SitePattern {
  const char* site;
  uint64_t size;
};

constexpr std::array<SitePattern, 6> kBuildSites = {{
    {"load_elf_phdrs+0xbf/0x130", 512},
    {"__do_execve_file.isra.0+0x287/0x1080", 512},
    {"sock_alloc_inode+0x4f/0x120", 64},
    {"assoc_array_insert+0xa9/0x7e0", 328},
    {"__alloc_skb+0xe0/0x3f0", 512},
    {"getname_flags+0x4f/0x1e0", 4096},
}};

// Chance, per step, that the workload frees one more of its live objects.
constexpr double kFreeProbability = 0.6;

}  // namespace

Result<WorkloadStats> RunBuildAndPingWorkload(core::Machine& machine, net::NicDriver& nic,
                                              device::MaliciousNic& device,
                                              const WorkloadConfig& config) {
  trace::ScopedSpan span(machine.tracer(), "dkasan.workload.build_and_ping");
  WorkloadStats stats;
  Xoshiro256 rng{config.seed};
  std::vector<Kva> live;

  SPV_RETURN_IF_ERROR(nic.FillRxRing());
  machine.stack().set_egress(&nic);

  for (int i = 0; i < config.iterations; ++i) {
    // ---- "compile": bursts of metadata allocations --------------------------
    const int burst = 1 + static_cast<int>(rng.NextBelow(4));
    for (int b = 0; b < burst; ++b) {
      const SitePattern& pattern = kBuildSites[rng.NextBelow(kBuildSites.size())];
      Result<Kva> kva = machine.slab().Kmalloc(pattern.size, pattern.site);
      if (kva.ok()) {
        live.push_back(*kva);
        ++stats.allocs;
        // The "compiler" touches its data.
        (void)machine.kmem().WriteU64(*kva, 0x636f6d70696c65ULL);
      }
    }
    while (!live.empty() && rng.NextBool(kFreeProbability)) {
      const size_t victim = rng.NextBelow(live.size());
      if (machine.slab().Kfree(live[victim]).ok()) {
        ++stats.frees;
      }
      live[victim] = live.back();
      live.pop_back();
    }

    // ---- "ping": light RX traffic -------------------------------------------
    if (i % 3 == 0) {
      net::PacketHeader ping{.src_ip = 0x0a000002,
                             .dst_ip = machine.stack().config().local_ip,
                             .src_port = 0,
                             .dst_port = 7,  // echo
                             .proto = net::kProtoUdp,
                             .flags = 0,
                             .payload_len = 56,
                             .seq = static_cast<uint32_t>(i)};
      std::vector<uint8_t> payload(56, 0xa5);
      Result<uint32_t> index = device.InjectRx(ping, payload);
      if (index.ok()) {
        Result<net::SkBuffPtr> skb = nic.CompleteRx(
            *index, static_cast<uint32_t>(net::PacketHeader::kSize + payload.size()));
        if (skb.ok()) {
          ++stats.rx_packets;
          SPV_RETURN_IF_ERROR(machine.stack().NapiGroReceive(std::move(*skb)));
        }
      }
    }

    // ---- occasional TX (ping replies / build artifacts uploaded) ------------
    if (i % 7 == 0) {
      net::PacketHeader reply{.src_ip = machine.stack().config().local_ip,
                              .dst_ip = 0x0a000002,
                              .src_port = 7,
                              .dst_port = 0,
                              .proto = net::kProtoUdp};
      std::vector<uint8_t> payload(56, 0x5a);
      if (machine.stack().SendPacket(reply, payload).ok()) {
        ++stats.tx_packets;
      }
      // Complete any outstanding TX so the rings do not fill up.
      for (const net::TxPostedDescriptor& descriptor : device.tx_posted()) {
        (void)machine.stack().OnTxCompleted(descriptor.index);
      }
      device.tx_posted().clear();
    }
  }

  for (Kva kva : live) {
    (void)machine.slab().Kfree(kva);
  }
  return stats;
}

Result<WorkloadStats> RunRouterWorkload(core::Machine& machine, net::NicDriver& nic,
                                        device::MaliciousNic& device,
                                        const WorkloadConfig& config) {
  trace::ScopedSpan span(machine.tracer(), "dkasan.workload.router");
  if (!machine.stack().config().forwarding_enabled) {
    return FailedPrecondition("router workload needs forwarding enabled");
  }
  WorkloadStats stats;
  Xoshiro256 rng{config.seed};
  std::vector<Kva> conntrack;

  SPV_RETURN_IF_ERROR(nic.FillRxRing());
  machine.stack().set_egress(&nic);

  for (int i = 0; i < config.iterations; ++i) {
    // Connection tracking entries churn with the flows.
    if (rng.NextBool(0.5)) {
      Result<Kva> entry = machine.slab().Kmalloc(320, "nf_conntrack_alloc+0x1b0/0x5c0");
      if (entry.ok()) {
        conntrack.push_back(*entry);
        ++stats.allocs;
      }
    }
    while (!conntrack.empty() && rng.NextBool(kFreeProbability * 0.5)) {
      if (machine.slab().Kfree(conntrack.back()).ok()) {
        ++stats.frees;
      }
      conntrack.pop_back();
    }

    // A TCP segment of one of a few flows, destined elsewhere: forwarded.
    net::PacketHeader header{.src_ip = 0x0a000002,
                             .dst_ip = 0x0a0000f0 + static_cast<uint32_t>(rng.NextBelow(4)),
                             .src_port = static_cast<uint16_t>(50000 + rng.NextBelow(4)),
                             .dst_port = 443,
                             .proto = net::kProtoTcp,
                             .flags = 0,
                             .payload_len = 0,
                             .seq = static_cast<uint32_t>(i)};
    std::vector<uint8_t> payload(256 + rng.NextBelow(1024), 0x6e);
    Result<uint32_t> index = device.InjectRx(header, payload);
    if (index.ok()) {
      Result<net::SkBuffPtr> skb = nic.CompleteRx(
          *index, static_cast<uint32_t>(net::PacketHeader::kSize + payload.size()));
      if (skb.ok()) {
        ++stats.rx_packets;
        SPV_RETURN_IF_ERROR(machine.stack().NapiGroReceive(std::move(*skb)));
      }
    }
    if (i % 8 == 7) {
      SPV_RETURN_IF_ERROR(machine.stack().NapiComplete());
      for (const net::TxPostedDescriptor& descriptor : device.tx_posted()) {
        (void)machine.stack().OnTxCompleted(descriptor.index);
        ++stats.tx_packets;
      }
      device.tx_posted().clear();
    }
  }
  SPV_RETURN_IF_ERROR(machine.stack().NapiComplete());
  for (const net::TxPostedDescriptor& descriptor : device.tx_posted()) {
    (void)machine.stack().OnTxCompleted(descriptor.index);
    ++stats.tx_packets;
  }
  device.tx_posted().clear();
  for (Kva kva : conntrack) {
    (void)machine.slab().Kfree(kva);
  }
  return stats;
}

Result<WorkloadStats> RunStorageWorkload(core::Machine& machine, DeviceId storage_dev,
                                         const WorkloadConfig& config) {
  trace::ScopedSpan span(machine.tracer(), "dkasan.workload.storage");
  WorkloadStats stats;
  Xoshiro256 rng{config.seed};
  machine.iommu().AttachDevice(storage_dev);

  struct Inflight {
    Iova iova;
    Kva kva;
    uint64_t len;
  };
  std::vector<Inflight> inflight;
  std::vector<Kva> fs_meta;

  constexpr std::array<SitePattern, 4> kFsSites = {{
      {"alloc_inode+0x1a/0xa0", 600},
      {"d_alloc+0x29/0x1c0", 192},
      {"jbd2_journal_add_journal_head+0x15/0x120", 120},
      {"ext4_find_extent+0x44/0x2f0", 88},
  }};

  for (int i = 0; i < config.iterations; ++i) {
    // Filesystem metadata churn.
    const SitePattern& pattern = kFsSites[rng.NextBelow(kFsSites.size())];
    Result<Kva> meta = machine.slab().Kmalloc(pattern.size, pattern.site);
    if (meta.ok()) {
      fs_meta.push_back(*meta);
      ++stats.allocs;
    }
    while (!fs_meta.empty() && rng.NextBool(kFreeProbability)) {
      if (machine.slab().Kfree(fs_meta.back()).ok()) {
        ++stats.frees;
      }
      fs_meta.pop_back();
    }

    // NVMe I/O: PRP list (small kmalloc) + data buffer, mapped BIDIRECTIONAL.
    if (rng.NextBool(0.7)) {
      const uint64_t io_len = 512ull << rng.NextBelow(4);  // 512..4096
      Result<Kva> buf = machine.slab().Kmalloc(io_len, "nvme_map_data+0x90/0x230");
      if (buf.ok()) {
        ++stats.allocs;
        Result<Iova> iova =
            machine.dma().MapSingle(storage_dev, *buf, io_len,
                                    dma::DmaDirection::kBidirectional, "nvme_queue_rq");
        if (iova.ok()) {
          inflight.push_back(Inflight{*iova, *buf, io_len});
          ++stats.rx_packets;  // "I/Os submitted"
        } else {
          (void)machine.slab().Kfree(*buf);
        }
      }
    }
    // Completions.
    while (inflight.size() > 8 || (!inflight.empty() && rng.NextBool(0.4))) {
      const Inflight io = inflight.back();
      inflight.pop_back();
      (void)machine.dma().UnmapSingle(storage_dev, io.iova, io.len,
                                      dma::DmaDirection::kBidirectional);
      if (machine.slab().Kfree(io.kva).ok()) {
        ++stats.frees;
        ++stats.tx_packets;  // "I/Os completed"
      }
    }
  }
  for (const Inflight& io : inflight) {
    (void)machine.dma().UnmapSingle(storage_dev, io.iova, io.len,
                                    dma::DmaDirection::kBidirectional);
    (void)machine.slab().Kfree(io.kva);
  }
  for (Kva kva : fs_meta) {
    (void)machine.slab().Kfree(kva);
  }
  return stats;
}

}  // namespace spv::dkasan
