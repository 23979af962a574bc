// Multi-queue throughput: aggregate map/unmap and RX-echo throughput at
// 1/2/4/8 sim CPUs.
//
// The denominator is SIMULATED time, not wall clock: "aggregate ops per
// million sim cycles". Every sim CPU advances the one shared clock, and
// Machine::RunOnCpus runs the CPUs one after another, so aggregate
// throughput is flat with N by construction. It stays flat until the
// simulator keeps a deterministic clock per CPU and charges shared
// resources (invalidation queue, IOVA depot) for contention.
//
// Workloads:
//   churn    per-CPU map+unmap pairs on per-CPU driverless devices: the
//            IOVA-magazine path, no rings involved.
//   rx_echo  RSS-steered RX inject + CompleteRx + skb free on a NIC with one
//            queue pair per CPU; each flow lands on the queue (and CPU) the
//            Toeplitz hash picks, so per-queue load follows real RSS balance.
//
// Strict invalidation keeps deferred flush batches out of the per-op cost.
// Every case replays byte for byte, so the baseline gate runs at zero
// tolerance.
//
// Emits BENCH_mq_throughput.json for tools/check_bench_baseline.py: every
// case plus the RSS min-share balance across 8 queues (pure hash
// arithmetic).
//
// Usage: bench_mq_throughput [--quick] [--out FILE]

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/json.h"
#include "core/machine.h"
#include "device/device_port.h"
#include "net/layouts.h"
#include "net/nic_driver.h"
#include "net/rss.h"

using namespace spv;

namespace {

constexpr uint32_t kCpuCounts[] = {1, 2, 4, 8};
constexpr uint32_t kChurnDeviceBase = 800;

// A benign multi-queue device model: descriptors are kept per queue, and
// each queue is posted to by its own CPU's CompleteRx refill.
class BenchNicDevice : public net::NicDeviceModel {
 public:
  BenchNicDevice(iommu::Iommu& iommu, DeviceId id, uint32_t num_queues)
      : iommu_(iommu), id_(id), queues_(num_queues) {}

  void OnRxPosted(const net::RxPostedDescriptor& descriptor) override {
    queues_[descriptor.queue].push_back(descriptor);
  }
  void OnTxPosted(const net::TxPostedDescriptor&) override {}

  // DMA-writes header+payload into the oldest descriptor posted by `queue`
  // and returns its ring index.
  Result<uint32_t> InjectRxOn(uint32_t queue, const net::PacketHeader& header,
                              std::span<const uint8_t> payload) {
    auto& posted = queues_[queue];
    if (posted.empty()) {
      return Unavailable("no posted RX descriptors on queue");
    }
    const net::RxPostedDescriptor descriptor = posted.front();
    posted.erase(posted.begin());
    std::vector<uint8_t> wire(net::PacketHeader::kSize + payload.size());
    auto put32 = [&](uint64_t at, uint32_t v) { std::memcpy(wire.data() + at, &v, 4); };
    auto put16 = [&](uint64_t at, uint16_t v) { std::memcpy(wire.data() + at, &v, 2); };
    put32(net::PacketHeader::kSrcIp, header.src_ip);
    put32(net::PacketHeader::kDstIp, header.dst_ip);
    put16(net::PacketHeader::kSrcPort, header.src_port);
    put16(net::PacketHeader::kDstPort, header.dst_port);
    wire[net::PacketHeader::kProto] = header.proto;
    wire[net::PacketHeader::kFlags] = header.flags;
    put16(net::PacketHeader::kLen, static_cast<uint16_t>(payload.size()));
    put32(net::PacketHeader::kSeq, header.seq);
    std::copy(payload.begin(), payload.end(), wire.begin() + net::PacketHeader::kSize);
    SPV_RETURN_IF_ERROR(iommu_.DeviceWrite(id_, descriptor.iova, wire));
    return descriptor.index;
  }

 private:
  iommu::Iommu& iommu_;
  DeviceId id_;
  std::vector<std::vector<net::RxPostedDescriptor>> queues_;
};

struct CaseResult {
  std::string workload;
  uint32_t cpus = 0;
  uint64_t ops = 0;
  uint64_t elapsed_sim_cycles = 0;
  double ops_per_mcycle = 0;
  double cycles_per_op = 0;
  // rx_echo only: per-queue completed packets (RSS balance in action).
  std::vector<uint64_t> queue_packets;
};

core::Machine MakeMachine(uint32_t cpus) {
  core::MachineConfig mc;
  mc.seed = 9;
  mc.phys_pages = 32768;
  mc.iommu.mode = iommu::InvalidationMode::kStrict;
  mc.iommu.fast_path.num_cpus = cpus;
  return core::Machine{mc};
}

CaseResult RunChurn(uint32_t cpus, uint64_t ops_per_cpu) {
  core::Machine machine = MakeMachine(cpus);
  std::vector<Kva> bufs;
  for (uint32_t c = 0; c < cpus; ++c) {
    machine.iommu().AttachDevice(DeviceId{kChurnDeviceBase + c});
    bufs.push_back(*machine.slab().Kmalloc(2048, "bench_mq_buf"));
  }
  // Warm-up: one pair per CPU fills magazines and the walk cache so the
  // timed loop measures steady state.
  machine.RunOnCpus(cpus, [&](CpuId cpu) {
    const DeviceId dev{kChurnDeviceBase + cpu.value};
    auto iova = machine.dma().MapSingle(dev, bufs[cpu.value], 2048,
                                        dma::DmaDirection::kFromDevice, "bench_mq_warm");
    if (!iova.ok()) std::abort();
    if (!machine.dma().UnmapSingle(dev, *iova, 2048, dma::DmaDirection::kFromDevice).ok()) {
      std::abort();
    }
  });

  const uint64_t start = machine.clock().now();
  machine.RunOnCpus(cpus, [&](CpuId cpu) {
    const DeviceId dev{kChurnDeviceBase + cpu.value};
    for (uint64_t op = 0; op < ops_per_cpu; ++op) {
      auto iova = machine.dma().MapSingle(dev, bufs[cpu.value], 2048,
                                          dma::DmaDirection::kFromDevice, "bench_mq_loop");
      if (!iova.ok()) std::abort();
      if (!machine.dma().UnmapSingle(dev, *iova, 2048, dma::DmaDirection::kFromDevice).ok()) {
        std::abort();
      }
    }
  });

  CaseResult result;
  result.workload = "churn";
  result.cpus = cpus;
  result.ops = ops_per_cpu * cpus;
  result.elapsed_sim_cycles = machine.clock().now() - start;
  return result;
}

CaseResult RunRxEcho(uint32_t cpus, uint32_t rounds) {
  core::Machine machine = MakeMachine(cpus);
  net::NicDriver::Config config;
  config.name = "mqb";
  config.num_queues = cpus;
  config.rx_ring_size = 64;
  net::NicDriver& driver = machine.AddNicDriver(config);
  BenchNicDevice device{machine.iommu(), driver.device_id(), cpus};
  driver.AttachDevice(&device);
  if (!driver.FillAllRxRings().ok()) std::abort();

  // 64*cpus flows, assigned to queues by the driver's own RSS hash: per-queue
  // load is whatever Toeplitz balance gives, exactly as on real hardware.
  std::vector<std::vector<net::PacketHeader>> flows(cpus);
  for (uint32_t f = 0; f < 64 * cpus; ++f) {
    net::PacketHeader header{.src_ip = 0x0a000002,
                             .dst_ip = 0x0a000001,
                             .src_port = static_cast<uint16_t>(16384 + f),
                             .dst_port = 7,
                             .proto = net::kProtoUdp};
    const uint32_t queue = driver.QueueForFlow(net::FlowTuple{
        header.src_ip, header.dst_ip, header.src_port, header.dst_port});
    flows[queue].push_back(header);
  }
  const std::vector<uint8_t> payload(64, 0x5a);
  const auto wire_len =
      static_cast<uint32_t>(net::PacketHeader::kSize + payload.size());

  const uint64_t start = machine.clock().now();
  machine.RunOnCpus(cpus, [&](CpuId cpu) {
    const uint32_t queue = cpu.value;  // 1:1 queue:cpu in this bench
    for (uint32_t r = 0; r < rounds; ++r) {
      for (const net::PacketHeader& header : flows[queue]) {
        auto index = device.InjectRxOn(queue, header, payload);
        if (!index.ok()) std::abort();
        auto skb = driver.CompleteRx(queue, *index, wire_len);
        if (!skb.ok() || *skb == nullptr) std::abort();
        if (!machine.skb_alloc().FreeSkb(std::move(*skb), nullptr).ok()) std::abort();
      }
    }
  });

  CaseResult result;
  result.workload = "rx_echo";
  result.cpus = cpus;
  result.ops = driver.rx_packets();
  result.elapsed_sim_cycles = machine.clock().now() - start;
  for (uint32_t q = 0; q < cpus; ++q) {
    result.queue_packets.push_back(driver.rx_packets(q));
  }
  if (!driver.Shutdown().ok()) std::abort();
  return result;
}

void Finish(CaseResult& result) {
  if (result.elapsed_sim_cycles > 0) {
    result.ops_per_mcycle = static_cast<double>(result.ops) * 1e6 /
                            static_cast<double>(result.elapsed_sim_cycles);
    result.cycles_per_op = static_cast<double>(result.elapsed_sim_cycles) /
                           static_cast<double>(result.ops);
  }
}

void AppendCaseJson(json::Writer& w, const CaseResult& r) {
  w.BeginObject().Key("workload").String(r.workload).Key("mode").String("seq");
  w.Key("cpus").Uint(r.cpus).Key("fast_path").Bool(true).Key("ops").Uint(r.ops);
  w.Key("elapsed_sim_cycles").Uint(r.elapsed_sim_cycles);
  w.Key("ops_per_mcycle").Double(r.ops_per_mcycle);
  w.Key("sim_cycles_per_op").BeginObject().Key("mean").Double(r.cycles_per_op).EndObject();
  if (!r.queue_packets.empty()) {
    w.Key("queue_packets").BeginArray();
    for (const uint64_t packets : r.queue_packets) {
      w.Uint(packets);
    }
    w.EndArray();
  }
  w.EndObject();
}

// RSS balance across 8 queues over 4096 sequential-port flows: the smallest
// queue's share of a perfectly fair split. Pure Toeplitz arithmetic.
double RssMinShare() {
  const net::Rss rss{8};
  std::array<uint32_t, 8> counts{};
  for (uint32_t f = 0; f < 4096; ++f) {
    ++counts[rss.QueueFor(net::FlowTuple{0x0a000002, 0x0a000001,
                                         static_cast<uint16_t>(16384 + f), 7})];
  }
  uint32_t min = counts[0];
  for (uint32_t c : counts) {
    if (c < min) min = c;
  }
  return static_cast<double>(min) / (4096.0 / 8.0);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_mq_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_mq_throughput [--quick] [--out FILE]\n";
      return 2;
    }
  }
  const uint64_t churn_ops = quick ? 2000 : 20000;  // per CPU
  const uint32_t echo_rounds = quick ? 4 : 30;      // passes over each queue's flows

  std::vector<CaseResult> cases;
  for (const char* workload : {"churn", "rx_echo"}) {
    for (uint32_t cpus : kCpuCounts) {
      CaseResult result = std::strcmp(workload, "churn") == 0 ? RunChurn(cpus, churn_ops)
                                                              : RunRxEcho(cpus, echo_rounds);
      Finish(result);
      std::cout << result.workload << " seq cpus=" << cpus << ": " << result.ops << " ops / "
                << result.elapsed_sim_cycles << " sim cycles = " << result.ops_per_mcycle
                << " ops/Mcycle\n";
      cases.push_back(std::move(result));
    }
  }

  const double rss_min_share = RssMinShare();
  std::cout << "rss min share " << rss_min_share << "\n";

  json::Writer w;
  w.BeginObject().Key("benchmark").String("mq_throughput");
  w.Key("rss_balance_min_share").Double(rss_min_share).Key("cases").BeginArray();
  for (const CaseResult& r : cases) {
    AppendCaseJson(w, r);
  }
  std::ofstream file(out_path);
  if (!file) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  file << w.EndArray().EndObject().Take() << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
