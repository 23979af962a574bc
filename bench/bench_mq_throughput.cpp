// Multi-queue scaling: aggregate map/unmap and RX-echo throughput at
// 1/2/4/8 sim CPUs, in both exec modes.
//
// The denominator is SIMULATED time, not wall clock. Per-CPU sim clocks
// (ExecMode::kThreads) advance only for the work their own CPU performs —
// host lock waits and scheduler noise advance nothing — so "aggregate ops
// per million sim cycles" is a machine-independent scaling measure: with N
// CPUs doing the same per-CPU work, elapsed sim time (the per-CPU maximum)
// stays flat while total ops grow N-fold. kSequential runs the identical
// workload against the single shared clock, so its aggregate throughput
// stays flat with N — the contrast IS the scaling story.
//
// Workloads:
//   churn    per-CPU map+unmap pairs on per-CPU driverless devices: the
//            IOVA-magazine + sharded-flush-queue path, no rings involved.
//   rx_echo  RSS-steered RX inject + CompleteRx + skb free on a NIC with one
//            queue pair per CPU; each flow lands on the queue (and CPU) the
//            Toeplitz hash picks, so per-queue load follows real RSS balance.
//
// Strict invalidation keeps per-op costs deterministic in kSequential;
// kThreads numbers drift a little with thread interleaving (shared IOTLB and
// depot state), which the baseline gate's tolerance absorbs.
//
// Emits BENCH_mq_throughput.json for tools/check_bench_baseline.py. The
// headline keys are the 8-CPU kThreads scaling ratios (vs 1-CPU kThreads)
// and their parallel efficiency, plus the RSS min-share balance across 8
// queues (pure hash arithmetic, fully deterministic).
//
// Usage: bench_mq_throughput [--quick] [--out FILE]

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
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

// A benign multi-queue device model safe for kThreads: descriptors are kept
// per queue, and each queue is only ever touched by the host thread driving
// that queue's CPU (posting happens inside that thread's CompleteRx refill),
// so the per-queue deques need no locks. DMA goes through the (locked) IOMMU.
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
  std::string mode;  // "seq" | "threads"
  uint32_t cpus = 0;
  uint64_t ops = 0;
  uint64_t elapsed_sim_cycles = 0;  // max over CPUs: the sim wall clock
  double ops_per_mcycle = 0;
  double cycles_per_op = 0;
  // rx_echo only: per-queue completed packets (RSS balance in action).
  std::vector<uint64_t> queue_packets;
};

core::Machine MakeMachine(uint32_t cpus, ExecMode exec) {
  core::MachineConfig mc;
  mc.seed = 9;
  mc.phys_pages = 32768;
  mc.exec = exec;
  mc.iommu.mode = iommu::InvalidationMode::kStrict;
  mc.iommu.fast_path.num_cpus = cpus;
  return core::Machine{mc};
}

// Sim-time elapsed for a parallel phase: the per-CPU maximum of the clock
// deltas (in kSequential every CPU reads the one shared counter, so this
// degenerates to the plain before/after difference).
struct SimStopwatch {
  explicit SimStopwatch(core::Machine& machine, uint32_t cpus) : machine_(machine) {
    for (uint32_t c = 0; c < cpus; ++c) {
      before_.push_back(machine.clock().now_cpu(CpuId{c}));
    }
  }
  uint64_t Elapsed() const {
    uint64_t worst = 0;
    for (uint32_t c = 0; c < before_.size(); ++c) {
      const uint64_t delta = machine_.clock().now_cpu(CpuId{c}) - before_[c];
      if (delta > worst) {
        worst = delta;
      }
    }
    return worst;
  }
  core::Machine& machine_;
  std::vector<uint64_t> before_;
};

CaseResult RunChurn(uint32_t cpus, ExecMode exec, uint64_t ops_per_cpu) {
  core::Machine machine = MakeMachine(cpus, exec);
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

  SimStopwatch watch{machine, cpus};
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
  result.mode = exec == ExecMode::kThreads ? "threads" : "seq";
  result.cpus = cpus;
  result.ops = ops_per_cpu * cpus;
  result.elapsed_sim_cycles = watch.Elapsed();
  return result;
}

CaseResult RunRxEcho(uint32_t cpus, ExecMode exec, uint32_t rounds) {
  core::Machine machine = MakeMachine(cpus, exec);
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

  SimStopwatch watch{machine, cpus};
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
  result.mode = exec == ExecMode::kThreads ? "threads" : "seq";
  result.cpus = cpus;
  result.ops = driver.rx_packets();
  result.elapsed_sim_cycles = watch.Elapsed();
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
  w.BeginObject().Key("workload").String(r.workload).Key("mode").String(r.mode);
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
  std::map<std::pair<std::string, uint32_t>, double> threads_thr;
  for (const char* workload : {"churn", "rx_echo"}) {
    for (ExecMode exec : {ExecMode::kSequential, ExecMode::kThreads}) {
      for (uint32_t cpus : kCpuCounts) {
        CaseResult result = std::strcmp(workload, "churn") == 0
                                ? RunChurn(cpus, exec, churn_ops)
                                : RunRxEcho(cpus, exec, echo_rounds);
        Finish(result);
        if (exec == ExecMode::kThreads) {
          threads_thr[{result.workload, cpus}] = result.ops_per_mcycle;
        }
        std::cout << result.workload << " " << result.mode << " cpus=" << cpus << ": "
                  << result.ops << " ops / " << result.elapsed_sim_cycles
                  << " sim cycles = " << result.ops_per_mcycle << " ops/Mcycle\n";
        cases.push_back(std::move(result));
      }
    }
  }

  const double churn_scaling =
      threads_thr[{"churn", 8}] / threads_thr[{"churn", 1}];
  const double echo_scaling =
      threads_thr[{"rx_echo", 8}] / threads_thr[{"rx_echo", 1}];
  const double rss_min_share = RssMinShare();
  std::cout << "8-CPU kThreads scaling: churn " << churn_scaling << "x, rx_echo "
            << echo_scaling << "x (efficiency " << churn_scaling / 8 << " / "
            << echo_scaling / 8 << "), rss min share " << rss_min_share << "\n";

  json::Writer w;
  w.BeginObject().Key("benchmark").String("mq_throughput");
  w.Key("churn_scaling_8cpu_threads").Double(churn_scaling);
  w.Key("rx_echo_scaling_8cpu_threads").Double(echo_scaling);
  w.Key("churn_scaling_efficiency_8cpu").Double(churn_scaling / 8);
  w.Key("rx_echo_scaling_efficiency_8cpu").Double(echo_scaling / 8);
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
