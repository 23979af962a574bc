// net_echo: UDP echo round trips through one 4-queue NicDriver on 4 sim
// CPUs (kSequential), with deferred invalidation and every observer off.
//
// Each op is one echo: the device model injects an RSS-steered UDP frame of
// 64-1363 payload bytes, then the driver completes it (CompleteRx), the stack
// receives it (NapiGroReceive + NapiComplete) and the echo service replies
// (replies above 512 B leave as page_frag frags), the device fetches the TX
// frame by DMA and the reply completes (OnTxCompleted). Every op must echo
// exactly once, with the payload it was sent.

#include <cstring>
#include <vector>

#include "base/rng.h"
#include "bench.h"
#include "device/device_port.h"
#include "device/malicious_nic.h"
#include "net/layouts.h"
#include "net/nic_driver.h"

namespace perfbench {

namespace {

using spv::Status;

constexpr uint64_t kMachineSeed = 1;
constexpr uint32_t kCpus = 4;
constexpr uint32_t kFlows = 256;
constexpr uint32_t kMinPayload = 64;
constexpr uint32_t kMaxPayload = 1363;
constexpr uint16_t kEchoPort = 7;
constexpr uint32_t kPeerIp = 0x0a000002;  // 10.0.0.2
constexpr uint32_t kWarmupOps = 2048;
constexpr uint64_t kPatternBytes = 64 * 1024;
constexpr uint64_t kPatternSalt = 0x4543'484f'5041'5921ull;

spv::core::MachineConfig EchoConfig() {
  spv::core::MachineConfig config;
  config.seed = kMachineSeed;
  config.iommu.mode = spv::iommu::InvalidationMode::kDeferred;
  config.iommu.fast_path.num_cpus = kCpus;
  return config;
}

spv::net::NicDriver::Config NicConfig() {
  spv::net::NicDriver::Config config;
  config.name = "nic0";
  config.num_queues = kCpus;  // queue q on CPU q
  return config;
}

class NetEcho : public OpWorkload {
 public:
  NetEcho(uint64_t seed, SpanRecorder& spans)
      : spans_(spans),
        machine_(EchoConfig()),
        driver_(machine_.AddNicDriver(NicConfig())),
        nic_(spv::device::DevicePort{machine_.iommu(), driver_.device_id()}),
        rng_(seed),
        pattern_(kPatternBytes) {
    spv::Xoshiro256 pattern_rng{seed ^ kPatternSalt};
    for (size_t i = 0; i < pattern_.size(); i += 8) {
      const uint64_t word = pattern_rng.Next();
      std::memcpy(pattern_.data() + i, &word, 8);
    }
    for (uint32_t f = 0; f < kFlows; ++f) {
      flow_ports_.push_back(static_cast<uint16_t>(1024 + rng_.NextBelow(60000)));
    }
  }

  Status Init() {
    driver_.AttachDevice(&nic_);
    machine_.stack().set_egress(&driver_);
    spv::Result<spv::Kva> socket = machine_.stack().CreateSocket(kEchoPort, true);
    if (!socket.ok()) {
      return socket.status();
    }
    SPV_RETURN_IF_ERROR(driver_.FillAllRxRings());
    for (uint32_t i = 0; i < kWarmupOps; ++i) {
      SPV_RETURN_IF_ERROR(RunOp(i));
    }
    return spv::OkStatus();
  }

  Status RunOp(uint64_t op) override {
    spv::net::PacketHeader header;
    uint32_t queue = 0;
    {
      Span span(spans_, SpanName::kBenchGen);
      const uint32_t len = static_cast<uint32_t>(
          kMinPayload + rng_.NextBelow(kMaxPayload - kMinPayload + 1));
      const uint64_t from = rng_.NextBelow(kPatternBytes - len + 1);
      payload_.assign(pattern_.begin() + from, pattern_.begin() + from + len);
      std::memcpy(payload_.data(), &op, sizeof(op));
      header = spv::net::PacketHeader{.src_ip = kPeerIp,
                                      .dst_ip = machine_.stack().config().local_ip,
                                      .src_port = flow_ports_[rng_.NextBelow(kFlows)],
                                      .dst_port = kEchoPort,
                                      .proto = spv::net::kProtoUdp,
                                      .payload_len = static_cast<uint16_t>(len),
                                      .seq = static_cast<uint32_t>(op)};
      queue = driver_.QueueForFlow(spv::net::FlowTuple{header.src_ip, header.dst_ip,
                                                       header.src_port, header.dst_port});
    }
    const uint32_t wire_len =
        static_cast<uint32_t>(spv::net::PacketHeader::kSize + payload_.size());
    const uint64_t echoed_before = machine_.stack().stats().echoed;

    spv::Result<spv::net::RxPostedDescriptor> posted = [&] {
      Span span(spans_, SpanName::kDeviceRxInject);
      return nic_.InjectRxOn(queue, header, payload_);
    }();
    if (!posted.ok()) {
      return posted.status();
    }
    spv::Result<spv::net::SkBuffPtr> skb = [&] {
      Span span(spans_, SpanName::kNetCompleteRx);
      return driver_.CompleteRx(queue, posted->index, wire_len);
    }();
    if (!skb.ok()) {
      return skb.status();
    }
    if (*skb == nullptr) {
      return spv::Internal("net_echo: driver dropped frame of op " + std::to_string(op));
    }
    {
      Span span(spans_, SpanName::kNetReceive);
      SPV_RETURN_IF_ERROR(machine_.stack().NapiGroReceive(std::move(*skb)));
      SPV_RETURN_IF_ERROR(machine_.stack().NapiComplete());
    }
    spv::net::TxPostedDescriptor tx;
    {
      Span span(spans_, SpanName::kDeviceTxFetch);
      if (nic_.tx_posted().size() != 1) {
        return spv::Internal("net_echo: op " + std::to_string(op) + " posted " +
                             std::to_string(nic_.tx_posted().size()) + " replies");
      }
      tx = std::move(nic_.tx_posted().front());
      nic_.tx_posted().clear();
      SPV_RETURN_IF_ERROR(FetchTx(tx));
    }
    {
      Span span(spans_, SpanName::kBenchCheck);
      if (machine_.stack().stats().echoed != echoed_before + 1 ||
          reply_.size() != spv::net::PacketHeader::kSize + payload_.size() ||
          std::memcmp(reply_.data() + spv::net::PacketHeader::kSize, payload_.data(),
                      payload_.size()) != 0) {
        return spv::Internal("net_echo: reply to op " + std::to_string(op) +
                             " is missing or differs from the request");
      }
    }
    {
      Span span(spans_, SpanName::kNetTxComplete);
      SPV_RETURN_IF_ERROR(machine_.stack().OnTxCompleted(tx.index));
    }
    ++echoes_;
    Span span(spans_, SpanName::kIommuTimer);
    machine_.iommu().ProcessDeferredTimer();
    return spv::OkStatus();
  }

  const spv::SimClock& clock() override { return machine_.clock(); }

  LayerCounters Counters() override {
    LayerCounters c;
    FillMachineCounters(machine_, driver_.device_id(), c);
    c.rx_failures =
        driver_.rx_refill_failures() + driver_.rx_device_drops() + driver_.rx_length_errors();
    c.skbs_allocated = machine_.skb_alloc().skbs_allocated();
    c.skbs_freed = machine_.skb_alloc().skbs_freed();
    return c;
  }

  Status Teardown() override {
    if (machine_.stack().stats().echoed != echoes_) {
      return spv::Internal("net_echo: stack echoed " +
                           std::to_string(machine_.stack().stats().echoed) + " of " +
                           std::to_string(echoes_) + " injected frames");
    }
    const uint64_t live_skbs =
        machine_.skb_alloc().skbs_allocated() - machine_.skb_alloc().skbs_freed();
    if (live_skbs != 0) {
      return spv::Internal("net_echo: " + std::to_string(live_skbs) + " skbs leaked");
    }
    SPV_RETURN_IF_ERROR(driver_.Shutdown());
    machine_.iommu().FlushNow();
    return machine_.CheckInvariants();
  }

 private:
  // The device's DMA read of the reply: linear part, then every frag.
  Status FetchTx(const spv::net::TxPostedDescriptor& tx) {
    reply_.resize(tx.linear_len);
    SPV_RETURN_IF_ERROR(nic_.port().Read(tx.linear_iova, reply_));
    for (size_t f = 0; f < tx.frag_iovas.size(); ++f) {
      const size_t at = reply_.size();
      reply_.resize(at + tx.frag_lens[f]);
      SPV_RETURN_IF_ERROR(nic_.port().Read(
          tx.frag_iovas[f], std::span<uint8_t>(reply_.data() + at, tx.frag_lens[f])));
    }
    return spv::OkStatus();
  }

  SpanRecorder& spans_;
  spv::core::Machine machine_;
  spv::net::NicDriver& driver_;
  spv::device::MaliciousNic nic_;  // used honestly: inject, then fetch replies
  spv::Xoshiro256 rng_;
  std::vector<uint8_t> pattern_;
  std::vector<uint16_t> flow_ports_;
  std::vector<uint8_t> payload_;
  std::vector<uint8_t> reply_;
  uint64_t echoes_ = 0;
};

}  // namespace

spv::Result<std::unique_ptr<OpWorkload>> MakeNetEcho(uint64_t seed, SpanRecorder& spans) {
  auto workload = std::make_unique<NetEcho>(seed, spans);
  SPV_RETURN_IF_ERROR(workload->Init());
  return std::unique_ptr<OpWorkload>(std::move(workload));
}

}  // namespace perfbench
