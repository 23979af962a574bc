// Tests for the multi-queue leg: RSS Toeplitz hashing against the published
// verification vectors, per-queue RX/TX rings and their NAPI poll budgets,
// Machine::RunOnCpus over several sim CPUs, quarantine fencing across
// sibling queues, and the soak harness's cross-CPU race scenarios
// (stale-IOTLB replay steered to another CPU's queue, quarantine racing an
// in-flight sibling completion).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "base/exec.h"
#include "core/machine.h"
#include "device/malicious_nic.h"
#include "net/nic_driver.h"
#include "net/rss.h"
#include "soak/soak.h"

namespace spv::net {
namespace {

// ---- RSS / Toeplitz --------------------------------------------------------------

// The NDIS RSS verification suite key (also the library's default key).
constexpr std::array<uint8_t, Rss::kKeyBytes> kVerificationKey = {
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
    0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
    0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
    0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa};

struct RssVector {
  FlowTuple tuple;
  uint32_t tcp_hash;  // hash over (src ip, dst ip, src port, dst port)
  uint32_t ip_hash;   // hash over (src ip, dst ip)
};

// The five IPv4 rows of the Microsoft RSS verification suite.
constexpr RssVector kVectors[] = {
    {{0x420995bb, 0xa18e6450, 2794, 1766}, 0x51ccc178, 0x323e8fc2},
    {{0xc75c6f02, 0x41458c53, 14230, 4739}, 0xc626b0ea, 0xd718262a},
    {{0x1813c65f, 0x0c16cfb8, 12898, 38024}, 0x5c2b394a, 0xd2d0a5de},
    {{0x261bcd1e, 0xd18ea306, 48228, 2217}, 0xafc7327f, 0x82989176},
    {{0x9927a3bf, 0xcabc7f02, 44251, 1303}, 0x10e828a2, 0x5d1809c5},
};

TEST(RssTest, ToeplitzMatchesVerificationVectors) {
  const Rss rss{4};  // default key = verification key
  for (const RssVector& v : kVectors) {
    EXPECT_EQ(rss.Hash(v.tuple), v.tcp_hash)
        << "src=" << std::hex << v.tuple.src_ip << " dst=" << v.tuple.dst_ip;
    // IPv4-only variant: the same hash over just the 8 address bytes.
    const std::array<uint8_t, 8> addrs = {
        static_cast<uint8_t>(v.tuple.src_ip >> 24),
        static_cast<uint8_t>(v.tuple.src_ip >> 16),
        static_cast<uint8_t>(v.tuple.src_ip >> 8),
        static_cast<uint8_t>(v.tuple.src_ip),
        static_cast<uint8_t>(v.tuple.dst_ip >> 24),
        static_cast<uint8_t>(v.tuple.dst_ip >> 16),
        static_cast<uint8_t>(v.tuple.dst_ip >> 8),
        static_cast<uint8_t>(v.tuple.dst_ip),
    };
    EXPECT_EQ(Rss::Toeplitz(addrs, kVerificationKey), v.ip_hash);
  }
}

TEST(RssTest, IndirectionTableSeededRoundRobin) {
  const Rss rss{4};
  EXPECT_EQ(rss.num_queues(), 4u);
  for (size_t i = 0; i < Rss::kTableSize; ++i) {
    EXPECT_EQ(rss.indirection_table()[i], i % 4);
  }
}

TEST(RssTest, SteeringCoversAndBalancesQueues) {
  const Rss rss{4};
  std::map<uint32_t, uint32_t> counts;
  for (uint16_t port = 0; port < 512; ++port) {
    const uint32_t queue =
        rss.QueueFor(FlowTuple{0x0a000002, 0x0a000001, static_cast<uint16_t>(20000 + port), 7});
    ASSERT_LT(queue, 4u);
    ++counts[queue];
  }
  // Toeplitz spreads sequential ports well; every queue takes a real share
  // (perfectly fair would be 128 each — require at least half of that).
  for (uint32_t q = 0; q < 4; ++q) {
    EXPECT_GE(counts[q], 64u) << "queue " << q;
  }
}

TEST(RssTest, SameFlowAlwaysSameQueue) {
  const Rss rss{8};
  const FlowTuple tuple{0xc0a80101, 0xc0a80102, 40000, 443};
  const uint32_t first = rss.QueueFor(tuple);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(rss.QueueFor(tuple), first);
  }
}

// ---- Multi-queue driver ----------------------------------------------------------

class MqFixture : public ::testing::Test {
 protected:
  static core::MachineConfig MakeConfig(uint32_t num_cpus) {
    core::MachineConfig config;
    config.seed = 2026;
    config.iommu.mode = iommu::InvalidationMode::kStrict;
    config.iommu.fast_path.num_cpus = num_cpus;
    return config;
  }

  net::NicDriver& MakeDriver(core::Machine& machine, uint32_t num_queues,
                             uint32_t ring = 8, uint64_t poll_deadline_cycles = 0) {
    NicDriver::Config config;
    config.name = "mqnic";
    config.num_queues = num_queues;
    config.rx_ring_size = ring;
    if (poll_deadline_cycles != 0) {
      config.poll_deadline_cycles = poll_deadline_cycles;
    }
    NicDriver& driver = machine.AddNicDriver(config);
    device_ = std::make_unique<device::MaliciousNic>(
        device::DevicePort{machine.iommu(), driver.device_id()});
    driver.AttachDevice(device_.get());
    return driver;
  }

  std::unique_ptr<device::MaliciousNic> device_;
};

TEST_F(MqFixture, FillAllRxRingsPostsEveryQueue) {
  core::Machine machine{MakeConfig(4)};
  NicDriver& driver = MakeDriver(machine, 4);
  ASSERT_TRUE(driver.FillAllRxRings().ok());
  EXPECT_EQ(driver.num_queues(), 4u);
  EXPECT_EQ(device_->rx_posted().size(), 32u);  // 4 queues x 8 slots
  // Descriptors carry their queue; each queue contributed its full ring.
  std::map<uint32_t, uint32_t> per_queue;
  for (const RxPostedDescriptor& descriptor : device_->rx_posted()) {
    ++per_queue[descriptor.queue];
  }
  for (uint32_t q = 0; q < 4; ++q) {
    EXPECT_EQ(per_queue[q], 8u) << "queue " << q;
    EXPECT_EQ(driver.queue_cpu(q).value, q);  // default spread: cpu + q
  }
  EXPECT_TRUE(driver.AuditQueues().ok());
  EXPECT_TRUE(machine.CheckInvariants().ok());
  ASSERT_TRUE(driver.Shutdown().ok());
}

TEST_F(MqFixture, RssSteeredCompletionLandsOnItsQueue) {
  core::Machine machine{MakeConfig(4)};
  NicDriver& driver = MakeDriver(machine, 4);
  ASSERT_TRUE(driver.FillAllRxRings().ok());

  for (uint16_t port = 1000; port < 1016; ++port) {
    const PacketHeader header{.src_ip = 0x0a000002,
                              .dst_ip = 0x0a000001,
                              .src_port = port,
                              .dst_port = 7,
                              .proto = kProtoUdp};
    const uint32_t queue = driver.QueueForFlow(
        FlowTuple{header.src_ip, header.dst_ip, header.src_port, header.dst_port});
    std::vector<uint8_t> payload(32, 0x5a);
    const uint64_t before = driver.rx_packets(queue);
    Result<RxPostedDescriptor> descriptor = device_->InjectRxOn(queue, header, payload);
    ASSERT_TRUE(descriptor.ok());
    EXPECT_EQ(descriptor->queue, queue);
    Result<SkBuffPtr> skb = driver.CompleteRx(
        queue, descriptor->index,
        static_cast<uint32_t>(PacketHeader::kSize + payload.size()));
    ASSERT_TRUE(skb.ok());
    ASSERT_NE(*skb, nullptr);
    EXPECT_EQ((*skb)->header.src_port, port);
    EXPECT_EQ(driver.rx_packets(queue), before + 1);
    ASSERT_TRUE(machine.skb_alloc().FreeSkb(std::move(*skb), nullptr).ok());
  }
  // Aggregate accessor sums what the per-queue counters recorded.
  uint64_t total = 0;
  for (uint32_t q = 0; q < 4; ++q) {
    total += driver.rx_packets(q);
  }
  EXPECT_EQ(driver.rx_packets(), total);
  EXPECT_EQ(driver.rx_packets(), 16u);
  EXPECT_TRUE(machine.CheckInvariants().ok());
  ASSERT_TRUE(driver.Shutdown().ok());
}

TEST_F(MqFixture, LegacySingleQueueApiDelegatesToQueueZero) {
  core::Machine machine{MakeConfig(1)};
  NicDriver& driver = MakeDriver(machine, 1);
  ASSERT_TRUE(driver.FillRxRing().ok());
  EXPECT_EQ(driver.num_queues(), 1u);
  EXPECT_EQ(driver.queue_cpu(0).value, 0u);
  ASSERT_TRUE(driver.RxSlotKva(0).has_value());
  EXPECT_EQ(driver.RxSlotKva(0), driver.RxSlotKva(0, 0));
  EXPECT_EQ(driver.RxSlotIova(3), driver.RxSlotIova(0, 3));
  EXPECT_EQ(driver.rx_packets(), driver.rx_packets(0));
  ASSERT_TRUE(driver.Shutdown().ok());
}

// The satellite-4 regression: the NAPI poll deadline is a PER-QUEUE budget.
// With the old per-device accounting, queue 0 exhausting the budget during a
// device-wide fill pass left every sibling queue with zero posted slots.
TEST_F(MqFixture, PollDeadlineIsPerQueueNotPerDevice) {
  core::Machine machine{MakeConfig(2)};
  // A 1-cycle budget: the first slot's map cost alone exceeds it, so each
  // queue can post exactly one slot per fill pass — but only if each queue's
  // budget restarts when its own fill starts.
  NicDriver& driver = MakeDriver(machine, 2, /*ring=*/8, /*poll_deadline_cycles=*/1);
  ASSERT_TRUE(driver.FillAllRxRings().ok());
  for (uint32_t q = 0; q < 2; ++q) {
    EXPECT_TRUE(driver.RxSlotIova(q, 0).has_value()) << "queue " << q << " starved";
    EXPECT_GE(driver.poll_deadline_hits(q), 1u) << "queue " << q;
  }
  EXPECT_EQ(driver.poll_deadline_hits(),
            driver.poll_deadline_hits(0) + driver.poll_deadline_hits(1));
  ASSERT_TRUE(driver.Shutdown().ok());
}

TEST_F(MqFixture, QuarantineFencesAllQueues) {
  core::MachineConfig config = MakeConfig(2);
  config.recovery.enabled = true;
  core::Machine machine{config};
  NicDriver& driver = MakeDriver(machine, 2);
  ASSERT_TRUE(driver.FillAllRxRings().ok());

  // A flow is in flight on queue 1 when the fence comes down.
  const PacketHeader header{.src_ip = 0x0a000002, .dst_ip = 0x0a000001,
                            .src_port = 31337, .dst_port = 7, .proto = kProtoUdp};
  std::vector<uint8_t> payload(48, 0x33);
  Result<RxPostedDescriptor> descriptor = device_->InjectRxOn(1, header, payload);
  ASSERT_TRUE(descriptor.ok());

  ASSERT_TRUE(machine.recovery().Quarantine(driver.device_id(), "test").ok());
  // Every queue's rings are down, not just queue 0's.
  for (uint32_t q = 0; q < 2; ++q) {
    for (uint32_t i = 0; i < 8; ++i) {
      EXPECT_FALSE(driver.RxSlotIova(q, i).has_value());
    }
  }
  // The sibling completion loses cleanly: no buffer reaches the stack.
  Result<SkBuffPtr> skb = driver.CompleteRx(
      1, descriptor->index,
      static_cast<uint32_t>(PacketHeader::kSize + payload.size()));
  EXPECT_FALSE(skb.ok());
  EXPECT_TRUE(driver.AuditQueues().ok());
  EXPECT_TRUE(machine.CheckInvariants().ok());
}

// ---- Machine::RunOnCpus ----------------------------------------------------------

TEST(ExecModeTest, RunOnCpusSequentialVisitsCpusInOrder) {
  core::MachineConfig config;
  config.seed = 7;
  config.iommu.fast_path.num_cpus = 4;
  core::Machine machine{config};
  std::vector<uint32_t> visited;
  machine.RunOnCpus(4, [&](CpuId cpu) {
    EXPECT_EQ(CurrentCpu().value, cpu.value);
    visited.push_back(cpu.value);
  });
  EXPECT_EQ(visited, (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(CurrentCpu().value, 0u);  // restored after the sweep
}

// Eight rounds of deferred map/unmap churn, 16 pairs per CPU on 4 CPUs, each
// CPU on its own device: the invariants hold after every round, no call
// fails, and the final flush leaves no mapping live.
TEST(ExecModeTest, RunOnCpusThreadsChurnKeepsInvariants) {
  core::MachineConfig config;
  config.seed = 7;
  config.iommu.mode = iommu::InvalidationMode::kDeferred;
  config.iommu.fast_path.num_cpus = 4;
  core::Machine machine{config};
  for (uint32_t c = 0; c < 4; ++c) {
    machine.iommu().AttachDevice(DeviceId{700 + c});
  }
  std::array<uint32_t, 4> failures = {0, 0, 0, 0};
  for (int round = 0; round < 8; ++round) {
    machine.RunOnCpus(4, [&](CpuId cpu) {
      const DeviceId dev{700 + cpu.value};
      for (int i = 0; i < 16; ++i) {
        Result<Kva> buf = machine.slab().Kmalloc(1024, "mq_churn");
        if (!buf.ok()) {
          ++failures[cpu.value];
          continue;
        }
        Result<Iova> iova = machine.dma().MapSingle(dev, *buf, 1024,
                                                    dma::DmaDirection::kFromDevice, "mq_churn");
        if (iova.ok() &&
            !machine.dma().UnmapSingle(dev, *iova, 1024, dma::DmaDirection::kFromDevice).ok()) {
          ++failures[cpu.value];
        }
        if (!iova.ok()) {
          ++failures[cpu.value];
        }
        (void)machine.slab().Kfree(*buf);
      }
    });
    ASSERT_TRUE(machine.CheckInvariants().ok()) << "round " << round;
  }
  for (uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(failures[c], 0u) << "cpu " << c;
  }
  machine.iommu().FlushNow();
  EXPECT_EQ(machine.dma().live_mappings(), 0u);
}

// ---- Soak cross-CPU scenarios ----------------------------------------------------

soak::SoakConfig MqSoakConfig() {
  soak::SoakConfig config;
  config.seed = 42;
  config.target_cycles = 4'000'000;
  config.max_epochs = 120;
  config.storage = false;  // keep the multi-queue runs fast
  config.num_cpus = 2;
  config.nic_queues = 2;
  return config;
}

TEST(MqSoakTest, CrossCpuStaleReplayReproducesAndIsDetected) {
  const soak::SoakReport report = soak::RunSoak(MqSoakConfig());
  EXPECT_TRUE(report.ok) << report.failure;
  // The stale-IOTLB race fired, breached (deferred mode leaves the window
  // open), and the IOMMU's stale-access accounting flagged every breach.
  ASSERT_GE(report.cross_cpu_race_probes, 1u);
  EXPECT_GE(report.cross_cpu_stale_hits, 1u);
  EXPECT_EQ(report.cross_cpu_detected, report.cross_cpu_stale_hits);
  // The sibling-quarantine race fired and every fenced-off completion lost.
  ASSERT_GE(report.sibling_quarantine_probes, 1u);
  EXPECT_EQ(report.sibling_completions_fenced, report.sibling_quarantine_probes);
  // Per-CPU breakdown covers every sim CPU and the churn actually ran.
  ASSERT_EQ(report.cpus.size(), 2u);
  for (const auto& cpu : report.cpus) {
    EXPECT_GT(cpu.churn_ops, 0u) << "cpu " << cpu.cpu;
  }
}

TEST(MqSoakTest, StrictModeClosesTheCrossCpuWindow) {
  soak::SoakConfig config = MqSoakConfig();
  config.deferred = false;
  const soak::SoakReport report = soak::RunSoak(config);
  EXPECT_TRUE(report.ok) << report.failure;
  ASSERT_GE(report.cross_cpu_race_probes, 1u);
  // Strict invalidation tears the translation down inside the unmap: the
  // replay from the other CPU's context has nothing stale to ride.
  EXPECT_EQ(report.cross_cpu_stale_hits, 0u);
  EXPECT_EQ(report.cross_cpu_stale_blocked, report.cross_cpu_race_probes);
}

TEST(MqSoakTest, SequentialMultiCpuRunsAreByteIdentical) {
  const soak::SoakReport report = soak::RunSoak(MqSoakConfig());
  const soak::SoakReport again = soak::RunSoak(MqSoakConfig());
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.ToJson(), again.ToJson());
}

// ---- Degraded-mode sync RX on a pinned queue -------------------------------------

// CPU 1 serves sync-mode (bounced, copybreak) RX on its pinned queue while
// CPU 0 pushes map/unmap churn through an unrelated direct-mapped device:
// the bounce pool's sync edges and the clamped per-queue ring state must
// stay consistent across both CPUs' work.
TEST(MqDegradedTest, ThreadsSyncModeRxOnPinnedQueueStaysClean) {
  core::MachineConfig config;
  config.seed = 77;
  config.phys_pages = 4096;
  config.iommu.fast_path.num_cpus = 2;
  config.telemetry.enabled = true;
  config.policy.enabled = true;
  // Both queues post their 8 sync slots. A 2368 B buffer straddles a page
  // boundary at every other frag offset, so the 16 slots take 24 pool pages.
  config.policy.bounce_pages = 32;
  core::Machine machine{config};

  NicDriver::Config nic_config;
  nic_config.name = "nic0";
  nic_config.num_queues = 2;
  nic_config.rx_ring_size = 16;
  nic_config.queue_cpus = {CpuId{0}, CpuId{1}};
  NicDriver& nic = machine.AddNicDriver(nic_config);
  device::MaliciousNic dev{device::DevicePort{machine.iommu(), nic.device_id()}};
  nic.AttachDevice(&dev);
  ASSERT_TRUE(nic.FillAllRxRings().ok());

  // Not under trust policy: maps direct, sharing nothing with the pool.
  const DeviceId churn_dev{4242};
  machine.iommu().AttachDevice(churn_dev);

  machine.RunOnCpus(2, [&](CpuId cpu) {
    if (cpu.value == 1) {
      for (int i = 0; i < 24; ++i) {
        PacketHeader header{.src_ip = 0x0a000002,
                            .dst_ip = 0x0a000001,
                            .src_port = static_cast<uint16_t>(30000 + i),
                            .dst_port = 7,
                            .proto = kProtoUdp};
        const std::vector<uint8_t> payload(64, static_cast<uint8_t>(i));
        auto descriptor = dev.InjectRxOn(1, header, payload);
        if (!descriptor.ok()) {
          continue;
        }
        auto skb = nic.CompleteRx(
            1, descriptor->index,
            static_cast<uint32_t>(PacketHeader::kSize + payload.size()));
        if (skb.ok() && *skb != nullptr) {
          skb->reset();
        }
      }
      return;
    }
    for (int i = 0; i < 64; ++i) {
      Result<Kva> buf = machine.slab().Kmalloc(1024, "mq_degraded_churn");
      if (!buf.ok()) {
        continue;
      }
      Result<Iova> iova = machine.dma().MapSingle(
          churn_dev, *buf, 1024, dma::DmaDirection::kFromDevice, "mq_degraded_churn");
      if (iova.ok()) {
        (void)machine.dma().UnmapSingle(churn_dev, *iova, 1024,
                                        dma::DmaDirection::kFromDevice);
      }
      (void)machine.slab().Kfree(*buf);
    }
  });

  EXPECT_GT(nic.rx_sync_frames(), 0u);
  EXPECT_TRUE(machine.CheckInvariants().ok());
  EXPECT_TRUE(nic.Shutdown().ok());
  EXPECT_EQ(machine.dma().live_mappings(), 0u);
  ASSERT_NE(machine.bounce_pool(), nullptr);
  EXPECT_EQ(machine.bounce_pool()->total_active(), 0u);
}

// The 4-CPU, 4-queue soak: every cross-CPU scenario at the widest topology
// any test runs.
TEST(MqSoakTest, ThreadsModeSoakStaysClean) {
  soak::SoakConfig config = MqSoakConfig();
  config.num_cpus = 4;
  config.nic_queues = 4;
  const soak::SoakReport report = soak::RunSoak(config);
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.cpus.size(), 4u);
}

}  // namespace
}  // namespace spv::net
