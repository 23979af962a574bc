// Degraded-mode queue protocols: untrusted devices served on swiotlb-style
// sync bounce rings instead of starving behind per-transfer bounces.
//
// The battery proves the two halves of the tentpole claim:
//
//   * availability — a freshly-attached (or freshly-demoted) untrusted NVMe
//     controller and NIC keep completing real I/O through persistent sync'd
//     bounce slots, including across a LIVE service-mode switch with commands
//     in flight, and a promotion drains the sync rings leak-free;
//
//   * containment — the paper's attack classes (a)-(d) and Poisoned
//     Completion, re-run against the sync rings, stay structurally blocked:
//     every device-visible address is a dedicated pool page, sub-page shots
//     land in bounce padding, PRP segments carry no co-resident frags, and
//     stale replays write recycled pool slots with zero queued invalidations.

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "base/json.h"
#include "core/machine.h"
#include "device/device_port.h"
#include "device/malicious_nic.h"
#include "dma/bounce_pool.h"
#include "fault/fault.h"
#include "forensics/flight_recorder.h"
#include "net/layouts.h"
#include "net/nic_driver.h"
#include "nvme/malicious_nvme.h"
#include "nvme/nvme_driver.h"
#include "policy/policy.h"
#include "soak/soak.h"

namespace spv {
namespace {

constexpr uint64_t kSecret = 0x5ec0de5ec0de0000ull;
constexpr uint64_t kBenignCb = 0x1122334455667788ull;

// Policy on, no quirks: every registered device starts kUntrusted, which the
// engine services as kBounceSync by default.
core::MachineConfig DegradedConfig(uint64_t seed, iommu::InvalidationMode mode) {
  core::MachineConfig config;
  config.seed = seed;
  config.phys_pages = 4096;
  config.iommu.mode = mode;
  config.telemetry.enabled = true;
  config.policy.enabled = true;
  return config;
}

// Same machine but the resident driver classes enter kTrusted — the subject
// for the demotion-mid-I/O scenarios.
core::MachineConfig TrustedConfig(uint64_t seed, iommu::InvalidationMode mode) {
  core::MachineConfig config = DegradedConfig(seed, mode);
  policy::Quirk inbox_nvme;
  inbox_nvme.match_class = "nvme";
  inbox_nvme.initial_trust = policy::TrustState::kTrusted;
  config.policy.quirks.push_back(inbox_nvme);
  policy::Quirk inbox_nic;
  inbox_nic.match_class = "nic";
  inbox_nic.initial_trust = policy::TrustState::kTrusted;
  config.policy.quirks.push_back(inbox_nic);
  return config;
}

// A machine with one NVMe driver fronting a MaliciousNvme controller.
struct NvmeRig {
  explicit NvmeRig(core::MachineConfig mc,
                   nvme::NvmeDriver::Config dc = nvme::NvmeDriver::Config{})
      : machine(mc),
        driver(machine.AddNvmeDriver(dc)),
        controller(device::DevicePort{machine.iommu(), driver.device_id()}) {
    controller.set_fault_engine(&machine.fault());
    controller.set_tracer(machine.tracer());
    driver.AttachDevice(&controller);
  }

  core::Machine machine;
  nvme::NvmeDriver& driver;
  nvme::MaliciousNvme controller;
};

// And the NIC-side twin.
struct NicRig {
  explicit NicRig(core::MachineConfig mc,
                  net::NicDriver::Config nc = net::NicDriver::Config{})
      : machine(mc),
        driver(machine.AddNicDriver(nc)),
        device(device::DevicePort{machine.iommu(), driver.device_id()}) {
    driver.AttachDevice(&device);
  }

  core::Machine machine;
  net::NicDriver& driver;
  device::MaliciousNic device;
};

std::vector<uint8_t> Pattern(uint64_t bytes, uint8_t salt) {
  std::vector<uint8_t> data(bytes);
  for (uint64_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<uint8_t>((i * 131 + salt) & 0xff);
  }
  return data;
}

// ---- Availability: untrusted devices serve -------------------------------------

TEST(DegradedNvme, UntrustedControllerServesOnSyncRings) {
  NvmeRig rig(DegradedConfig(9001, iommu::InvalidationMode::kStrict));
  ASSERT_TRUE(rig.driver.Init().ok());
  EXPECT_EQ(rig.driver.service_mode(), dma::ServiceMode::kBounceSync);

  dma::BouncePool* pool = rig.machine.bounce_pool();
  ASSERT_NE(pool, nullptr);
  const DeviceId dev = rig.driver.device_id();
  // The rings themselves live on persistent bounce slots.
  EXPECT_TRUE(pool->Owns(dev, rig.driver.io_sq_iova()));
  EXPECT_TRUE(pool->Owns(dev, rig.driver.io_cq_iova()));
  EXPECT_GT(pool->persistent_bounces(dev), 0u);

  // Real block I/O round-trips through the degraded rings, data intact.
  const uint64_t bytes = 8 * nvme::kLbaSize;
  auto buf = rig.machine.slab().Kmalloc(bytes, "degraded_io");
  ASSERT_TRUE(buf.ok());
  const std::vector<uint8_t> pattern = Pattern(bytes, 0x21);
  ASSERT_TRUE(rig.machine.kmem().Write(*buf, pattern).ok());
  auto wrote = rig.driver.WriteBlocks(16, 8, *buf);
  ASSERT_TRUE(wrote.ok());
  EXPECT_EQ(*wrote, bytes);
  std::vector<uint8_t> zero(bytes, 0);
  ASSERT_TRUE(rig.machine.kmem().Write(*buf, zero).ok());
  ASSERT_TRUE(rig.driver.ReadBlocks(16, 8, *buf).ok());
  std::vector<uint8_t> got(bytes);
  ASSERT_TRUE(rig.machine.kmem().Read(*buf, got).ok());
  EXPECT_EQ(got, pattern);

  // The protocol really ran on sync edges: SQE pushes and CQE pulls.
  EXPECT_GT(pool->syncs_for_device(dev), 0u);
  EXPECT_GT(pool->syncs_for_cpu(dev), 0u);

  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_EQ(rig.machine.dma().live_mappings(), 0u);
  EXPECT_EQ(pool->total_active(), 0u);
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

TEST(DegradedNvme, MidIoDemotionSwitchesModeLiveAndPreservesCommands) {
  NvmeRig rig(TrustedConfig(9002, iommu::InvalidationMode::kDeferred));
  ASSERT_TRUE(rig.driver.Init().ok());
  EXPECT_EQ(rig.driver.service_mode(), dma::ServiceMode::kZeroCopy);
  dma::BouncePool* pool = rig.machine.bounce_pool();
  const DeviceId dev = rig.driver.device_id();
  EXPECT_FALSE(pool->Owns(dev, rig.driver.io_sq_iova()));

  // A write is in flight (completion not yet consumed) when the evidence
  // lands and the controller is demoted to kUntrusted.
  const uint64_t bytes = 4 * nvme::kLbaSize;
  auto buf = rig.machine.slab().Kmalloc(bytes, "demote_io");
  ASSERT_TRUE(buf.ok());
  const std::vector<uint8_t> pattern = Pattern(bytes, 0x4d);
  ASSERT_TRUE(rig.machine.kmem().Write(*buf, pattern).ok());
  auto cid = rig.driver.SubmitWrite(40, 4, *buf);
  ASSERT_TRUE(cid.ok());
  ASSERT_EQ(rig.driver.outstanding(), 1u);
  ASSERT_TRUE(rig.machine.policy()->Demote(dev, "test evidence").ok());

  // The next poll notices the routing change, re-homes both queue pairs onto
  // sync'd bounce slots and re-issues the command under its original CID —
  // the waiter never sees the rings move.
  auto done = rig.driver.WaitFor(*cid);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(*done, bytes);
  EXPECT_EQ(rig.driver.mode_switches(), 1u);
  EXPECT_EQ(rig.driver.service_mode(), dma::ServiceMode::kBounceSync);
  EXPECT_TRUE(pool->Owns(dev, rig.driver.io_sq_iova()));
  EXPECT_TRUE(pool->Owns(dev, rig.driver.io_cq_iova()));

  // Data integrity across the switch: the write is readable on the degraded
  // rings.
  std::vector<uint8_t> zero(bytes, 0);
  ASSERT_TRUE(rig.machine.kmem().Write(*buf, zero).ok());
  ASSERT_TRUE(rig.driver.ReadBlocks(40, 4, *buf).ok());
  std::vector<uint8_t> got(bytes);
  ASSERT_TRUE(rig.machine.kmem().Read(*buf, got).ok());
  EXPECT_EQ(got, pattern);

  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_EQ(rig.machine.dma().live_mappings(), 0u);
  EXPECT_EQ(pool->total_active(), 0u);
}

TEST(DegradedNvme, PromotionDrainsSyncRingsLeakFree) {
  core::MachineConfig mc = DegradedConfig(9003, iommu::InvalidationMode::kStrict);
  mc.forensics.enabled = true;
  NvmeRig rig(mc);
  ASSERT_TRUE(rig.driver.Init().ok());
  ASSERT_EQ(rig.driver.service_mode(), dma::ServiceMode::kBounceSync);
  dma::BouncePool* pool = rig.machine.bounce_pool();
  const DeviceId dev = rig.driver.device_id();

  // Serve some degraded traffic first, so there is ring state to drain.
  const uint64_t bytes = 2 * nvme::kLbaSize;
  auto buf = rig.machine.slab().Kmalloc(bytes, "promo_io");
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(rig.machine.kmem().Write(*buf, Pattern(bytes, 0x77)).ok());
  ASSERT_TRUE(rig.driver.WriteBlocks(8, 2, *buf).ok());
  EXPECT_GT(pool->persistent_bounces(dev), 0u);

  // Operator allowlists the device: kUntrusted -> kProbation = direct
  // service. The next submission triggers the live switch back.
  ASSERT_TRUE(rig.machine.policy()->Promote(dev, "operator allowlist").ok());
  ASSERT_TRUE(rig.driver.ReadBlocks(8, 2, *buf).ok());
  EXPECT_EQ(rig.driver.mode_switches(), 1u);
  EXPECT_EQ(rig.driver.service_mode(), dma::ServiceMode::kZeroCopy);

  // Every sync-ring bounce was released: nothing parked, nothing leaked.
  EXPECT_EQ(pool->persistent_bounces(dev), 0u);
  EXPECT_EQ(pool->active_bounces(dev), 0u);
  EXPECT_FALSE(pool->Owns(dev, rig.driver.io_sq_iova()));

  // Forensics cross-check: the ledger saw the whole degraded phase — sync'd
  // bounce lives exist and every one of them is closed (unmap edge recorded).
  ASSERT_NE(rig.machine.flight_recorder(), nullptr);
  bool saw_bounced_life = false;
  for (const forensics::MappingLife& life :
       rig.machine.flight_recorder()->SnapshotLedger(dev)) {
    if (!life.bounced) {
      continue;
    }
    saw_bounced_life = true;
    EXPECT_NE(life.unmap_cycle, 0u)
        << "bounce life at iova 0x" << std::hex << life.iova
        << " still open after promotion";
  }
  EXPECT_TRUE(saw_bounced_life);

  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_EQ(rig.machine.dma().live_mappings(), 0u);
  EXPECT_EQ(pool->total_active(), 0u);
}

// ---- Containment: the attack battery against sync rings ------------------------

// (a) sub-page shot past the mapped buffer: on sync rings the chunk address
// is a dedicated pool slot, so the +512 write lands in bounce padding and
// the callback qword embedded next to the kernel buffer never changes.
TEST(DegradedNvmeAttackA, SubPageWriteLandsInBouncePadding) {
  NvmeRig rig(DegradedConfig(9004, iommu::InvalidationMode::kStrict));
  ASSERT_TRUE(rig.driver.Init().ok());
  dma::BouncePool* pool = rig.machine.bounce_pool();
  const DeviceId dev = rig.driver.device_id();

  // struct { char data[512]; void (*done)(void*); } — kmalloc-1024.
  auto obj = rig.machine.slab().Kmalloc(1024, "nvme_req_with_cb");
  ASSERT_TRUE(obj.ok());
  const Kva cb_slot{obj->value + 512};
  ASSERT_TRUE(rig.machine.kmem().WriteU64(cb_slot, kBenignCb).ok());

  rig.controller.set_complete_before_transfer(true);
  auto cid = rig.driver.SubmitRead(0, 1, *obj);
  ASSERT_TRUE(cid.ok());
  ASSERT_EQ(rig.controller.pending_transfers().size(), 1u);
  const nvme::PrpChunk chunk = rig.controller.pending_transfers().front().chunks[0];
  EXPECT_TRUE(pool->Owns(dev, chunk.iova));

  // The type (a) shot that corrupted the callback on the zero-copy path.
  ASSERT_TRUE(rig.controller.port()
                  .WriteU64(Iova{chunk.iova.value + 512}, 0xbad0c0de)
                  .ok());
  auto after = rig.machine.kmem().ReadU64(cb_slot);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, kBenignCb) << "sub-page write reached kernel memory";

  // Completion copy-out is bounded to the 512 mapped bytes: still intact.
  EXPECT_TRUE(rig.driver.WaitFor(*cid).ok());
  after = rig.machine.kmem().ReadU64(cb_slot);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, kBenignCb);

  rig.controller.ClearPendingTransfers();
  ASSERT_TRUE(rig.machine.slab().Kfree(*obj).ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_EQ(rig.machine.dma().live_mappings(), 0u);
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

// (b) PRP-list harvest: the segments themselves are bounced, so the page
// behind a segment IOVA holds only that segment — the co-resident frag-pool
// victim is not device-visible.
TEST(DegradedNvmeAttackB, PrpSegmentHarvestFindsNoCoResidentFrags) {
  NvmeRig rig(DegradedConfig(9005, iommu::InvalidationMode::kStrict));
  ASSERT_TRUE(rig.driver.Init().ok());

  slab::PageFragPool& frags = rig.machine.frag_pool(CpuId{0});
  auto victim = frags.Alloc(128, 8, "victim_meta");
  ASSERT_TRUE(victim.ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        rig.machine.kmem().WriteU64(Kva{victim->value + 8u * i}, kSecret + i).ok());
  }

  // 24 blocks = 3 pages -> PRP2 is a list segment carved from the same pool.
  auto buf = rig.machine.slab().Kmalloc(24 * nvme::kLbaSize, "io_buf");
  ASSERT_TRUE(buf.ok());
  auto cid = rig.driver.SubmitRead(0, 24, *buf);
  ASSERT_TRUE(cid.ok());
  ASSERT_FALSE(rig.controller.prp_segments_seen().empty());
  EXPECT_TRUE(rig.machine.bounce_pool()->Owns(
      rig.driver.device_id(), rig.controller.prp_segments_seen()[0]));

  auto harvest = rig.controller.HarvestPrpQwords();
  ASSERT_TRUE(harvest.ok());
  for (uint64_t qword : *harvest) {
    EXPECT_FALSE(qword >= kSecret && qword < kSecret + 16)
        << "victim frag leaked through PRP page";
  }

  EXPECT_TRUE(rig.driver.WaitFor(*cid).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());
  ASSERT_TRUE(frags.Free(*victim).ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

// (c) multi-IOVA aliasing: two commands' PRP segments share one kernel frag
// page, but each maps to its own pool slots — the surviving alias exposes
// only its own 128 bytes, never the neighbour's.
TEST(DegradedNvmeAttackC, SurvivingAliasExposesOnlyOwnBytes) {
  NvmeRig rig(DegradedConfig(9006, iommu::InvalidationMode::kStrict));
  ASSERT_TRUE(rig.driver.Init().ok());

  slab::PageFragPool& frags = rig.machine.frag_pool(CpuId{0});
  auto victim = frags.Alloc(128, 8, "victim_meta");
  ASSERT_TRUE(victim.ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        rig.machine.kmem().WriteU64(Kva{victim->value + 8u * i}, kSecret + i).ok());
  }

  // Drop the SECOND IO completion so its segment stays mapped while the
  // first command completes and releases its slots.
  fault::FaultPlan plan;
  plan.OneShot(fault::FaultSite::kNvmeCompletionDrop, 2);
  rig.machine.fault().Arm(plan, 9006);

  auto buf1 = rig.machine.slab().Kmalloc(24 * nvme::kLbaSize, "io_buf1");
  auto buf2 = rig.machine.slab().Kmalloc(24 * nvme::kLbaSize, "io_buf2");
  ASSERT_TRUE(buf1.ok() && buf2.ok());
  auto cid1 = rig.driver.SubmitRead(0, 24, *buf1);
  auto cid2 = rig.driver.SubmitRead(24, 24, *buf2);
  ASSERT_TRUE(cid1.ok() && cid2.ok());
  ASSERT_GE(rig.controller.prp_segments_seen().size(), 2u);
  const Iova seg2 = rig.controller.prp_segments_seen()[1];

  ASSERT_TRUE(rig.driver.WaitFor(*cid1).ok());
  EXPECT_EQ(rig.driver.outstanding(), 1u);

  // The surviving alias still translates (pool block is static), but the
  // page behind it is pool memory: no frag neighbours, no victim bytes.
  auto page = rig.controller.port().ReadPageQwords(seg2);
  ASSERT_TRUE(page.ok());
  for (uint64_t qword : *page) {
    EXPECT_FALSE(qword >= kSecret && qword < kSecret + 16)
        << "frag neighbour visible through surviving alias";
  }

  // Watchdog reclaims the command whose completion was dropped.
  rig.machine.fault().Disarm();
  rig.machine.clock().Advance(SimClock::MsToCycles(6000));
  EXPECT_EQ(rig.driver.CheckTimeouts(), 1u);
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf1).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf2).ok());
  ASSERT_TRUE(frags.Free(*victim).ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_EQ(rig.machine.dma().live_mappings(), 0u);
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

// (d) slab co-location exfiltration + Poisoned Completion replay: the page
// behind the data chunk is a pool page (victim slab neighbour invisible),
// and the withheld data phase replayed after completion lands in recycled
// pool slots — zero queued invalidations, kernel memory untouched.
TEST(DegradedNvmeAttackD, ExfilAndStaleReplayConfinedToPool) {
  NvmeRig rig(DegradedConfig(9007, iommu::InvalidationMode::kDeferred));
  ASSERT_TRUE(rig.driver.Init().ok());
  const DeviceId dev = rig.driver.device_id();

  auto victim = rig.machine.slab().Kmalloc(512, "victim_cred");
  auto buf = rig.machine.slab().Kmalloc(512, "io_buf");
  ASSERT_TRUE(victim.ok() && buf.ok());
  ASSERT_EQ(victim->PageBase().value, buf->PageBase().value)
      << "kmalloc-512 neighbours expected on one slab page";
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        rig.machine.kmem().WriteU64(Kva{victim->value + 8u * i}, kSecret + i).ok());
  }
  const std::vector<uint8_t> payload = Pattern(512, 0x11);
  ASSERT_TRUE(rig.machine.kmem().Write(*buf, payload).ok());

  rig.controller.set_complete_before_transfer(true);
  auto cid = rig.driver.SubmitWrite(0, 1, *buf);
  ASSERT_TRUE(cid.ok());
  ASSERT_EQ(rig.controller.pending_transfers().size(), 1u);
  const nvme::PrpChunk chunk = rig.controller.pending_transfers().front().chunks[0];
  ASSERT_TRUE(rig.machine.bounce_pool()->Owns(dev, chunk.iova));

  // Page-wide read through the data chunk: only the bounce page. The copy-in
  // put the probe's own bytes there (the scan works), but the slab victim
  // sharing the kernel page never appears.
  auto page = rig.controller.port().ReadPageQwords(chunk.iova);
  ASSERT_TRUE(page.ok());
  uint64_t own_bytes_seen = 0;
  for (uint64_t qword : *page) {
    ASSERT_FALSE(qword >= kSecret && qword < kSecret + 8)
        << "slab neighbour exfiltrated through sync-mode data chunk";
    uint64_t probe_word = 0;
    std::memcpy(&probe_word, payload.data(), 8);
    if (qword == probe_word) {
      ++own_bytes_seen;
    }
  }
  EXPECT_GT(own_bytes_seen, 0u) << "copy-in missing: scan proves nothing";

  // Consume the poisoned completion; the driver releases the bounce run.
  ASSERT_TRUE(rig.driver.WaitFor(*cid).ok());
  const uint64_t pending_before = rig.machine.iommu().pending_invalidation_count();

  // The stale replay: the firmware performs the data phase it withheld. The
  // pool's static block still translates, so it "lands" — in a recycled pool
  // slot. No deferred-invalidation window exists (nothing was queued) and
  // the kernel buffer keeps its bytes.
  ASSERT_TRUE(rig.controller.ReplayPendingTransfer().ok());
  EXPECT_EQ(rig.machine.iommu().pending_invalidation_count(), pending_before);
  std::vector<uint8_t> after(512);
  ASSERT_TRUE(rig.machine.kmem().Read(*buf, after).ok());
  EXPECT_EQ(after, payload) << "stale replay reached the kernel buffer";
  std::vector<uint8_t> neighbour(8);
  ASSERT_TRUE(rig.machine.kmem().Read(*victim, neighbour).ok());
  uint64_t neighbour_word = 0;
  std::memcpy(&neighbour_word, neighbour.data(), 8);
  EXPECT_EQ(neighbour_word, kSecret);

  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*victim).ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_EQ(rig.machine.dma().live_mappings(), 0u);
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

// ---- NIC: sync-mode RX -----------------------------------------------------------

TEST(DegradedNic, UntrustedNicServesCopybreakRx) {
  net::NicDriver::Config nc;
  nc.name = "nic0";
  nc.rx_ring_size = 16;
  NicRig rig(DegradedConfig(9008, iommu::InvalidationMode::kStrict), nc);
  ASSERT_TRUE(rig.driver.FillRxRing().ok());

  // Sync mode clamps the ring: only kSyncRingLimit slots are armed, every
  // one a persistent bounce slot.
  ASSERT_GT(rig.device.rx_posted().size(), 0u);
  EXPECT_LE(rig.device.rx_posted().size(), net::NicDriver::kSyncRingLimit);
  const size_t armed = rig.device.rx_posted().size();
  EXPECT_TRUE(rig.machine.bounce_pool()->Owns(
      rig.driver.device_id(), rig.device.rx_posted().front().iova));

  net::PacketHeader header{.src_ip = 0x0a000002,
                           .dst_ip = 0x0a000001,
                           .src_port = 9999,
                           .dst_port = 7,
                           .proto = net::kProtoUdp};
  const std::vector<uint8_t> payload(96, 0x5c);
  auto index = rig.device.InjectRx(header, payload);
  ASSERT_TRUE(index.ok());
  auto skb = rig.driver.CompleteRx(
      *index, static_cast<uint32_t>(net::PacketHeader::kSize + payload.size()));
  ASSERT_TRUE(skb.ok());
  ASSERT_NE(*skb, nullptr);

  // Copybreak delivered the bytes into a fresh kernel buffer.
  std::vector<uint8_t> got(payload.size());
  ASSERT_TRUE(rig.machine.kmem()
                  .Read(Kva{(*skb)->data.value + net::PacketHeader::kSize}, got)
                  .ok());
  EXPECT_EQ(got, payload);
  EXPECT_EQ(rig.driver.rx_sync_frames(), 1u);
  // The slot was scrubbed and re-armed in place: the ring did not shrink.
  EXPECT_EQ(rig.device.rx_posted().size(), armed);

  skb->reset();
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_EQ(rig.machine.dma().live_mappings(), 0u);
  EXPECT_EQ(rig.machine.bounce_pool()->total_active(), 0u);
}

// The bounce pool is per device, so a multi-queue NIC's sync slots share it:
// the per-queue clamp shrinks until every queue's buffers fit the default
// pool, whatever page_frag offset each buffer lands on.
TEST(DegradedNic, MultiQueueUntrustedNicFitsTheDefaultBouncePool) {
  net::NicDriver::Config nc;
  nc.name = "nic0";
  nc.num_queues = 2;
  nc.rx_ring_size = 16;
  core::MachineConfig mc = DegradedConfig(9010, iommu::InvalidationMode::kStrict);
  mc.iommu.fast_path.num_cpus = 2;
  NicRig rig(mc, nc);
  ASSERT_TRUE(rig.driver.FillAllRxRings().ok());
  ASSERT_EQ(rig.machine.bounce_pool()->pool_pages(rig.driver.device_id()),
            dma::BouncePool::kDefaultPoolPages);

  std::vector<size_t> armed(nc.num_queues);
  for (const net::RxPostedDescriptor& posted : rig.device.rx_posted()) {
    ASSERT_LT(posted.queue, nc.num_queues);
    ++armed[posted.queue];
    EXPECT_TRUE(rig.machine.bounce_pool()->Owns(rig.driver.device_id(), posted.iova));
  }
  for (uint32_t q = 0; q < nc.num_queues; ++q) {
    EXPECT_GT(armed[q], 0u) << "queue " << q;
    EXPECT_LE(armed[q], net::NicDriver::kSyncRingLimit) << "queue " << q;
  }
  EXPECT_EQ(rig.machine.bounce_pool()->persistent_bounces(rig.driver.device_id()),
            rig.device.rx_posted().size());
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());

  EXPECT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_EQ(rig.machine.dma().live_mappings(), 0u);
  EXPECT_EQ(rig.machine.bounce_pool()->total_active(), 0u);
}

TEST(DegradedNic, MidTrafficDemotionShrinksRingToSyncSlots) {
  net::NicDriver::Config nc;
  nc.name = "nic0";
  nc.rx_ring_size = 16;
  NicRig rig(TrustedConfig(9009, iommu::InvalidationMode::kStrict), nc);
  ASSERT_TRUE(rig.driver.FillRxRing().ok());
  ASSERT_EQ(rig.device.rx_posted().size(), 16u);

  ASSERT_TRUE(
      rig.machine.policy()->Demote(rig.driver.device_id(), "test evidence").ok());

  // Keep serving: each completion retires a direct slot; refills land on
  // persistent sync slots below the clamp, indices above shrink away. The
  // device keeps getting packets through the whole transition.
  uint64_t delivered = 0;
  for (int i = 0; i < 32 && !rig.device.rx_posted().empty(); ++i) {
    net::PacketHeader header{.src_ip = 0x0a000002,
                             .dst_ip = 0x0a000001,
                             .src_port = static_cast<uint16_t>(20000 + i),
                             .dst_port = 7,
                             .proto = net::kProtoUdp};
    const std::vector<uint8_t> payload(64, static_cast<uint8_t>(i));
    auto index = rig.device.InjectRx(header, payload);
    if (!index.ok()) {
      continue;
    }
    auto skb = rig.driver.CompleteRx(
        *index, static_cast<uint32_t>(net::PacketHeader::kSize + payload.size()));
    if (skb.ok() && *skb != nullptr) {
      ++delivered;
      skb->reset();
    }
  }

  // Availability stayed above zero and the tail of the run served from sync
  // slots on the shrunken ring.
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(rig.driver.rx_sync_frames(), 0u);
  EXPECT_LE(rig.device.rx_posted().size(), net::NicDriver::kSyncRingLimit);
  EXPECT_GT(rig.device.rx_posted().size(), 0u);

  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_EQ(rig.machine.dma().live_mappings(), 0u);
  EXPECT_EQ(rig.machine.bounce_pool()->total_active(), 0u);
}

// ---- Soak: the degraded drill under full chaos -----------------------------------

// Mid-run, the trust engine demotes the serving NIC and NVMe controller; the
// rest of the soak (faults, storms, hostile replays, quarantine drills) runs
// against sync bounce rings. Availability must stay above the floor and the
// report must stay byte-deterministic.
TEST(DegradedSoak, MidRunDemotionKeepsServiceAboveFloor) {
  soak::SoakConfig config;
  config.seed = 4242;
  config.target_cycles = 400'000;
  config.policy = true;
  config.degraded_drill = true;
  config.degraded_floor = 0.05;
  const soak::SoakReport report = soak::RunSoak(config);
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_GT(report.degraded_probes, 0u);
  EXPECT_GT(report.degraded_ok, 0u);
  EXPECT_GE(report.availability_degraded, config.degraded_floor);
  // The demoted drivers really run the degraded protocol, and the posture
  // document the run ends on says so.
  EXPECT_NE(report.posture_json.find("\"bounce_sync\""), std::string::npos)
      << report.posture_json;
  // Byte-identical for the same seed, degraded fields included.
  const soak::SoakReport again = soak::RunSoak(config);
  EXPECT_EQ(report.ToJson(), again.ToJson());
}

TEST(DegradedSoak, HostileHotplugStormsDuringDegradedPhaseStayContained) {
  soak::SoakConfig config;
  config.seed = 777;
  // Long enough for several 17-epoch hot-plug storm cadences to land
  // inside the degraded phase (one epoch is ~40k cycles of idle advance).
  config.target_cycles = 2'000'000;
  config.policy = true;
  config.hostile_hotplug = true;
  config.degraded_drill = true;
  config.degraded_floor = 0.02;
  const soak::SoakReport report = soak::RunSoak(config);
  EXPECT_TRUE(report.ok) << report.failure;
  // The storms ran their sub-page probes against the pool and found nothing,
  // while the demoted residents kept serving through the same pool.
  EXPECT_GT(report.policy.hotplug_attaches, 0u);
  EXPECT_EQ(report.policy.secret_leaks, 0u);
  EXPECT_EQ(report.policy.neighbour_corruptions, 0u);
  EXPECT_GT(report.degraded_probes, 0u);
  EXPECT_GT(report.degraded_ok, 0u);
}

// A run without the drill keeps the degraded fields at their identity
// values: the new JSON fields never perturb existing baselines' meaning.
TEST(DegradedSoak, NoDrillReportsIdentityDegradedAvailability) {
  soak::SoakConfig config;
  config.seed = 4242;
  config.target_cycles = 200'000;
  config.policy = true;
  const soak::SoakReport report = soak::RunSoak(config);
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.degraded_probes, 0u);
  EXPECT_EQ(report.degraded_ok, 0u);
  EXPECT_EQ(report.availability_degraded, 1.0);
  const std::optional<json::Value> doc = json::Parse(report.ToJson());
  ASSERT_TRUE(doc.has_value());
  const json::Value* degraded = doc->Find("availability_degraded");
  ASSERT_NE(degraded, nullptr);
  EXPECT_EQ(degraded->type, json::Value::Type::kNumber);
  EXPECT_EQ(degraded->number, 1.0);
}

}  // namespace
}  // namespace spv
