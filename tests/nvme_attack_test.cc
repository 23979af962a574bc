// The storage-side attack battery: every vulnerability class the paper
// demonstrated on NIC rings (§5.2), reproduced against the NVMe stack.
//
//   (a) sub-page corruption of a callback embedded next to a mapped IO
//       buffer — the storage analogue of the skb_shared_info destructor;
//   (b) PRP-list frag segments leaking co-resident kernel data;
//   (c) one frag page mapped under two IOVAs — the surviving alias keeps
//       the whole page device-readable after its neighbour is unmapped;
//   (d) slab co-location exfiltration through a kmalloc'd data buffer;
//   plus Poisoned Completion (the storage Poisoned TX): complete before
//   transfer, let the driver unmap + free, then replay the withheld data
//   phase through the stale IOTLB entry — with the resulting vulnerability
//   windows and detection latencies measured by the flight recorder, and
//   the hostile controller finally quarantined leak-free by spv::recovery.

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "attack/gadgets.h"
#include "attack/mini_cpu.h"
#include "core/machine.h"
#include "device/device_port.h"
#include "dkasan/dkasan.h"
#include "fault/fault.h"
#include "nvme/malicious_nvme.h"
#include "nvme/nvme_driver.h"
#include "forensics/flight_recorder.h"

namespace spv::nvme {
namespace {

using attack::MiniCpu;

core::MachineConfig BaseConfig(uint64_t seed, iommu::InvalidationMode mode) {
  core::MachineConfig config;
  config.seed = seed;
  config.phys_pages = 4096;
  config.iommu.mode = mode;
  return config;
}

// A machine with one NVMe driver fronting a MaliciousNvme controller.
struct EvilRig {
  explicit EvilRig(core::MachineConfig mc,
                   NvmeDriver::Config dc = NvmeDriver::Config{})
      : machine(mc),
        driver(machine.AddNvmeDriver(dc)),
        controller(device::DevicePort{machine.iommu(), driver.device_id()}) {
    controller.set_fault_engine(&machine.fault());
    controller.set_tracer(machine.tracer());
    driver.AttachDevice(&controller);
  }

  core::Machine machine;
  NvmeDriver& driver;
  MaliciousNvme controller;
};

std::vector<uint8_t> Pattern(uint64_t bytes, uint8_t salt) {
  std::vector<uint8_t> data(bytes);
  for (uint64_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<uint8_t>((i * 131 + salt) & 0xff);
  }
  return data;
}

// ---- (a) embedded-callback corruption ------------------------------------------

// The IO buffer is the first half of a struct whose second half holds a
// function pointer. Mapping the buffer for a 1-block read exposes the whole
// page device-writable; the controller, having completed the command without
// transferring, still holds the translation and rewrites the callback.
TEST(NvmeAttackA, SubPageWriteCorruptsEmbeddedCallback) {
  EvilRig rig(BaseConfig(101, iommu::InvalidationMode::kStrict));
  ASSERT_TRUE(rig.driver.Init().ok());
  MiniCpu cpu(rig.machine.kmem(), rig.machine.layout());

  // struct { char data[512]; void (*done)(void*); } — kmalloc-1024.
  auto obj = rig.machine.slab().Kmalloc(1024, "nvme_req_with_cb");
  ASSERT_TRUE(obj.ok());
  const Kva cb_slot{obj->value + 512};
  const uint64_t benign =
      rig.machine.layout().text_base() + attack::kSymBenignUbufDestructor;
  ASSERT_TRUE(rig.machine.kmem().WriteU64(cb_slot, benign).ok());

  rig.controller.set_complete_before_transfer(true);
  auto cid = rig.driver.SubmitRead(0, 1, *obj);
  ASSERT_TRUE(cid.ok());

  // The command "completed", but the buffer is still mapped (the driver has
  // not consumed the CQE yet) and the firmware kept the chunk address.
  ASSERT_EQ(rig.controller.pending_transfers().size(), 1u);
  const PrpChunk chunk = rig.controller.pending_transfers().front().chunks[0];
  EXPECT_EQ(chunk.len, kLbaSize);

  // Page-granular IOMMU: +512 is past the mapped buffer but on its page.
  const uint64_t wild = rig.machine.layout().text_base() + 0x31337;
  ASSERT_TRUE(rig.controller.port().WriteU64(Iova{chunk.iova.value + 512}, wild).ok());

  auto corrupted = rig.machine.kmem().ReadU64(cb_slot);
  ASSERT_TRUE(corrupted.ok());
  EXPECT_EQ(*corrupted, wild);

  // The kernel fires the completion callback: control flow is now steered by
  // the device (here into a wild text address — an oops, not an escalation,
  // but the primitive is the paper's type (a)).
  EXPECT_FALSE(cpu.InvokeCallback(Kva{*corrupted}, *obj).ok());
  EXPECT_EQ(cpu.wild_jumps(), 1u);

  EXPECT_TRUE(rig.driver.WaitFor(*cid).ok());
  rig.controller.ClearPendingTransfers();
  ASSERT_TRUE(rig.machine.slab().Kfree(*obj).ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_EQ(rig.machine.dma().live_mappings(), 0u);
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

// ---- (b) PRP-list frag harvest -------------------------------------------------

// A 128-byte PRP-list segment is carved from the same page_frag page as
// unrelated kernel metadata; mapping the segment exposes the neighbours.
TEST(NvmeAttackB, PrpSegmentHarvestLeaksCoResidentFrag) {
  EvilRig rig(BaseConfig(102, iommu::InvalidationMode::kStrict));
  ASSERT_TRUE(rig.driver.Init().ok());

  // The victim: kernel metadata carved from the frag pool the driver's PRP
  // segments share (same CPU, same pool).
  constexpr uint64_t kSecret = 0x5ec0de5ec0de0000ull;
  slab::PageFragPool& pool = rig.machine.frag_pool(CpuId{0});
  auto victim = pool.Alloc(128, 8, "victim_meta");
  ASSERT_TRUE(victim.ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        rig.machine.kmem().WriteU64(Kva{victim->value + 8u * i}, kSecret + i).ok());
  }

  // 24 blocks = 3 pages -> PRP2 is a list: one frag-carved segment, mapped
  // while the command is in flight.
  auto buf = rig.machine.slab().Kmalloc(24 * kLbaSize, "io_buf");
  ASSERT_TRUE(buf.ok());
  auto cid = rig.driver.SubmitRead(0, 24, *buf);
  ASSERT_TRUE(cid.ok());
  ASSERT_FALSE(rig.controller.prp_segments_seen().empty());

  auto harvest = rig.controller.HarvestPrpQwords();
  ASSERT_TRUE(harvest.ok());
  bool leaked = false;
  for (uint64_t qword : *harvest) {
    leaked = leaked || qword == kSecret;
  }
  EXPECT_TRUE(leaked) << "victim frag not visible behind the PRP segment";

  EXPECT_TRUE(rig.driver.WaitFor(*cid).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());
  ASSERT_TRUE(pool.Free(*victim).ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

// ---- (c) multi-IOVA aliasing ---------------------------------------------------

// Two commands' PRP segments are carved from one frag page and mapped under
// distinct IOVAs. Completing the first unmaps its IOVA (strict mode: fenced
// immediately) — but the second command's alias keeps the WHOLE page
// device-readable, including the freed neighbour's bytes.
TEST(NvmeAttackC, SurvivingIovaAliasOutlivesNeighbourUnmap) {
  core::MachineConfig mc = BaseConfig(103, iommu::InvalidationMode::kStrict);
  mc.telemetry.enabled = true;
  EvilRig rig(mc);
  ASSERT_TRUE(rig.driver.Init().ok());

  dkasan::DKasan dkasan(rig.machine.layout());
  dkasan.Attach(rig.machine.dma());

  // Drop the SECOND IO completion so its command stays in flight while the
  // first completes and unmaps.
  fault::FaultPlan plan;
  plan.OneShot(fault::FaultSite::kNvmeCompletionDrop, 2);
  rig.machine.fault().Arm(plan, 103);

  auto buf1 = rig.machine.slab().Kmalloc(24 * kLbaSize, "io_buf1");
  auto buf2 = rig.machine.slab().Kmalloc(24 * kLbaSize, "io_buf2");
  ASSERT_TRUE(buf1.ok() && buf2.ok());
  auto cid1 = rig.driver.SubmitRead(0, 24, *buf1);
  auto cid2 = rig.driver.SubmitRead(24, 24, *buf2);
  ASSERT_TRUE(cid1.ok() && cid2.ok());

  ASSERT_GE(rig.controller.prp_segments_seen().size(), 2u);
  const Iova seg1 = rig.controller.prp_segments_seen()[0];
  const Iova seg2 = rig.controller.prp_segments_seen()[1];
  EXPECT_NE(seg1.PageBase().value, seg2.PageBase().value);

  // Same physical frag page behind both IOVAs.
  auto m1 = rig.machine.dma().FindMapping(rig.driver.device_id(), seg1);
  auto m2 = rig.machine.dma().FindMapping(rig.driver.device_id(), seg2);
  ASSERT_TRUE(m1.has_value() && m2.has_value());
  ASSERT_EQ(m1->kva.PageBase().value, m2->kva.PageBase().value);
  // D-KASAN sees the double mapping (type (c) detector).
  EXPECT_GE(dkasan.count(dkasan::ReportKind::kMultipleMap), 1u);

  // Complete command 1: its segment is unmapped and its frag freed.
  ASSERT_TRUE(rig.driver.WaitFor(*cid1).ok());
  EXPECT_EQ(rig.driver.outstanding(), 1u);
  EXPECT_FALSE(rig.controller.port().ReadPageQwords(seg1).ok());

  // The alias survives: the full page — freed carve included — is still
  // readable through command 2's segment IOVA.
  auto page = rig.controller.port().ReadPageQwords(seg2);
  EXPECT_TRUE(page.ok());

  // Let the watchdog reclaim the command whose completion was dropped.
  rig.machine.fault().Disarm();
  rig.machine.clock().Advance(SimClock::MsToCycles(6000));
  EXPECT_EQ(rig.driver.CheckTimeouts(), 1u);
  EXPECT_EQ(rig.driver.queue_resets(), 1u);
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf1).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf2).ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_EQ(rig.machine.dma().live_mappings(), 0u);
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

// ---- (d) slab co-location exfiltration -----------------------------------------

TEST(NvmeAttackD, SlabNeighbourExfiltratedThroughIoBufferMapping) {
  EvilRig rig(BaseConfig(104, iommu::InvalidationMode::kStrict));
  ASSERT_TRUE(rig.driver.Init().ok());

  constexpr uint64_t kSecret = 0xfeedfacecafebeefull;
  auto victim = rig.machine.slab().Kmalloc(512, "victim_cred");
  auto buf = rig.machine.slab().Kmalloc(512, "io_buf");
  ASSERT_TRUE(victim.ok() && buf.ok());
  ASSERT_EQ(victim->PageBase().value, buf->PageBase().value)
      << "kmalloc-512 neighbours expected on one slab page";
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        rig.machine.kmem().WriteU64(Kva{victim->value + 8u * i}, kSecret + i).ok());
  }

  rig.controller.set_complete_before_transfer(true);
  auto cid = rig.driver.SubmitWrite(0, 1, *buf);
  ASSERT_TRUE(cid.ok());
  ASSERT_EQ(rig.controller.pending_transfers().size(), 1u);
  const PrpChunk chunk = rig.controller.pending_transfers().front().chunks[0];

  // Page-granular read through the data buffer's IOVA: the victim's slab
  // slot rides along.
  auto page = rig.controller.port().ReadPageQwords(chunk.iova);
  ASSERT_TRUE(page.ok());
  bool leaked = false;
  for (uint64_t qword : *page) {
    leaked = leaked || qword == kSecret;
  }
  EXPECT_TRUE(leaked) << "victim slab object not visible on the buffer page";

  EXPECT_TRUE(rig.driver.WaitFor(*cid).ok());
  rig.controller.ClearPendingTransfers();
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*victim).ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

// ---- Poisoned Completion: the storage Poisoned TX ------------------------------

// Deferred invalidation + a warm IOTLB: the forged "transfer done" CQE makes
// the driver unmap and free the buffer; the withheld data phase then replays
// through the stale translation into whatever recycled the memory. The
// flight recorder measures the stale window, the device hit inside it, and the
// D-KASAN detection latency; an IOTLB flush closes the window and the next
// replay dies at the fence.
TEST(NvmePoisonedCompletion, StaleReplayLandsInRecycledMemoryUntilFlush) {
  core::MachineConfig mc = BaseConfig(105, iommu::InvalidationMode::kDeferred);
  mc.telemetry.enabled = true;
  mc.trace.enabled = true;
  EvilRig rig(mc);
  ASSERT_TRUE(rig.driver.Init().ok());
  rig.controller.set_warm_iotlb(true);

  // Seed the media honestly so the replay has known bytes to deliver.
  const std::vector<uint8_t> media_pattern = Pattern(kLbaSize, 0x5a);
  {
    auto seed_buf = rig.machine.slab().Kmalloc(kLbaSize, "seed_buf");
    ASSERT_TRUE(seed_buf.ok());
    ASSERT_TRUE(rig.machine.kmem()
                    .Write(*seed_buf, std::span<const uint8_t>(media_pattern))
                    .ok());
    ASSERT_TRUE(rig.driver.WriteBlocks(8, 1, *seed_buf).ok());
    ASSERT_TRUE(rig.machine.slab().Kfree(*seed_buf).ok());
  }
  // Close the setup phase's own stale windows before the measured attack.
  rig.machine.iommu().FlushNow();

  dkasan::DKasan dkasan(rig.machine.layout());
  dkasan.Attach(rig.machine.slab());
  dkasan.Attach(rig.machine.dma());
  dkasan.set_telemetry(&rig.machine.telemetry());

  // A sentinel neighbour on the kmalloc-512 page makes later maps of that
  // page D-KASAN map-after-alloc reports — the detector we time.
  auto sentinel = rig.machine.slab().Kmalloc(512, "sentinel");
  auto buf = rig.machine.slab().Kmalloc(512, "posted_read_buf");
  ASSERT_TRUE(sentinel.ok() && buf.ok());
  const Kva old_buf = *buf;

  rig.controller.set_complete_before_transfer(true);

  // The poisoned read: "succeeds" with zero bytes actually moved. Believing
  // the device done, the driver unmaps (deferred: stale window opens) and we
  // free the buffer.
  auto moved = rig.driver.ReadBlocks(8, 1, *buf);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, kLbaSize);
  EXPECT_EQ(rig.driver.outstanding(), 0u);
  ASSERT_EQ(rig.controller.pending_transfers().size(), 1u);
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());

  // The slab recycles the slot immediately.
  auto recycled = rig.machine.slab().Kmalloc(512, "recycled_victim");
  ASSERT_TRUE(recycled.ok());
  EXPECT_EQ(recycled->value, old_buf.value) << "slab did not recycle the slot";
  const std::vector<uint8_t> zeros(kLbaSize, 0);
  ASSERT_TRUE(
      rig.machine.kmem().Write(*recycled, std::span<const uint8_t>(zeros)).ok());

  rig.machine.clock().AdvanceUs(5);

  // Replay the withheld data phase: the stale IOTLB entry still translates
  // the old IOVA, so the media bytes land in the recycled object.
  const uint64_t stale_before = rig.machine.iommu().stats().stale_iotlb_accesses;
  ASSERT_TRUE(rig.controller.ReplayPendingTransfer().ok());
  EXPECT_GE(rig.machine.iommu().stats().stale_iotlb_accesses, stale_before + 1);

  std::vector<uint8_t> readback(kLbaSize);
  ASSERT_TRUE(
      rig.machine.kmem().Read(*recycled, std::span<uint8_t>(readback)).ok());
  EXPECT_EQ(readback, media_pattern) << "replay did not corrupt recycled memory";

  // While the window is still open, a second IO maps the sentinel's page and
  // D-KASAN fires — the flight recorder stamps the detection latency.
  auto buf2 = rig.machine.slab().Kmalloc(512, "second_io_buf");
  ASSERT_TRUE(buf2.ok());
  ASSERT_TRUE(rig.driver.WriteBlocks(0, 1, *buf2).ok());
  EXPECT_GE(dkasan.count(dkasan::ReportKind::kMapAfterAlloc), 1u);

  // The flush closes every stale window; the second withheld transfer (from
  // the poisoned WriteBlocks) now dies at the fence.
  rig.machine.iommu().FlushNow();
  ASSERT_EQ(rig.controller.pending_transfers().size(), 1u);
  EXPECT_FALSE(rig.controller.ReplayPendingTransfer().ok());

  // The numbers the paper's Fig. 6 argument needs, from the flight recorder.
  forensics::FlightRecorder* recorder = rig.machine.flight_recorder();
  ASSERT_NE(recorder, nullptr);
  bool hit_window = false;
  bool detected_window = false;
  for (const forensics::Window& w : recorder->SnapshotWindows(rig.driver.device_id())) {
    if (w.kind != forensics::WindowKind::kStaleIotlb || w.open) {
      continue;
    }
    if (w.device_hits >= 1 && w.duration() > 0) {
      hit_window = true;
    }
    detected_window = detected_window || w.detected;
  }
  EXPECT_TRUE(hit_window) << "no closed stale window recorded a device hit";
  EXPECT_TRUE(detected_window) << "no stale window was marked detected";
  EXPECT_GE(recorder->stale_open_summary().count, 2u);
  EXPECT_GE(recorder->stale_open_summary().max, 1u);
  EXPECT_GE(recorder->dkasan_latency_summary().count, 1u);

  rig.controller.ClearPendingTransfers();
  ASSERT_TRUE(rig.machine.slab().Kfree(*recycled).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf2).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*sentinel).ok());
  EXPECT_TRUE(rig.driver.Shutdown().ok());
  rig.machine.iommu().FlushNow();
  EXPECT_EQ(rig.machine.dma().live_mappings(), 0u);
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

// ---- Hostile controller quarantined leak-free ----------------------------------

// A firmware that floods the CQ with forged completions trips the health
// scorer (weight 2.0 per rejected CQE, threshold 24) and is quarantined;
// teardown afterwards leaks nothing even though the device never cooperated.
TEST(NvmeQuarantine, ForgedCompletionFloodQuarantinesControllerLeakFree) {
  core::MachineConfig mc = BaseConfig(106, iommu::InvalidationMode::kDeferred);
  mc.telemetry.enabled = true;
  mc.recovery.enabled = true;
  EvilRig rig(mc);
  ASSERT_TRUE(rig.driver.Init().ok());

  recovery::RecoveryManager& recovery = rig.machine.recovery();
  for (int burst = 0; burst < 20; ++burst) {
    if (recovery.state(rig.driver.device_id()) !=
        recovery::DeviceState::kHealthy) {
      break;
    }
    // A plausible-looking CQE for a CID that was never issued.
    (void)rig.controller.ForgePoisonedCompletion(
        kIoQid, static_cast<uint16_t>(0x6000 + burst), kScSuccess, 512);
    (void)rig.driver.PollCompletions();
    recovery.Poll();
  }

  EXPECT_EQ(recovery.state(rig.driver.device_id()),
            recovery::DeviceState::kQuarantined);
  EXPECT_GE(recovery.total_quarantines(), 1u);
  EXPECT_GE(rig.driver.completion_errors(), 10u);

  // The fenced device can forge nothing further...
  EXPECT_FALSE(rig.controller
                   .ForgePoisonedCompletion(kIoQid, 0x7000, kScSuccess, 512)
                   .ok());
  // ...and driver IO fails cleanly instead of touching revoked mappings.
  auto buf = rig.machine.slab().Kmalloc(kLbaSize, "post_quarantine");
  ASSERT_TRUE(buf.ok());
  EXPECT_FALSE(rig.driver.WriteBlocks(0, 1, *buf).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());

  // Best-effort teardown against the unresponsive device must be leak-free.
  (void)rig.driver.Shutdown();
  rig.machine.iommu().FlushNow();
  EXPECT_EQ(rig.machine.dma().live_mappings(), 0u);
  EXPECT_EQ(rig.machine.frag_pool(CpuId{0}).live_frags(), 0u);
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

}  // namespace
}  // namespace spv::nvme
