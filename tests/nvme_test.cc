// spv::nvme functional tests: queue bring-up through real admin commands,
// block IO round trips, and every PRP shape the protocol model produces —
// PRP1-only, PRP2-as-page, PRP2-as-list, chained list segments, zero-length
// and max-transfer edges — plus the driver's completion plausibility checks,
// the watchdog reset path, and the sub-page frag co-location surface under
// both invalidation modes.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <span>
#include <vector>

#include "core/machine.h"
#include "device/device_port.h"
#include "nvme/malicious_nvme.h"
#include "nvme/nvme_controller.h"
#include "nvme/nvme_defs.h"
#include "nvme/nvme_driver.h"
#include "forensics/flight_recorder.h"

namespace spv::nvme {
namespace {

core::MachineConfig BaseConfig(uint64_t seed,
                               iommu::InvalidationMode mode =
                                   iommu::InvalidationMode::kStrict) {
  core::MachineConfig config;
  config.phys_pages = 4096;
  config.seed = seed;
  config.iommu.mode = mode;
  return config;
}

// Victim machine + driver + controller, parameterized on the controller type
// so the same rig serves honest and malicious devices.
template <typename Controller>
struct RigT {
  explicit RigT(core::MachineConfig machine_config,
                NvmeDriver::Config driver_config = NvmeDriver::Config{},
                NvmeController::Config controller_config =
                    NvmeController::Config{})
      : machine(machine_config),
        driver(machine.AddNvmeDriver(driver_config)),
        controller(device::DevicePort{machine.iommu(), driver.device_id()},
                   controller_config) {
    controller.set_fault_engine(&machine.fault());
    controller.set_tracer(machine.tracer());
    driver.AttachDevice(&controller);
  }

  core::Machine machine;
  NvmeDriver& driver;
  Controller controller;
};

using Rig = RigT<NvmeController>;
using EvilRig = RigT<MaliciousNvme>;

std::vector<uint8_t> Pattern(uint64_t bytes, uint8_t salt) {
  std::vector<uint8_t> data(bytes);
  for (uint64_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<uint8_t>(salt + i * 7);
  }
  return data;
}

// Writes `pattern` to `slba` through the driver, zeroes the buffer, reads it
// back, and returns the read-back bytes.
Result<std::vector<uint8_t>> RoundTrip(Rig& rig, uint64_t slba,
                                       uint16_t nblocks,
                                       const std::vector<uint8_t>& pattern) {
  const uint64_t bytes = static_cast<uint64_t>(nblocks) * kLbaSize;
  Result<Kva> buf = rig.machine.slab().Kmalloc(bytes, "nvme_rt");
  if (!buf.ok()) {
    return buf.status();
  }
  SPV_RETURN_IF_ERROR(rig.machine.kmem().Write(*buf, pattern));
  SPV_RETURN_IF_ERROR(rig.driver.WriteBlocks(slba, nblocks, *buf).status());
  const std::vector<uint8_t> zero(bytes, 0);
  SPV_RETURN_IF_ERROR(rig.machine.kmem().Write(*buf, zero));
  SPV_RETURN_IF_ERROR(rig.driver.ReadBlocks(slba, nblocks, *buf).status());
  std::vector<uint8_t> got(bytes);
  SPV_RETURN_IF_ERROR(rig.machine.kmem().Read(*buf, got));
  SPV_RETURN_IF_ERROR(rig.machine.slab().Kfree(*buf));
  return got;
}

// ---- Bring-up -----------------------------------------------------------------

TEST(NvmeInitTest, BringsUpQueuesThroughAdminCommands) {
  Rig rig{BaseConfig(1)};
  ASSERT_TRUE(rig.driver.Init().ok());
  EXPECT_TRUE(rig.driver.io_queue_live());
  // Identify reported the media geometry.
  EXPECT_EQ(rig.driver.capacity_blocks(), rig.controller.capacity_blocks());
  // Identify + CreateCq + CreateSq were all FETCHED from host memory by DMA.
  EXPECT_GE(rig.controller.stats().sqes_fetched, 3u);
  EXPECT_EQ(rig.controller.stats().fetch_errors, 0u);
  ASSERT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_EQ(rig.machine.dma().live_mappings(), 0u);
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

TEST(NvmeInitTest, InitWithoutDeviceFailsCleanly) {
  core::Machine machine{BaseConfig(2)};
  NvmeDriver& driver = machine.AddNvmeDriver(NvmeDriver::Config{});
  EXPECT_EQ(driver.Init().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(driver.io_queue_live());
  EXPECT_TRUE(machine.CheckInvariants().ok());
}

// ---- PRP shapes ----------------------------------------------------------------

class NvmePrpTest : public ::testing::Test {
 protected:
  NvmePrpTest() : rig_(BaseConfig(3)) { EXPECT_TRUE(rig_.driver.Init().ok()); }

  void TearDown() override {
    EXPECT_TRUE(rig_.driver.Shutdown().ok());
    EXPECT_EQ(rig_.machine.dma().live_mappings(), 0u);
    EXPECT_EQ(rig_.machine.frag_pool(CpuId{0}).live_frags(), 0u);
    Status invariants = rig_.machine.CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.message();
  }

  Rig rig_;
};

TEST_F(NvmePrpTest, SingleBlockUsesPrp1Only) {
  const auto pattern = Pattern(kLbaSize, 0x11);
  auto got = RoundTrip(rig_, 7, 1, pattern);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, pattern);
  EXPECT_EQ(rig_.driver.prp_segments_built(), 0u);
  EXPECT_TRUE(rig_.controller.prp_segments_seen().empty());
  // Oracle: the media really holds the data (the CQE was not just friendly).
  auto media = rig_.controller.PeekMedia(7, 1);
  ASSERT_TRUE(media.ok());
  EXPECT_EQ(*media, pattern);
}

TEST_F(NvmePrpTest, TwoPageTransferUsesPrp2AsPage) {
  // 16 blocks = 8 KiB = exactly two pages from a page-backed kmalloc: the
  // second page travels directly in PRP2, no list.
  const auto pattern = Pattern(16 * kLbaSize, 0x22);
  auto got = RoundTrip(rig_, 16, 16, pattern);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, pattern);
  EXPECT_EQ(rig_.driver.prp_segments_built(), 0u);
  EXPECT_TRUE(rig_.controller.prp_segments_seen().empty());
}

TEST_F(NvmePrpTest, ThreePageTransferBuildsPrpList) {
  // 24 blocks = 12 KiB = three pages: two extra data pointers, one segment.
  const auto pattern = Pattern(24 * kLbaSize, 0x33);
  auto got = RoundTrip(rig_, 64, 24, pattern);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, pattern);
  // Write + read built one segment each; the controller walked both.
  EXPECT_EQ(rig_.driver.prp_segments_built(), 2u);
  EXPECT_EQ(rig_.controller.prp_segments_seen().size(), 2u);
  EXPECT_GE(rig_.controller.stats().prp_segments_walked, 2u);
}

TEST_F(NvmePrpTest, LargeTransferChainsListSegments) {
  // 144 blocks = 72 KiB = 18 pages: 17 extra data pointers overflow one
  // 16-entry segment (15 data + chain), so the list chains into a second.
  const auto pattern = Pattern(144 * kLbaSize, 0x44);
  auto got = RoundTrip(rig_, 256, 144, pattern);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, pattern);
  EXPECT_EQ(rig_.driver.prp_segments_built(), 4u);  // 2 per direction
  EXPECT_EQ(rig_.controller.prp_segments_seen().size(), 4u);
}

TEST_F(NvmePrpTest, SeenSegmentHistoryStopsAtItsBound) {
  // A long storage run walks more list segments than the controller keeps:
  // the history holds the most recent kPrpSegmentsKept and stops growing.
  constexpr uint16_t kBlocks = 144;  // two chained segments per command
  Result<Kva> buf = rig_.machine.slab().Kmalloc(kBlocks * kLbaSize, "nvme_history");
  ASSERT_TRUE(buf.ok());
  while (rig_.controller.stats().prp_segments_walked <= NvmeController::kPrpSegmentsKept) {
    ASSERT_TRUE(rig_.driver.ReadBlocks(0, kBlocks, *buf).ok());
  }
  EXPECT_EQ(rig_.controller.prp_segments_seen().size(), NvmeController::kPrpSegmentsKept);
  ASSERT_TRUE(rig_.driver.ReadBlocks(0, kBlocks, *buf).ok());
  EXPECT_EQ(rig_.controller.prp_segments_seen().size(), NvmeController::kPrpSegmentsKept);
  ASSERT_TRUE(rig_.machine.slab().Kfree(*buf).ok());
}

TEST_F(NvmePrpTest, MaxTransferBoundary) {
  // MDTS analogue: 256 blocks goes through, 257 is rejected client-side.
  const auto pattern = Pattern(256 * kLbaSize, 0x55);
  auto got = RoundTrip(rig_, 512, 256, pattern);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, pattern);

  auto buf = rig_.machine.slab().Kmalloc(257 * kLbaSize, "nvme_overmax");
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(rig_.driver.WriteBlocks(0, 257, *buf).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(rig_.machine.slab().Kfree(*buf).ok());
}

TEST_F(NvmePrpTest, ZeroLengthTransferRejected) {
  auto buf = rig_.machine.slab().Kmalloc(kLbaSize, "nvme_zero");
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(rig_.driver.WriteBlocks(0, 0, *buf).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(rig_.driver.SubmitRead(0, 0, *buf).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(rig_.machine.slab().Kfree(*buf).ok());
  EXPECT_EQ(rig_.driver.outstanding(), 0u);
}

TEST_F(NvmePrpTest, CapacityBoundsEnforced) {
  auto buf = rig_.machine.slab().Kmalloc(2 * kLbaSize, "nvme_oob");
  ASSERT_TRUE(buf.ok());
  const uint64_t last = rig_.driver.capacity_blocks() - 1;
  EXPECT_FALSE(rig_.driver.WriteBlocks(last, 2, *buf).ok());
  EXPECT_FALSE(rig_.driver.ReadBlocks(rig_.driver.capacity_blocks(), 1, *buf).ok());
  ASSERT_TRUE(rig_.machine.slab().Kfree(*buf).ok());
}

// ---- Sub-page PRP segment placement (the co-location surface) -------------------

TEST(NvmePrpPlacementTest, FragSegmentsShareAPageUnderDistinctIovas) {
  // Default config: PRP-list segments are 128-byte page_frag carves. Two
  // in-flight commands place their segments on the same frag page, each
  // mapped under its own IOVA — the paper's type (c) aliasing, storage side.
  Rig rig{BaseConfig(4)};
  ASSERT_TRUE(rig.driver.Init().ok());

  auto buf1 = rig.machine.slab().Kmalloc(24 * kLbaSize, "nvme_aliased1");
  auto buf2 = rig.machine.slab().Kmalloc(24 * kLbaSize, "nvme_aliased2");
  ASSERT_TRUE(buf1.ok() && buf2.ok());
  auto cid1 = rig.driver.SubmitRead(0, 24, *buf1);
  auto cid2 = rig.driver.SubmitRead(24, 24, *buf2);
  ASSERT_TRUE(cid1.ok() && cid2.ok());

  ASSERT_EQ(rig.controller.prp_segments_seen().size(), 2u);
  const Iova seg1 = rig.controller.prp_segments_seen()[0];
  const Iova seg2 = rig.controller.prp_segments_seen()[1];
  EXPECT_NE(seg1.PageBase().value, seg2.PageBase().value)
      << "distinct IOVA pages per mapping";
  // Sub-page carves: at least one segment sits off the page start.
  EXPECT_TRUE(seg1.page_offset() != 0 || seg2.page_offset() != 0);
  // ...yet both translate to the same physical frag page.
  auto m1 = rig.machine.dma().FindMapping(rig.driver.device_id(), seg1);
  auto m2 = rig.machine.dma().FindMapping(rig.driver.device_id(), seg2);
  ASSERT_TRUE(m1.has_value() && m2.has_value());
  EXPECT_EQ(m1->kva.PageBase().value, m2->kva.PageBase().value);

  ASSERT_TRUE(rig.driver.WaitFor(*cid1).ok());
  ASSERT_TRUE(rig.driver.WaitFor(*cid2).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf1).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf2).ok());
  ASSERT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_EQ(rig.machine.frag_pool(CpuId{0}).live_frags(), 0u);
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

TEST(NvmePrpPlacementTest, KmallocSegmentsArePageExclusive) {
  // prp_lists_from_frags=false: each segment owns a whole kmalloc page, the
  // safe layout the paper recommends for DMA metadata.
  NvmeDriver::Config driver_config;
  driver_config.prp_lists_from_frags = false;
  Rig rig{BaseConfig(5), driver_config};
  ASSERT_TRUE(rig.driver.Init().ok());

  const auto pattern = Pattern(24 * kLbaSize, 0x66);
  auto got = RoundTrip(rig, 0, 24, pattern);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, pattern);
  for (const Iova seg : rig.controller.prp_segments_seen()) {
    EXPECT_EQ(seg.page_offset(), 0u) << "kmalloc segments start page-aligned";
  }
  ASSERT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

// Sub-page co-location of device-writable data buffers opens kSubPage windows
// in both invalidation modes; stale-IOTLB windows only exist under deferred.
TEST(NvmeWindowTest, SubPageAndStaleWindowsUnderBothModes) {
  for (const iommu::InvalidationMode mode :
       {iommu::InvalidationMode::kStrict, iommu::InvalidationMode::kDeferred}) {
    core::MachineConfig config = BaseConfig(6, mode);
    config.telemetry.enabled = true;
    config.trace.enabled = true;  // window events and spans
    Rig rig{config};
    ASSERT_TRUE(rig.driver.Init().ok());

    // A 512-byte read: the data mapping is device-writable and fills 1/8 of
    // its page — a sub-page window over the co-resident slab bytes.
    const auto pattern = Pattern(kLbaSize, 0x77);
    auto got = RoundTrip(rig, 3, 1, pattern);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(rig.driver.Shutdown().ok());
    rig.machine.iommu().FlushNow();

    forensics::FlightRecorder* recorder = rig.machine.flight_recorder();
    ASSERT_NE(recorder, nullptr);
    uint64_t subpage = 0;
    uint64_t stale = 0;
    for (const forensics::Window& window : recorder->SnapshotWindows(rig.driver.device_id())) {
      if (window.kind == forensics::WindowKind::kSubPage &&
          window.exposed_bytes >= kPageSize - kLbaSize) {
        ++subpage;
      }
      if (window.kind == forensics::WindowKind::kStaleIotlb && window.duration() > 0) {
        ++stale;
      }
    }
    EXPECT_GE(subpage, 1u) << "mode " << static_cast<int>(mode);
    if (mode == iommu::InvalidationMode::kDeferred) {
      EXPECT_GE(stale, 1u) << "deferred unmaps must leave measurable windows";
      EXPECT_GT(recorder->stale_open_summary().max, 0u);
    }
    EXPECT_TRUE(rig.machine.CheckInvariants().ok());
  }
}

// ---- Completion plausibility and the watchdog ----------------------------------

TEST(NvmeCompletionTest, ForgedUnknownCidIsRejected) {
  EvilRig rig{BaseConfig(7)};
  ASSERT_TRUE(rig.driver.Init().ok());
  // A CQE for a CID that was never issued: correct phase, correct slot —
  // only the outstanding-command table catches it.
  ASSERT_TRUE(
      rig.controller.ForgePoisonedCompletion(kIoQid, 0x7777, kScSuccess, 512).ok());
  EXPECT_EQ(rig.driver.PollCompletions(), 0u);
  EXPECT_EQ(rig.driver.completion_errors(), 1u);
  ASSERT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

TEST(NvmeCompletionTest, ShortTransferDemotedByDw0Check) {
  core::MachineConfig config = BaseConfig(8);
  config.fault_plan.OneShot(fault::FaultSite::kNvmeShortTransfer, 1);
  Rig rig{config};
  ASSERT_TRUE(rig.driver.Init().ok());
  auto buf = rig.machine.slab().Kmalloc(16 * kLbaSize, "nvme_short");
  ASSERT_TRUE(buf.ok());
  // The device stops half way but reports success; the driver's DW0
  // plausibility check demotes the CQE to a data-transfer error.
  auto result = rig.driver.WriteBlocks(0, 16, *buf);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(rig.driver.io_errors(), 1u);
  EXPECT_EQ(rig.driver.completion_errors(), 1u);
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());
  ASSERT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

TEST(NvmeCompletionTest, WatchdogResetsQueueAfterLostCompletion) {
  core::MachineConfig config = BaseConfig(9);
  // Bring-up posts three admin CQEs (Identify, CreateCq, CreateSq); arm 4 is
  // the first IO completion.
  config.fault_plan.OneShot(fault::FaultSite::kNvmeCompletionDrop, 4);
  NvmeDriver::Config driver_config;
  driver_config.completion_timeout_cycles = SimClock::MsToCycles(5);
  driver_config.poll_deadline_cycles = SimClock::UsToCycles(100);
  Rig rig{config, driver_config};
  ASSERT_TRUE(rig.driver.Init().ok());

  auto buf = rig.machine.slab().Kmalloc(kLbaSize, "nvme_lost");
  ASSERT_TRUE(buf.ok());
  // The CQE never lands: the bounded wait gives up...
  EXPECT_EQ(rig.driver.WriteBlocks(0, 1, *buf).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(rig.driver.outstanding(), 1u);
  EXPECT_GE(rig.driver.poll_deadline_hits(), 1u);
  // ...and the watchdog fails the command and rebuilds the IO queue.
  rig.machine.clock().Advance(SimClock::MsToCycles(6));
  EXPECT_EQ(rig.driver.CheckTimeouts(), 1u);
  EXPECT_EQ(rig.driver.queue_resets(), 1u);
  EXPECT_EQ(rig.driver.outstanding(), 0u);
  EXPECT_TRUE(rig.driver.io_queue_live());

  // The reset queue carries traffic again.
  const auto pattern = Pattern(kLbaSize, 0x88);
  ASSERT_TRUE(rig.machine.kmem().Write(*buf, pattern).ok());
  EXPECT_TRUE(rig.driver.WriteBlocks(1, 1, *buf).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());
  ASSERT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_EQ(rig.machine.dma().live_mappings(), 0u);
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

TEST(NvmeShutdownTest, ShutdownWithCommandsInFlightIsLeakFree) {
  EvilRig rig{BaseConfig(10)};
  ASSERT_TRUE(rig.driver.Init().ok());
  // Park data phases so the commands stay outstanding from the driver's
  // point of view... then never complete them.
  rig.controller.set_complete_before_transfer(false);
  auto buf = rig.machine.slab().Kmalloc(24 * kLbaSize, "nvme_inflight");
  ASSERT_TRUE(buf.ok());
  // Drop the completion so the command stays outstanding.
  fault::FaultPlan plan;
  plan.OneShot(fault::FaultSite::kNvmeCompletionDrop, 1);
  rig.machine.fault().Arm(plan, 99);
  auto cid = rig.driver.SubmitRead(0, 24, *buf);
  ASSERT_TRUE(cid.ok());
  EXPECT_EQ(rig.driver.outstanding(), 1u);

  // Shutdown without device cooperation: everything unmapped and freed.
  ASSERT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_EQ(rig.driver.outstanding(), 0u);
  EXPECT_EQ(rig.machine.dma().live_mappings(), 0u);
  EXPECT_EQ(rig.machine.frag_pool(CpuId{0}).live_frags(), 0u);
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

// ---- Supervised re-attach -------------------------------------------------------

TEST(NvmeRecoveryTest, ResumeRebuildsAfterQuarantine) {
  core::MachineConfig config = BaseConfig(11);
  config.recovery.enabled = true;
  Rig rig{config};
  ASSERT_TRUE(rig.driver.Init().ok());

  ASSERT_TRUE(rig.machine.recovery()
                  .Quarantine(rig.driver.device_id(), "nvme drill")
                  .ok());
  // Fenced: the device cannot fetch, the driver cannot map.
  auto buf = rig.machine.slab().Kmalloc(kLbaSize, "nvme_fenced");
  ASSERT_TRUE(buf.ok());
  EXPECT_FALSE(rig.driver.WriteBlocks(0, 1, *buf).ok());

  // Supervised re-attach runs the driver's Resume() -> full re-init.
  rig.machine.clock().Advance(SimClock::MsToCycles(50));
  for (int i = 0; i < 10 && !rig.driver.io_queue_live(); ++i) {
    (void)rig.machine.recovery().Poll();
    rig.machine.clock().Advance(SimClock::MsToCycles(20));
  }
  ASSERT_TRUE(rig.driver.io_queue_live()) << "re-attach must resume the driver";
  EXPECT_TRUE(rig.driver.WriteBlocks(0, 1, *buf).ok());
  ASSERT_TRUE(rig.machine.slab().Kfree(*buf).ok());
  ASSERT_TRUE(rig.driver.Shutdown().ok());
  EXPECT_TRUE(rig.machine.CheckInvariants().ok());
}

}  // namespace
}  // namespace spv::nvme
