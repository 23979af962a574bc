// Tests for the defense implementations: the bounce-buffer defence
// (Markuze et al. [47]) as the trust policy routes it through dma::BouncePool,
// and DAMN-style segregated network allocation [49], including the §9 caveat
// that DAMN does not remove skb_shared_info.

#include <gtest/gtest.h>

#include <vector>

#include "attack/attacks.h"
#include "attack/mini_cpu.h"
#include "core/machine.h"
#include "device/malicious_nic.h"
#include "dma/bounce_pool.h"
#include "slab/page_frag.h"

namespace spv {
namespace {

constexpr DeviceId kDev{5};

// A driverless device registered untrusted with the trust policy: every
// MapSingle/UnmapSingle for it goes through its dedicated bounce pages.
class BounceFixture : public ::testing::Test {
 protected:
  BounceFixture() : machine_(MakeConfig()) {
    machine_.iommu().AttachDevice(kDev);
    EXPECT_TRUE(
        machine_.policy()->RegisterDevice(kDev, policy::DeviceIdentity{"usb-nic", "nic"}).ok());
  }

  static core::MachineConfig MakeConfig() {
    core::MachineConfig config;
    config.seed = 5150;
    config.iommu.mode = iommu::InvalidationMode::kDeferred;  // worst case for zero-copy
    config.policy.enabled = true;
    config.policy.bounce_pages = 8;
    return config;
  }

  void TearDown() override {
    Status invariants = machine_.CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.message();
  }

  dma::DmaApi& dma() { return machine_.dma(); }

  core::Machine machine_;
};

TEST_F(BounceFixture, ToDeviceCopiesDataIn) {
  Kva buf = *machine_.slab().Kmalloc(512, "tx");
  ASSERT_TRUE(machine_.kmem().Fill(buf, 512, 0x5a).ok());
  auto iova = dma().MapSingle(kDev, buf, 512, dma::DmaDirection::kToDevice);
  ASSERT_TRUE(iova.ok());
  std::vector<uint8_t> read(512);
  ASSERT_TRUE(machine_.iommu().DeviceRead(kDev, *iova, std::span<uint8_t>(read)).ok());
  for (uint8_t b : read) {
    EXPECT_EQ(b, 0x5a);
  }
  EXPECT_GE(machine_.bounce_pool()->copies(), 1u);
  ASSERT_TRUE(dma().UnmapSingle(kDev, *iova, 512, dma::DmaDirection::kToDevice).ok());
}

TEST_F(BounceFixture, FromDeviceCopiesBackOnUnmap) {
  Kva buf = *machine_.slab().Kmalloc(256, "rx");
  auto iova = dma().MapSingle(kDev, buf, 256, dma::DmaDirection::kFromDevice);
  ASSERT_TRUE(iova.ok());
  std::vector<uint8_t> packet(256, 0x77);
  ASSERT_TRUE(machine_.iommu().DeviceWrite(kDev, *iova, packet).ok());
  // Not visible in the real buffer until ownership returns at unmap.
  EXPECT_EQ(*machine_.kmem().ReadU8(buf), 0x00);
  ASSERT_TRUE(dma().UnmapSingle(kDev, *iova, 256, dma::DmaDirection::kFromDevice).ok());
  EXPECT_EQ(*machine_.kmem().ReadU8(buf), 0x77);
  EXPECT_EQ(*machine_.kmem().ReadU8(buf + 255), 0x77);
}

TEST_F(BounceFixture, SubPageVulnerabilityEliminated) {
  // A secret shares the page with the mapped buffer — through the bounce
  // pool the device sees only the buffer bytes, never the neighbours.
  Kva buf = *machine_.slab().Kmalloc(512, "io");
  Kva secret = *machine_.slab().Kmalloc(512, "keys");
  ASSERT_EQ(buf.PageBase(), secret.PageBase());
  ASSERT_TRUE(machine_.kmem().WriteU64(secret, 0x5ec2e7).ok());
  ASSERT_TRUE(machine_.kmem().Fill(buf, 512, 0x11).ok());

  auto iova = dma().MapSingle(kDev, buf, 512, dma::DmaDirection::kBidirectional);
  ASSERT_TRUE(iova.ok());
  // Scan the whole device-visible page: buffer bytes (at the buffer's own
  // sub-page offset) + zeros, nothing else.
  std::vector<uint8_t> page(kPageSize);
  ASSERT_TRUE(
      machine_.iommu().DeviceRead(kDev, iova->PageBase(), std::span<uint8_t>(page)).ok());
  const uint64_t start = iova->page_offset();
  for (uint64_t off = 0; off < kPageSize; ++off) {
    if (off >= start && off < start + 512) {
      EXPECT_EQ(page[off], 0x11);
    } else {
      ASSERT_EQ(page[off], 0x00) << "leak at bounce page offset " << off;
    }
  }
  ASSERT_TRUE(dma().UnmapSingle(kDev, *iova, 512, dma::DmaDirection::kBidirectional).ok());
}

TEST_F(BounceFixture, ReusedSlotIsScrubbedPastTheNewBuffer) {
  // A full page of secret goes out through the pool; a 64-byte map then
  // reuses the same slot. Nothing of the first transfer may survive past the
  // new buffer's bytes: every map scrubs the whole slot page first.
  auto secret_pfn = machine_.page_alloc().AllocPages(0, mem::PageOwner::kDriver);
  auto small_pfn = machine_.page_alloc().AllocPages(0, mem::PageOwner::kDriver);
  ASSERT_TRUE(secret_pfn.ok() && small_pfn.ok());
  const Kva secret = machine_.layout().PhysToDirectMapKva(PhysAddr::FromPfn(*secret_pfn));
  const Kva small = machine_.layout().PhysToDirectMapKva(PhysAddr::FromPfn(*small_pfn));
  ASSERT_TRUE(machine_.kmem().Fill(secret, kPageSize, 0x5e).ok());
  ASSERT_TRUE(machine_.kmem().Fill(small, 64, 0x11).ok());

  auto first = dma().MapSingle(kDev, secret, kPageSize, dma::DmaDirection::kToDevice);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(dma().UnmapSingle(kDev, *first, kPageSize, dma::DmaDirection::kToDevice).ok());
  auto second = dma().MapSingle(kDev, small, 64, dma::DmaDirection::kToDevice);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->value, first->value) << "the small map did not reuse the slot";

  std::vector<uint8_t> page(kPageSize);
  ASSERT_TRUE(machine_.iommu().DeviceRead(kDev, *second, std::span<uint8_t>(page)).ok());
  for (uint64_t off = 0; off < 64; ++off) {
    EXPECT_EQ(page[off], 0x11) << "buffer byte " << off;
  }
  for (uint64_t off = 64; off < kPageSize; ++off) {
    ASSERT_EQ(page[off], 0x00) << "previous transfer survives at slot offset " << off;
  }
  ASSERT_TRUE(dma().UnmapSingle(kDev, *second, 64, dma::DmaDirection::kToDevice).ok());
}

TEST_F(BounceFixture, NoStaleWindowOnKernelData) {
  // After unmap the device can still write the (statically mapped) bounce
  // page — but the kernel buffer is untouched: containment, not revocation.
  Kva buf = *machine_.slab().Kmalloc(128, "io");
  auto iova = dma().MapSingle(kDev, buf, 128, dma::DmaDirection::kFromDevice);
  ASSERT_TRUE(iova.ok());
  ASSERT_TRUE(dma().UnmapSingle(kDev, *iova, 128, dma::DmaDirection::kFromDevice).ok());
  std::vector<uint8_t> garbage(64, 0xff);
  EXPECT_TRUE(machine_.iommu().DeviceWrite(kDev, *iova, garbage).ok());
  EXPECT_EQ(*machine_.kmem().ReadU8(buf), 0x00);  // kernel data unaffected
}

TEST_F(BounceFixture, NoInvalidationTrafficOnIoPath) {
  Kva buf = *machine_.slab().Kmalloc(256, "io");
  const uint64_t inval_before = machine_.iommu().stats().invalidation_cycles;
  for (int i = 0; i < 50; ++i) {
    auto iova = dma().MapSingle(kDev, buf, 256, dma::DmaDirection::kBidirectional);
    ASSERT_TRUE(iova.ok());
    ASSERT_TRUE(dma().UnmapSingle(kDev, *iova, 256, dma::DmaDirection::kBidirectional).ok());
  }
  EXPECT_EQ(machine_.iommu().stats().invalidation_cycles, inval_before);
}

TEST_F(BounceFixture, PoolExhaustionAndValidation) {
  Kva buf = *machine_.slab().Kmalloc(64, "io");
  std::vector<Iova> held;
  for (int i = 0; i < 8; ++i) {
    auto iova = dma().MapSingle(kDev, buf, 64, dma::DmaDirection::kToDevice);
    ASSERT_TRUE(iova.ok());
    held.push_back(*iova);
  }
  EXPECT_EQ(dma().MapSingle(kDev, buf, 64, dma::DmaDirection::kToDevice).status().code(),
            StatusCode::kResourceExhausted);
  // Never a fallback to a direct (unprotected) mapping.
  EXPECT_EQ(dma().live_mappings(), 0u);
  EXPECT_FALSE(dma().UnmapSingle(kDev, held[0], 99, dma::DmaDirection::kToDevice).ok());
  for (Iova iova : held) {
    ASSERT_TRUE(dma().UnmapSingle(kDev, iova, 64, dma::DmaDirection::kToDevice).ok());
  }
  // A buffer spanning more pages than the whole pool can never be bounced.
  EXPECT_EQ(dma()
                .MapSingle(kDev, buf, 9 * kPageSize, dma::DmaDirection::kToDevice)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

// ---- DAMN ------------------------------------------------------------------------

class DamnFixture : public ::testing::Test {
 protected:
  DamnFixture() : machine_(MakeConfig()) {
    damn_pool_ = std::make_unique<slab::PageFragPool>(
        machine_.page_db(), machine_.page_alloc(), machine_.layout(),
        net::SkbAllocator::kDamnPoolCpu);
    machine_.skb_alloc().set_damn_pool(damn_pool_.get());
  }

  static core::MachineConfig MakeConfig() {
    core::MachineConfig config;
    config.seed = 4949;
    config.iommu.mode = iommu::InvalidationMode::kDeferred;
    return config;
  }

  void TearDown() override {
    Status invariants = machine_.CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.message();
  }

  core::Machine machine_;
  std::unique_ptr<slab::PageFragPool> damn_pool_;
};

TEST_F(DamnFixture, TxBuffersComeFromDedicatedRegion) {
  auto skb = machine_.skb_alloc().AllocSkb(300, "tcp_sendmsg");
  ASSERT_TRUE(skb.ok());
  EXPECT_EQ((*skb)->linear.source, net::BufSource::kPageFrag);
  EXPECT_EQ((*skb)->linear.cpu, net::SkbAllocator::kDamnPoolCpu);
  // The page holds no kmalloc objects — nothing to leak.
  auto pfn = machine_.layout().DirectMapKvaToPhys((*skb)->head)->pfn();
  EXPECT_TRUE(machine_.slab().ObjectsOnPage(pfn).empty());
  EXPECT_EQ(machine_.page_db().owner(pfn), mem::PageOwner::kPageFrag);
  ASSERT_TRUE(machine_.skb_alloc().FreeSkb(std::move(*skb), nullptr).ok());
}

TEST_F(DamnFixture, PoisonedTxBlockedAtKaslrBootstrap) {
  // With sockets and TX buffers segregated, the echo leaks no init_net
  // pointer: attribute (1) is unobtainable and the attack dies early.
  net::NicDriver::Config driver_config;
  driver_config.rx_ring_size = 32;
  driver_config.rx_buf_len = 1728;
  net::NicDriver& nic = machine_.AddNicDriver(driver_config);
  device::MaliciousNic device{device::DevicePort{machine_.iommu(), nic.device_id()}};
  device.set_warm_iotlb_on_post(true);
  nic.AttachDevice(&device);
  machine_.stack().set_egress(&nic);
  attack::MiniCpu cpu{machine_.kmem(), machine_.layout()};
  machine_.stack().set_callback_invoker(&cpu);
  ASSERT_TRUE(machine_.stack().CreateSocket(7, true).ok());
  ASSERT_TRUE(nic.FillRxRing().ok());

  attack::AttackEnv env{machine_, nic, device, cpu};
  auto report = attack::PoisonedTxAttack::Run(env, {});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->success);
  EXPECT_FALSE(report->kaslr.text_base.has_value()) << report->kaslr.ToString();
  EXPECT_FALSE(cpu.privilege_escalated());
}

TEST_F(DamnFixture, SharedInfoStillExposedDespiteDamn) {
  // §9: DAMN segregates memory but skb_shared_info is still built inside the
  // I/O buffer — the type (b) exposure survives.
  net::NicDriver::Config driver_config;
  driver_config.rx_ring_size = 4;
  driver_config.rx_buf_len = 1728;
  net::NicDriver& nic = machine_.AddNicDriver(driver_config);
  device::MaliciousNic device{device::DevicePort{machine_.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);
  ASSERT_TRUE(nic.FillRxRing().ok());
  const auto descriptor = device.rx_posted().front();
  const uint64_t shinfo_off = attack::SharedInfoOffset(nic.rx_buffer_bytes());
  std::vector<uint8_t> poison(8, 0xee);
  EXPECT_TRUE(device.port()
                  .Write(descriptor.iova + shinfo_off + net::SharedInfoLayout::kDestructorArg,
                         poison)
                  .ok());
}

}  // namespace
}  // namespace spv
