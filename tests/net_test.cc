// Tests for the network-stack substrate: skb layouts, allocation paths,
// driver RX/TX rings, GRO aggregation, sockets/echo, and forwarding.

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "core/machine.h"
#include "mem/kernel_symbols.h"
#include "net/gro.h"
#include "net/layouts.h"
#include "net/nic_driver.h"
#include "net/skbuff.h"
#include "net/stack.h"
#include "test_device.h"

namespace spv::net {
namespace {

using spv::testing::TestNicDevice;

class NetFixture : public ::testing::Test {
 protected:
  NetFixture() : machine_(MakeConfig()) {}

  static core::MachineConfig MakeConfig() {
    core::MachineConfig config;
    config.seed = 2024;
    config.iommu.mode = iommu::InvalidationMode::kStrict;  // default; tests override
    return config;
  }

  // Every test must leave the machine internally consistent, whatever state
  // (live rings, pending invalidations) it walks away from.
  void TearDown() override {
    Status invariants = machine_.CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.message();
  }

  core::Machine machine_;
};

// ---- layouts ----------------------------------------------------------------

TEST_F(NetFixture, SharedInfoLayoutConstants) {
  EXPECT_EQ(SharedInfoLayout::kSize, 40u + 17u * 16u);
  EXPECT_EQ(SkbDataAlign(SharedInfoLayout::kSize), 320u);
}

TEST_F(NetFixture, SharedInfoViewRoundTrip) {
  auto buf = machine_.slab().Kmalloc(512, "t");
  ASSERT_TRUE(buf.ok());
  SharedInfoView shinfo{machine_.kmem(), *buf};
  ASSERT_TRUE(shinfo.Initialize().ok());
  EXPECT_EQ(*shinfo.nr_frags(), 0);
  EXPECT_EQ(*shinfo.destructor_arg(), 0u);
  EXPECT_EQ(*shinfo.dataref(), 1u);

  ASSERT_TRUE(shinfo.set_destructor_arg(Kva{0xdead0000}).ok());
  EXPECT_EQ(*shinfo.destructor_arg(), 0xdead0000u);

  FragRef frag{Kva{0xffffea0000001000ULL}, 128, 1000};
  ASSERT_TRUE(shinfo.set_frag(0, frag).ok());
  ASSERT_TRUE(shinfo.set_nr_frags(1).ok());
  auto back = shinfo.frag(0);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->struct_page.value, frag.struct_page.value);
  EXPECT_EQ(back->page_offset, 128u);
  EXPECT_EQ(back->size, 1000u);
  EXPECT_FALSE(shinfo.frag(17).ok());  // out of range
}

TEST_F(NetFixture, UbufInfoViewRoundTrip) {
  auto buf = machine_.slab().Kmalloc(64, "t");
  ASSERT_TRUE(buf.ok());
  UbufInfoView ubuf{machine_.kmem(), *buf};
  ASSERT_TRUE(ubuf.set_callback(Kva{0xffffffff81234567ULL}).ok());
  ASSERT_TRUE(ubuf.set_ctx(77).ok());
  EXPECT_EQ(*ubuf.callback(), 0xffffffff81234567ULL);
  EXPECT_EQ(*ubuf.ctx(), 77u);
}

TEST_F(NetFixture, PacketHeaderRoundTrip) {
  auto buf = machine_.slab().Kmalloc(64, "t");
  ASSERT_TRUE(buf.ok());
  PacketHeader header{.src_ip = 0x0a000002,
                      .dst_ip = 0x0a000001,
                      .src_port = 4444,
                      .dst_port = 80,
                      .proto = kProtoTcp,
                      .flags = 1,
                      .payload_len = 512,
                      .seq = 1000};
  ASSERT_TRUE(WritePacketHeader(machine_.kmem(), *buf, header).ok());
  auto back = ReadPacketHeader(machine_.kmem(), *buf);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->src_ip, header.src_ip);
  EXPECT_EQ(back->dst_port, header.dst_port);
  EXPECT_EQ(back->proto, kProtoTcp);
  EXPECT_EQ(back->payload_len, 512);
  EXPECT_EQ(back->seq, 1000u);
}

// ---- skb allocation -----------------------------------------------------------

TEST_F(NetFixture, NetdevAllocSkbLayout) {
  machine_.frag_pool(CpuId{0});
  auto skb = machine_.skb_alloc().NetdevAllocSkb(CpuId{0}, 1500, "test_rx");
  ASSERT_TRUE(skb.ok());
  EXPECT_EQ((*skb)->data - (*skb)->head, kNetSkbPad);
  EXPECT_EQ((*skb)->end - (*skb)->head, SkbDataAlign(kNetSkbPad + 1500));
  EXPECT_EQ((*skb)->truesize, SkbAllocator::TruesizeFor(1500));
  // shared_info is initialized in simulated memory.
  SharedInfoView shinfo{machine_.kmem(), (*skb)->shared_info()};
  EXPECT_EQ(*shinfo.nr_frags(), 0);
  EXPECT_EQ(*shinfo.dataref(), 1u);
}

TEST_F(NetFixture, NetdevSkbsCoLocateOnPages) {
  // Type (c) substrate: consecutive netdev skb data buffers share pages.
  machine_.frag_pool(CpuId{0});
  auto a = machine_.skb_alloc().NetdevAllocSkb(CpuId{0}, 1000, "rx");
  auto b = machine_.skb_alloc().NetdevAllocSkb(CpuId{0}, 1000, "rx");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto& layout = machine_.layout();
  EXPECT_EQ(layout.DirectMapKvaToPhys((*a)->head)->pfn(),
            layout.DirectMapKvaToPhys((*b)->head)->pfn());
}

TEST_F(NetFixture, AllocSkbUsesKmalloc) {
  auto skb = machine_.skb_alloc().AllocSkb(200, "tcp_tx");
  ASSERT_TRUE(skb.ok());
  auto info = machine_.slab().Lookup((*skb)->head);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->site, "tcp_tx");
  EXPECT_EQ((*skb)->linear.source, BufSource::kKmalloc);
}

TEST_F(NetFixture, BuildSkbPlacesSharedInfoAtTail) {
  machine_.frag_pool(CpuId{0});
  auto buf = machine_.frag_pool(CpuId{0}).Alloc(2048, 64, "drv");
  ASSERT_TRUE(buf.ok());
  auto skb = machine_.skb_alloc().BuildSkb(*buf, 2048,
                                           OwnedBuffer{*buf, BufSource::kPageFrag, CpuId{0}});
  ASSERT_TRUE(skb.ok());
  EXPECT_EQ((*skb)->data, *buf);  // no headroom in build_skb model
  EXPECT_EQ((*skb)->end, *buf + (2048 - SkbDataAlign(SharedInfoLayout::kSize)));
}

TEST_F(NetFixture, BuildSkbRejectsTinyBuffers) {
  EXPECT_FALSE(machine_.skb_alloc()
                   .BuildSkb(Kva{0x1000}, 64, OwnedBuffer{})
                   .ok());
}

TEST_F(NetFixture, AddFragTracksLengthsAndMemory) {
  machine_.frag_pool(CpuId{0});
  auto skb = machine_.skb_alloc().NetdevAllocSkb(CpuId{0}, 256, "rx");
  ASSERT_TRUE(skb.ok());
  (*skb)->len = 100;
  FragRef frag{machine_.layout().StructPageKva(Pfn{1234}), 64, 500};
  ASSERT_TRUE(machine_.skb_alloc().AddFrag(**skb, frag, std::nullopt).ok());
  EXPECT_EQ((*skb)->len, 600u);
  EXPECT_EQ((*skb)->data_len, 500u);
  EXPECT_EQ((*skb)->linear_len(), 100u);
  SharedInfoView shinfo{machine_.kmem(), (*skb)->shared_info()};
  EXPECT_EQ(*shinfo.nr_frags(), 1);
  EXPECT_EQ(shinfo.frag(0)->size, 500u);
}

TEST_F(NetFixture, AddFragCapsAtMaxSkbFrags) {
  machine_.frag_pool(CpuId{0});
  auto skb = machine_.skb_alloc().NetdevAllocSkb(CpuId{0}, 256, "rx");
  ASSERT_TRUE(skb.ok());
  FragRef frag{machine_.layout().StructPageKva(Pfn{1}), 0, 10};
  for (uint64_t i = 0; i < kMaxSkbFrags; ++i) {
    ASSERT_TRUE(machine_.skb_alloc().AddFrag(**skb, frag, std::nullopt).ok());
  }
  EXPECT_FALSE(machine_.skb_alloc().AddFrag(**skb, frag, std::nullopt).ok());
}

class RecordingInvoker : public CallbackInvoker {
 public:
  Status InvokeCallback(Kva function, Kva arg) override {
    calls.emplace_back(function, arg);
    return OkStatus();
  }
  std::vector<std::pair<Kva, Kva>> calls;
};

TEST_F(NetFixture, FreeSkbInvokesDestructorCallback) {
  // Figure 4 step (d): on skb release the kernel follows destructor_arg and
  // calls the callback with the ubuf_info pointer as argument.
  machine_.frag_pool(CpuId{0});
  auto skb = machine_.skb_alloc().NetdevAllocSkb(CpuId{0}, 512, "rx");
  ASSERT_TRUE(skb.ok());

  // Plant a ubuf_info with a callback, as the attack does via DMA.
  auto ubuf_mem = machine_.slab().Kmalloc(UbufInfoLayout::kSize, "ubuf");
  ASSERT_TRUE(ubuf_mem.ok());
  UbufInfoView ubuf{machine_.kmem(), *ubuf_mem};
  ASSERT_TRUE(ubuf.set_callback(Kva{0xffffffff81000010ULL}).ok());
  SharedInfoView shinfo{machine_.kmem(), (*skb)->shared_info()};
  ASSERT_TRUE(shinfo.set_destructor_arg(*ubuf_mem).ok());

  RecordingInvoker invoker;
  ASSERT_TRUE(machine_.skb_alloc().FreeSkb(std::move(*skb), &invoker).ok());
  ASSERT_EQ(invoker.calls.size(), 1u);
  EXPECT_EQ(invoker.calls[0].first.value, 0xffffffff81000010ULL);
  EXPECT_EQ(invoker.calls[0].second, *ubuf_mem);
}

TEST_F(NetFixture, FreeSkbWithoutDestructorInvokesNothing) {
  machine_.frag_pool(CpuId{0});
  auto skb = machine_.skb_alloc().NetdevAllocSkb(CpuId{0}, 512, "rx");
  ASSERT_TRUE(skb.ok());
  RecordingInvoker invoker;
  ASSERT_TRUE(machine_.skb_alloc().FreeSkb(std::move(*skb), &invoker).ok());
  EXPECT_TRUE(invoker.calls.empty());
}

TEST_F(NetFixture, FreeSkbReleasesFragBuffers) {
  machine_.frag_pool(CpuId{0});
  auto& pool = machine_.frag_pool(CpuId{0});
  const uint64_t live_before = pool.live_frags();
  auto skb = machine_.skb_alloc().NetdevAllocSkb(CpuId{0}, 256, "rx");
  ASSERT_TRUE(skb.ok());
  auto frag_buf = pool.Alloc(700, 64, "frag");
  ASSERT_TRUE(frag_buf.ok());
  auto phys = machine_.layout().DirectMapKvaToPhys(*frag_buf);
  FragRef frag{machine_.layout().StructPageKva(phys->pfn()),
               static_cast<uint32_t>(phys->page_offset()), 700};
  ASSERT_TRUE(machine_.skb_alloc()
                  .AddFrag(**skb, frag, OwnedBuffer{*frag_buf, BufSource::kPageFrag, CpuId{0}})
                  .ok());
  EXPECT_EQ(pool.live_frags(), live_before + 2);
  ASSERT_TRUE(machine_.skb_alloc().FreeSkb(std::move(*skb), nullptr).ok());
  EXPECT_EQ(pool.live_frags(), live_before);
}

// ---- NIC driver ----------------------------------------------------------------

class DriverFixture : public NetFixture {
 protected:
  net::NicDriver& MakeDriver(bool unmap_before_build, uint32_t ring = 8) {
    NicDriver::Config config;
    config.name = "tnic";
    config.rx_ring_size = ring;
    config.unmap_before_build = unmap_before_build;
    NicDriver& driver = machine_.AddNicDriver(config);
    device_ = std::make_unique<TestNicDevice>(driver.device_id(), machine_.iommu());
    driver.AttachDevice(device_.get());
    return driver;
  }

  Result<SkBuffPtr> InjectAndComplete(NicDriver& driver, const PacketHeader& header,
                                      std::span<const uint8_t> payload) {
    Result<uint32_t> index = device_->InjectRx(machine_.kmem(), header, payload);
    if (!index.ok()) {
      return index.status();
    }
    return driver.CompleteRx(*index,
                             static_cast<uint32_t>(PacketHeader::kSize + payload.size()));
  }

  std::unique_ptr<TestNicDevice> device_;
};

TEST_F(DriverFixture, FillRxRingPostsAllDescriptors) {
  NicDriver& driver = MakeDriver(true);
  ASSERT_TRUE(driver.FillRxRing().ok());
  EXPECT_EQ(device_->rx_posted().size(), 8u);
  // Every posted buffer is device-writable.
  std::vector<uint8_t> probe(8, 0xcc);
  for (const auto& descriptor : device_->rx_posted()) {
    EXPECT_TRUE(device_->DeviceWrite(descriptor.iova, probe).ok());
  }
}

TEST_F(DriverFixture, ConsecutiveRxBuffersAliasPages) {
  // Fig 7 path (iii): ring buffers from page_frag land on shared pages, each
  // with its own IOVA.
  NicDriver& driver = MakeDriver(true);
  ASSERT_TRUE(driver.FillRxRing().ok());
  bool found_alias = false;
  for (uint32_t i = 0; i < 8; ++i) {
    auto kva = driver.RxSlotKva(i);
    ASSERT_TRUE(kva.has_value());
    auto pfn = machine_.layout().DirectMapKvaToPhys(*kva)->pfn();
    if (machine_.iommu().IovasForPfn(driver.device_id(), pfn).size() >= 2) {
      found_alias = true;
      break;
    }
  }
  EXPECT_TRUE(found_alias);
}

TEST_F(DriverFixture, CompleteRxParsesAndRefills) {
  NicDriver& driver = MakeDriver(true);
  ASSERT_TRUE(driver.FillRxRing().ok());
  PacketHeader header{.src_ip = 1, .dst_ip = 2, .src_port = 3, .dst_port = 4,
                      .proto = kProtoUdp, .flags = 0, .payload_len = 5, .seq = 9};
  std::vector<uint8_t> payload{10, 20, 30, 40, 50};
  auto skb = InjectAndComplete(driver, header, payload);
  ASSERT_TRUE(skb.ok());
  EXPECT_TRUE((*skb)->header_parsed);
  EXPECT_EQ((*skb)->header.dst_port, 4);
  EXPECT_EQ((*skb)->header.seq, 9u);
  EXPECT_EQ((*skb)->len, PacketHeader::kSize + 5);
  // Slot was refilled: ring still fully posted (8 initial - 1 + 1 new).
  EXPECT_EQ(device_->rx_posted().size(), 8u);
  EXPECT_EQ(driver.rx_packets(), 1u);
}

TEST_F(DriverFixture, CompleteRxValidatesArguments) {
  NicDriver& driver = MakeDriver(true);
  ASSERT_TRUE(driver.FillRxRing().ok());
  EXPECT_FALSE(driver.CompleteRx(99, 100).ok());
  EXPECT_FALSE(driver.CompleteRx(0, 4).ok());      // < header size
  EXPECT_FALSE(driver.CompleteRx(0, 100000).ok()); // > usable
  // Valid completion, then the same slot again before a new packet: rejected
  // only if not refilled — it IS refilled, so this must succeed.
  PacketHeader header{.proto = kProtoUdp};
  std::vector<uint8_t> payload(10, 1);
  auto index = device_->InjectRx(machine_.kmem(), header, payload);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(driver.CompleteRx(*index, 34).ok());
}

TEST_F(DriverFixture, WrongOrderDriverLeavesMappingLiveDuringBuild) {
  // Path (i): with unmap_before_build=false the OnRxCompleting hook fires
  // while the buffer is still device-writable, even in strict mode.
  NicDriver& driver = MakeDriver(false);
  ASSERT_TRUE(driver.FillRxRing().ok());
  PacketHeader header{.proto = kProtoUdp};
  std::vector<uint8_t> payload(16, 7);
  auto index = device_->InjectRx(machine_.kmem(), header, payload);
  ASSERT_TRUE(index.ok());
  const Iova slot_iova = *driver.RxSlotIova(*index);

  bool wrote_in_window = false;
  class WindowProbe : public NicDeviceModel {
   public:
    WindowProbe(TestNicDevice& device, Iova iova, bool& flag)
        : device_(device), iova_(iova), flag_(flag) {}
    void OnRxPosted(const RxPostedDescriptor& d) override { device_.OnRxPosted(d); }
    void OnTxPosted(const TxPostedDescriptor& d) override { device_.OnTxPosted(d); }
    void OnRxCompleting(uint32_t) override {
      std::vector<uint8_t> poison(8, 0xee);
      flag_ = device_.DeviceWrite(iova_, poison).ok();
    }
   private:
    TestNicDevice& device_;
    Iova iova_;
    bool& flag_;
  } probe{*device_, slot_iova, wrote_in_window};
  driver.AttachDevice(&probe);

  ASSERT_TRUE(driver.CompleteRx(*index, 40).ok());
  EXPECT_TRUE(wrote_in_window);
  driver.AttachDevice(device_.get());
}

TEST_F(DriverFixture, CorrectOrderDriverRevokesBeforeBuildInStrictMode) {
  NicDriver& driver = MakeDriver(true);
  ASSERT_TRUE(driver.FillRxRing().ok());
  PacketHeader header{.proto = kProtoUdp};
  std::vector<uint8_t> payload(16, 7);
  auto index = device_->InjectRx(machine_.kmem(), header, payload);
  ASSERT_TRUE(index.ok());
  const Iova slot_iova = *driver.RxSlotIova(*index);
  ASSERT_TRUE(driver.CompleteRx(*index, 40).ok());
  std::vector<uint8_t> poison(8, 0xee);
  EXPECT_FALSE(device_->DeviceWrite(slot_iova, poison).ok());
}

TEST_F(DriverFixture, TxPostMapsLinearForRead) {
  NicDriver& driver = MakeDriver(true);
  auto skb = machine_.skb_alloc().AllocSkb(128 + PacketHeader::kSize, "tx");
  ASSERT_TRUE(skb.ok());
  (*skb)->len = 128 + PacketHeader::kSize;
  ASSERT_TRUE(machine_.kmem().Fill((*skb)->data, (*skb)->len, 0x55).ok());
  auto index = driver.PostTx(std::move(*skb));
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(device_->tx_posted().size(), 1u);
  const auto& descriptor = device_->tx_posted()[0];
  std::vector<uint8_t> read(descriptor.linear_len);
  ASSERT_TRUE(device_->DeviceRead(descriptor.linear_iova, std::span<uint8_t>(read)).ok());
  for (uint8_t b : read) {
    EXPECT_EQ(b, 0x55);
  }
  // TX mapping is READ-only.
  EXPECT_FALSE(device_->DeviceWrite(descriptor.linear_iova, read).ok());
  EXPECT_EQ(driver.pending_tx(), 1u);
  auto done = driver.CompleteTx(*index);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(driver.pending_tx(), 0u);
  EXPECT_FALSE(device_->DeviceRead(descriptor.linear_iova, std::span<uint8_t>(read)).ok());
}

TEST_F(DriverFixture, TxPostMapsFragsFromSharedInfo) {
  machine_.frag_pool(CpuId{0});
  NicDriver& driver = MakeDriver(true);
  auto skb = machine_.skb_alloc().AllocSkb(64, "tx");
  ASSERT_TRUE(skb.ok());
  (*skb)->len = 64;
  auto frag_buf = machine_.frag_pool(CpuId{0}).Alloc(900, 64, "frag");
  ASSERT_TRUE(frag_buf.ok());
  ASSERT_TRUE(machine_.kmem().Fill(*frag_buf, 900, 0x99).ok());
  auto phys = machine_.layout().DirectMapKvaToPhys(*frag_buf);
  FragRef frag{machine_.layout().StructPageKva(phys->pfn()),
               static_cast<uint32_t>(phys->page_offset()), 900};
  ASSERT_TRUE(machine_.skb_alloc()
                  .AddFrag(**skb, frag, OwnedBuffer{*frag_buf, BufSource::kPageFrag, CpuId{0}})
                  .ok());
  auto index = driver.PostTx(std::move(*skb));
  ASSERT_TRUE(index.ok());
  const auto& descriptor = device_->tx_posted()[0];
  ASSERT_EQ(descriptor.frag_iovas.size(), 1u);
  std::vector<uint8_t> read(900);
  ASSERT_TRUE(device_->DeviceRead(descriptor.frag_iovas[0], std::span<uint8_t>(read)).ok());
  EXPECT_EQ(read[0], 0x99);
  EXPECT_EQ(read[899], 0x99);
}

TEST_F(DriverFixture, TxTimeoutResetsRing) {
  NicDriver& driver = MakeDriver(true);
  auto skb = machine_.skb_alloc().AllocSkb(64, "tx");
  ASSERT_TRUE(skb.ok());
  (*skb)->len = 64;
  ASSERT_TRUE(driver.PostTx(std::move(*skb)).ok());
  EXPECT_EQ(driver.CheckTxTimeout(), 0u);
  machine_.clock().AdvanceUs(6 * 1000 * 1000);  // 6 s > 5 s timeout
  EXPECT_EQ(driver.CheckTxTimeout(), 1u);
  EXPECT_EQ(driver.pending_tx(), 0u);
  EXPECT_EQ(driver.tx_resets(), 1u);
}

TEST(NicTxRequeue, FreesAnSkbAfterThreeFailedReposts) {
  // Watchdog-flushed skbs wait on the requeue list; each gets three tries at
  // a full ring before the driver gives up and frees it.
  core::MachineConfig machine_config;
  machine_config.seed = 2024;
  machine_config.telemetry.enabled = true;  // links the driver's drop tally
  core::Machine machine{machine_config};
  NicDriver::Config config;
  config.name = "tnic";
  config.tx_ring_size = 2;
  NicDriver& driver = machine.AddNicDriver(config);
  TestNicDevice device{driver.device_id(), machine.iommu()};
  driver.AttachDevice(&device);
  auto post = [&] {
    auto skb = machine.skb_alloc().AllocSkb(64, "tx");
    ASSERT_TRUE(skb.ok());
    (*skb)->len = 64;
    ASSERT_TRUE(driver.PostTx(std::move(*skb)).ok());
  };
  auto dropped = [&] { return machine.telemetry().counter_value("nic.tx_requeue_dropped"); };

  post();
  post();
  machine.clock().AdvanceUs(6 * 1000 * 1000);  // 6 s > 5 s timeout
  EXPECT_EQ(driver.CheckTxTimeout(), 2u);
  EXPECT_EQ(driver.tx_requeue_depth(), 2u);
  post();  // refill the ring: every repost now fails
  post();
  for (int attempt = 1; attempt <= 2; ++attempt) {
    EXPECT_EQ(driver.RequeueTimedOut(), 0u);
    EXPECT_EQ(driver.tx_requeue_depth(), 2u) << "attempt " << attempt;
    EXPECT_EQ(dropped(), 0u) << "attempt " << attempt;
  }
  EXPECT_EQ(driver.RequeueTimedOut(), 0u);
  EXPECT_EQ(driver.tx_requeue_depth(), 1u);  // the head skb is gone
  EXPECT_EQ(dropped(), 1u);
}

TEST_F(DriverFixture, XdpRxBuffersMappedBidirectional) {
  // §5.1: XDP maps RX buffers BIDIRECTIONAL — the device can now *read* RX
  // pages too (leak channel on top of the usual write access).
  NicDriver::Config config;
  config.name = "xdp_nic";
  config.rx_ring_size = 4;
  config.xdp = true;
  NicDriver& driver = machine_.AddNicDriver(config);
  auto device = std::make_unique<TestNicDevice>(driver.device_id(), machine_.iommu());
  driver.AttachDevice(device.get());
  ASSERT_TRUE(driver.FillRxRing().ok());
  const auto& descriptor = device->rx_posted().front();
  std::vector<uint8_t> buf(16);
  EXPECT_TRUE(device->DeviceRead(descriptor.iova, std::span<uint8_t>(buf)).ok());
  EXPECT_TRUE(device->DeviceWrite(descriptor.iova, buf).ok());
}

TEST_F(DriverFixture, NonXdpRxBuffersAreWriteOnly) {
  NicDriver& driver = MakeDriver(true, 4);
  ASSERT_TRUE(driver.FillRxRing().ok());
  const auto& descriptor = device_->rx_posted().front();
  std::vector<uint8_t> buf(16);
  EXPECT_FALSE(device_->DeviceRead(descriptor.iova, std::span<uint8_t>(buf)).ok());
  EXPECT_TRUE(device_->DeviceWrite(descriptor.iova, buf).ok());
}

TEST_F(NetFixture, CloneSharesDataAndDefersRelease) {
  // §5.1: "the resulting sk_buff and the original one share the data buffer".
  machine_.frag_pool(CpuId{0});
  auto& pool = machine_.frag_pool(CpuId{0});
  const uint64_t live_before = pool.live_frags();
  auto skb = machine_.skb_alloc().NetdevAllocSkb(CpuId{0}, 512, "rx");
  ASSERT_TRUE(skb.ok());
  (*skb)->len = 100;
  auto clone = machine_.skb_alloc().CloneSkb(**skb);
  ASSERT_TRUE(clone.ok());
  EXPECT_EQ((*clone)->head, (*skb)->head);
  EXPECT_EQ((*clone)->shared_info(), (*skb)->shared_info());
  SharedInfoView shinfo{machine_.kmem(), (*skb)->shared_info()};
  EXPECT_EQ(*shinfo.dataref(), 2u);

  // Plant a destructor: it must fire exactly once, on the LAST free.
  auto ubuf_mem = machine_.slab().Kmalloc(UbufInfoLayout::kSize, "ubuf");
  ASSERT_TRUE(ubuf_mem.ok());
  UbufInfoView ubuf{machine_.kmem(), *ubuf_mem};
  ASSERT_TRUE(ubuf.set_callback(Kva{0xffffffff81000010ULL}).ok());
  ASSERT_TRUE(shinfo.set_destructor_arg(*ubuf_mem).ok());

  RecordingInvoker invoker;
  ASSERT_TRUE(machine_.skb_alloc().FreeSkb(std::move(*skb), &invoker).ok());
  EXPECT_TRUE(invoker.calls.empty());               // clone still holds a ref
  EXPECT_EQ(pool.live_frags(), live_before + 1);    // buffer still alive
  ASSERT_TRUE(machine_.skb_alloc().FreeSkb(std::move(*clone), &invoker).ok());
  EXPECT_EQ(invoker.calls.size(), 1u);              // destructor on last ref
  EXPECT_EQ(pool.live_frags(), live_before);        // buffer released once
}

class CountingXdp : public XdpProgram {
 public:
  explicit CountingXdp(XdpVerdict verdict) : verdict_(verdict) {}
  XdpVerdict Run(dma::KernelMemory& kmem, Kva data, uint32_t len) override {
    ++runs;
    last_len = len;
    if (rewrite) {
      (void)kmem.WriteU8(data + PacketHeader::kSize, 0xfe);  // in-place rewrite
    }
    return verdict_;
  }
  int runs = 0;
  uint32_t last_len = 0;
  bool rewrite = false;

 private:
  XdpVerdict verdict_;
};

class XdpFixture : public DriverFixture {
 protected:
  NicDriver& MakeXdpDriver(XdpProgram* program) {
    NicDriver::Config config;
    config.name = "xdp_nic";
    config.rx_ring_size = 8;
    config.rx_buf_len = 1728;
    config.xdp = true;
    NicDriver& driver = machine_.AddNicDriver(config);
    device_ = std::make_unique<TestNicDevice>(driver.device_id(), machine_.iommu());
    driver.AttachDevice(device_.get());
    driver.AttachXdp(program);
    EXPECT_TRUE(driver.FillRxRing().ok());
    return driver;
  }

  Result<SkBuffPtr> Inject(NicDriver& driver, uint32_t payload_len) {
    PacketHeader header{.dst_ip = 1, .dst_port = 9, .proto = kProtoUdp};
    std::vector<uint8_t> payload(payload_len, 0x21);
    auto index = device_->InjectRx(machine_.kmem(), header, payload);
    if (!index.ok()) {
      return index.status();
    }
    return driver.CompleteRx(*index, PacketHeader::kSize + payload_len);
  }
};

TEST_F(XdpFixture, XdpDropConsumesPacketAndRefills) {
  CountingXdp program{XdpVerdict::kDrop};
  NicDriver& driver = MakeXdpDriver(&program);
  auto result = Inject(driver, 64);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->get(), nullptr);  // consumed by XDP
  EXPECT_EQ(program.runs, 1);
  EXPECT_EQ(program.last_len, PacketHeader::kSize + 64);
  EXPECT_EQ(driver.xdp_drops(), 1u);
  EXPECT_EQ(device_->rx_posted().size(), 8u);  // ring stays full
}

TEST_F(XdpFixture, XdpTxBouncesRewrittenPacket) {
  CountingXdp program{XdpVerdict::kTx};
  program.rewrite = true;
  NicDriver& driver = MakeXdpDriver(&program);
  auto result = Inject(driver, 64);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->get(), nullptr);
  EXPECT_EQ(driver.xdp_tx(), 1u);
  ASSERT_EQ(device_->tx_posted().size(), 1u);
  // The bounced packet carries the XDP rewrite.
  const auto& descriptor = device_->tx_posted()[0];
  std::vector<uint8_t> wire(descriptor.linear_len);
  ASSERT_TRUE(device_->DeviceRead(descriptor.linear_iova, std::span<uint8_t>(wire)).ok());
  EXPECT_EQ(wire[PacketHeader::kSize], 0xfe);
}

TEST_F(XdpFixture, XdpPassDeliversNormally) {
  CountingXdp program{XdpVerdict::kPass};
  NicDriver& driver = MakeXdpDriver(&program);
  auto result = Inject(driver, 64);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->get(), nullptr);
  EXPECT_TRUE((*result)->header_parsed);
  ASSERT_TRUE(machine_.skb_alloc().FreeSkb(std::move(*result), nullptr).ok());
}

TEST_F(NetFixture, PerCpuFragPoolsAreIsolated) {
  // §5.2.2: each RX ring is served by its own per-CPU buffer — buffers of
  // different rings never co-reside on a page.
  auto& pool0 = machine_.frag_pool(CpuId{0});
  auto& pool1 = machine_.frag_pool(CpuId{1});
  std::set<uint64_t> pages0;
  std::set<uint64_t> pages1;
  for (int i = 0; i < 16; ++i) {
    pages0.insert(pool0.Alloc(2048, 64, "ring0")->PageBase().value);
    pages1.insert(pool1.Alloc(2048, 64, "ring1")->PageBase().value);
  }
  for (uint64_t page : pages0) {
    EXPECT_FALSE(pages1.contains(page)) << "cross-CPU page sharing";
  }
}

TEST_F(DriverFixture, SyncOnlyDriverNeverRevokesAccess) {
  // Real i40e page reuse: CompleteRx syncs instead of unmapping, so even in
  // STRICT mode the device retains write access to the skb's page forever.
  NicDriver::Config config;
  config.name = "i40e_reuse";
  config.rx_ring_size = 4;
  config.sync_only_rx = true;
  NicDriver& driver = machine_.AddNicDriver(config);
  auto device = std::make_unique<TestNicDevice>(driver.device_id(), machine_.iommu());
  driver.AttachDevice(device.get());
  ASSERT_TRUE(driver.FillRxRing().ok());

  const auto descriptor = device->rx_posted().front();
  PacketHeader header{.dst_ip = 1, .dst_port = 9, .proto = kProtoUdp};
  std::vector<uint8_t> payload(32, 1);
  auto index = device->InjectRx(machine_.kmem(), header, payload);
  ASSERT_TRUE(index.ok());
  auto skb = driver.CompleteRx(*index, PacketHeader::kSize + 32);
  ASSERT_TRUE(skb.ok());

  // The IOMMU is strict, the packet is long delivered — and the mapping is
  // still live: the device rewrites the skb's shared_info at will.
  std::vector<uint8_t> poison(8, 0xee);
  const uint64_t shinfo_off = (*skb)->shared_info() - (*skb)->head;
  EXPECT_TRUE(device
                  ->DeviceWrite(descriptor.iova + shinfo_off +
                                    SharedInfoLayout::kDestructorArg,
                                poison)
                  .ok());
  SharedInfoView shinfo{machine_.kmem(), (*skb)->shared_info()};
  EXPECT_EQ(*shinfo.destructor_arg(), 0xeeeeeeeeeeeeeeeeULL);
  EXPECT_GT(machine_.dma().live_mappings(), 0u);
}

TEST_F(DriverFixture, DmaSyncValidatesMapping) {
  NicDriver& driver = MakeDriver(true, 4);
  ASSERT_TRUE(driver.FillRxRing().ok());
  const auto descriptor = device_->rx_posted().front();
  // Correct sync on a live RX mapping.
  EXPECT_TRUE(machine_.dma()
                  .SyncSingleForCpu(driver.device_id(), descriptor.iova,
                                    descriptor.buf_len, dma::DmaDirection::kFromDevice)
                  .ok());
  // Wrong direction / unknown IOVA rejected.
  EXPECT_FALSE(machine_.dma()
                   .SyncSingleForCpu(driver.device_id(), descriptor.iova,
                                     descriptor.buf_len, dma::DmaDirection::kToDevice)
                   .ok());
  EXPECT_FALSE(machine_.dma()
                   .SyncSingleForDevice(driver.device_id(), Iova{0xdead000}, 64,
                                        dma::DmaDirection::kFromDevice)
                   .ok());
}

TEST_F(DriverFixture, LroDriverUsesHugeBuffers) {
  NicDriver::Config config;
  config.name = "mlx4_15";
  config.hw_lro = true;
  config.rx_ring_size = 4;
  NicDriver& driver = machine_.AddNicDriver(config);
  EXPECT_EQ(driver.rx_buffer_bytes(), NicDriver::kLroBufBytes);
  EXPECT_EQ(driver.rx_ring_memory_bytes(), 4u * 64u * 1024u);
}

// ---- GRO ------------------------------------------------------------------------

class StackFixture : public DriverFixture {
 protected:
  StackFixture() = default;

  void SetUpStack() {
    rx_driver_ = &MakeDriver(true, 32);
    // Separate egress driver with its own device.
    NicDriver::Config config;
    config.name = "tx_nic";
    config.cpu = CpuId{0};
    tx_driver_ = &machine_.AddNicDriver(config);
    tx_device_ = std::make_unique<TestNicDevice>(tx_driver_->device_id(), machine_.iommu());
    tx_driver_->AttachDevice(tx_device_.get());
    ASSERT_TRUE(rx_driver_->FillRxRing().ok());
    machine_.stack().set_egress(tx_driver_);
  }

  Status InjectAndReceive(const PacketHeader& header, std::span<const uint8_t> payload) {
    Result<uint32_t> index = device_->InjectRx(machine_.kmem(), header, payload);
    if (!index.ok()) {
      return index.status();
    }
    Result<SkBuffPtr> skb = rx_driver_->CompleteRx(
        *index, static_cast<uint32_t>(PacketHeader::kSize + payload.size()));
    if (!skb.ok()) {
      return skb.status();
    }
    return machine_.stack().NapiGroReceive(std::move(*skb));
  }

  NicDriver* rx_driver_ = nullptr;
  NicDriver* tx_driver_ = nullptr;
  std::unique_ptr<TestNicDevice> tx_device_;
};

TEST_F(StackFixture, GroAggregatesTcpSegmentsIntoFrags) {
  GroEngine gro{machine_.kmem(), machine_.skb_alloc()};
  machine_.frag_pool(CpuId{0});
  SetUpStack();

  PacketHeader header{.src_ip = 7, .dst_ip = 8, .src_port = 100, .dst_port = 200,
                      .proto = kProtoTcp};
  std::vector<SkBuffPtr> segments;
  for (int i = 0; i < 4; ++i) {
    header.seq = static_cast<uint32_t>(i * 100);
    std::vector<uint8_t> payload(100, static_cast<uint8_t>(i + 1));
    auto index = device_->InjectRx(machine_.kmem(), header, payload);
    ASSERT_TRUE(index.ok());
    auto skb = rx_driver_->CompleteRx(*index, PacketHeader::kSize + 100);
    ASSERT_TRUE(skb.ok());
    auto out = gro.Receive(std::move(*skb));
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out->get());  // still coalescing
  }
  EXPECT_EQ(gro.merged_segments(), 3u);
  auto flushed = gro.FlushAll();
  ASSERT_EQ(flushed.size(), 1u);
  SkBuff& head = *flushed[0];
  SharedInfoView shinfo{machine_.kmem(), head.shared_info()};
  EXPECT_EQ(*shinfo.nr_frags(), 3);
  EXPECT_EQ(head.data_len, 300u);
  // Payload reassembles in order.
  auto payload = machine_.stack().ReadPayload(head);
  ASSERT_TRUE(payload.ok());
  ASSERT_EQ(payload->size(), 400u);
  EXPECT_EQ((*payload)[0], 1);
  EXPECT_EQ((*payload)[100], 2);
  EXPECT_EQ((*payload)[399], 4);
  ASSERT_TRUE(machine_.skb_alloc().FreeSkb(std::move(flushed[0]), nullptr).ok());
}

TEST_F(StackFixture, GroPassesThroughNonTcp) {
  GroEngine gro{machine_.kmem(), machine_.skb_alloc()};
  SetUpStack();
  PacketHeader header{.proto = kProtoUdp};
  std::vector<uint8_t> payload(20, 1);
  auto index = device_->InjectRx(machine_.kmem(), header, payload);
  ASSERT_TRUE(index.ok());
  auto skb = rx_driver_->CompleteRx(*index, PacketHeader::kSize + 20);
  ASSERT_TRUE(skb.ok());
  auto out = gro.Receive(std::move(*skb));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->get() != nullptr);  // passed straight through
  ASSERT_TRUE(machine_.skb_alloc().FreeSkb(std::move(*out), nullptr).ok());
}

TEST_F(StackFixture, GroFlushesWhenFragsFull) {
  GroEngine gro{machine_.kmem(), machine_.skb_alloc()};
  SetUpStack();
  PacketHeader header{.src_ip = 1, .dst_ip = 2, .src_port = 3, .dst_port = 4,
                      .proto = kProtoTcp};
  std::vector<uint8_t> payload(50, 9);
  SkBuffPtr aggregated;
  int sent = 0;
  // head + 17 frags = 18 packets absorbed; the 19th forces a flush.
  for (int i = 0; i < 19; ++i) {
    auto index = device_->InjectRx(machine_.kmem(), header, payload);
    ASSERT_TRUE(index.ok());
    auto skb = rx_driver_->CompleteRx(*index, PacketHeader::kSize + 50);
    ASSERT_TRUE(skb.ok());
    auto out = gro.Receive(std::move(*skb));
    ASSERT_TRUE(out.ok());
    ++sent;
    if (out->get() != nullptr) {
      aggregated = std::move(*out);
      break;
    }
  }
  ASSERT_TRUE(aggregated != nullptr);
  EXPECT_EQ(sent, 19);
  SharedInfoView shinfo{machine_.kmem(), aggregated->shared_info()};
  EXPECT_EQ(*shinfo.nr_frags(), kMaxSkbFrags);
  ASSERT_TRUE(machine_.skb_alloc().FreeSkb(std::move(aggregated), nullptr).ok());
  for (auto& rest : gro.FlushAll()) {
    ASSERT_TRUE(machine_.skb_alloc().FreeSkb(std::move(rest), nullptr).ok());
  }
}

// ---- NetworkStack ------------------------------------------------------------------

TEST_F(StackFixture, SocketObjectLeaksInitNetPointer) {
  SetUpStack();
  auto sock = machine_.stack().CreateSocket(8080, false);
  ASSERT_TRUE(sock.ok());
  // sk->sk_net at offset 8 holds the init_net KVA (§2.4).
  EXPECT_EQ(*machine_.kmem().ReadU64(*sock + 8), machine_.stack().init_net_kva().value);
  // And init_net's low 21 bits are boot-invariant.
  EXPECT_EQ(machine_.stack().init_net_kva().value & ((1 << 21) - 1),
            mem::kSymInitNet & ((1 << 21) - 1));
  EXPECT_FALSE(machine_.stack().CreateSocket(8080, false).ok());  // port taken
}

TEST_F(StackFixture, DeliveryToLocalSocket) {
  SetUpStack();
  ASSERT_TRUE(machine_.stack().CreateSocket(80, false).ok());
  PacketHeader header{.src_ip = 99, .dst_ip = machine_.stack().config().local_ip,
                      .src_port = 1234, .dst_port = 80, .proto = kProtoUdp};
  std::vector<uint8_t> payload(10, 3);
  ASSERT_TRUE(InjectAndReceive(header, payload).ok());
  EXPECT_EQ(machine_.stack().stats().rx_delivered, 1u);
}

TEST_F(StackFixture, OverClaimedPayloadLengthIsDropped) {
  // The device writes a header claiming 64 payload bytes but completes the
  // frame 48 bytes short: the stack must drop it, not read past the skb.
  SetUpStack();
  ASSERT_TRUE(machine_.stack().CreateSocket(80, false).ok());
  PacketHeader header{.src_ip = 99, .dst_ip = machine_.stack().config().local_ip,
                      .src_port = 1234, .dst_port = 80, .proto = kProtoUdp};
  std::vector<uint8_t> payload(64, 3);
  auto index = device_->InjectRx(machine_.kmem(), header, payload);
  ASSERT_TRUE(index.ok());
  auto skb = rx_driver_->CompleteRx(*index, PacketHeader::kSize + 16);
  ASSERT_TRUE(skb.ok());
  ASSERT_TRUE(machine_.stack().NapiGroReceive(std::move(*skb)).ok());
  EXPECT_EQ(machine_.stack().stats().rx_length_errors, 1u);
  EXPECT_EQ(machine_.stack().stats().rx_dropped, 1u);
  EXPECT_EQ(machine_.stack().stats().rx_delivered, 0u);
}

TEST_F(StackFixture, UnknownPortDropped) {
  SetUpStack();
  PacketHeader header{.dst_ip = machine_.stack().config().local_ip, .dst_port = 4242,
                      .proto = kProtoUdp};
  std::vector<uint8_t> payload(10, 3);
  ASSERT_TRUE(InjectAndReceive(header, payload).ok());
  EXPECT_EQ(machine_.stack().stats().rx_dropped, 1u);
}

TEST_F(StackFixture, EchoServiceSendsPayloadBack) {
  // §5.4 option 1: "a userspace process can be coerced into echoing a
  // malicious buffer's contents".
  SetUpStack();
  ASSERT_TRUE(machine_.stack().CreateSocket(7, true).ok());
  PacketHeader header{.src_ip = 5, .dst_ip = machine_.stack().config().local_ip,
                      .src_port = 5555, .dst_port = 7, .proto = kProtoUdp};
  std::vector<uint8_t> payload(64);
  std::iota(payload.begin(), payload.end(), 0);
  ASSERT_TRUE(InjectAndReceive(header, payload).ok());
  EXPECT_EQ(machine_.stack().stats().echoed, 1u);
  ASSERT_EQ(tx_device_->tx_posted().size(), 1u);
  // The echoed TX packet is device-readable and carries our payload.
  const auto& descriptor = tx_device_->tx_posted()[0];
  std::vector<uint8_t> wire(descriptor.linear_len);
  ASSERT_TRUE(tx_device_->DeviceRead(descriptor.linear_iova, std::span<uint8_t>(wire)).ok());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         wire.begin() + PacketHeader::kSize));
}

TEST_F(StackFixture, LargeEchoUsesFrags) {
  // Payloads above the linear threshold go out as frags: the Figure-8 shape
  // with struct page pointers in device-readable shared_info.
  SetUpStack();
  ASSERT_TRUE(machine_.stack().CreateSocket(7, true).ok());
  PacketHeader header{.src_ip = 5, .dst_ip = machine_.stack().config().local_ip,
                      .src_port = 5555, .dst_port = 7, .proto = kProtoUdp};
  std::vector<uint8_t> payload(1400, 0xab);
  ASSERT_TRUE(InjectAndReceive(header, payload).ok());
  ASSERT_EQ(tx_device_->tx_posted().size(), 1u);
  EXPECT_FALSE(tx_device_->tx_posted()[0].frag_iovas.empty());
}

TEST_F(StackFixture, TcpStreamEchoedThroughGro) {
  // A TCP stream to the echo service: GRO aggregates the segments, the echo
  // reassembles linear+frags and sends the full payload back out.
  SetUpStack();
  ASSERT_TRUE(machine_.stack().CreateSocket(7, true).ok());
  PacketHeader header{.src_ip = 5, .dst_ip = machine_.stack().config().local_ip,
                      .src_port = 5555, .dst_port = 7, .proto = kProtoTcp};
  for (int s = 0; s < 3; ++s) {
    header.seq = static_cast<uint32_t>(s * 200);
    std::vector<uint8_t> payload(200, static_cast<uint8_t>(0x30 + s));
    ASSERT_TRUE(InjectAndReceive(header, payload).ok());
  }
  ASSERT_TRUE(machine_.stack().NapiComplete().ok());
  EXPECT_EQ(machine_.stack().stats().echoed, 1u);
  ASSERT_EQ(tx_device_->tx_posted().size(), 1u);
  // 600-byte echo: above the linear threshold, so it left in frags.
  const auto& descriptor = tx_device_->tx_posted()[0];
  ASSERT_FALSE(descriptor.frag_iovas.empty());
  std::vector<uint8_t> frag(descriptor.frag_lens[0]);
  ASSERT_TRUE(tx_device_->DeviceRead(descriptor.frag_iovas[0], std::span<uint8_t>(frag)).ok());
  EXPECT_EQ(frag[0], 0x30);  // first segment's bytes lead the reassembly
}

TEST_F(StackFixture, SendPacketSplitsLinearFromFragsAt512Bytes) {
  // A 512-byte payload still fits the linear part; one byte more and the
  // whole payload goes out in frags (the Figure-8 TX shape).
  SetUpStack();
  PacketHeader header{.src_ip = machine_.stack().config().local_ip, .dst_ip = 42,
                      .src_port = 1, .dst_port = 2, .proto = kProtoUdp};
  ASSERT_TRUE(machine_.stack().SendPacket(header, std::vector<uint8_t>(512, 0x51)).ok());
  ASSERT_TRUE(machine_.stack().SendPacket(header, std::vector<uint8_t>(513, 0x52)).ok());
  ASSERT_EQ(tx_device_->tx_posted().size(), 2u);

  const auto& linear = tx_device_->tx_posted()[0];
  EXPECT_TRUE(linear.frag_iovas.empty());
  EXPECT_EQ(linear.linear_len, PacketHeader::kSize + 512);

  const auto& fragged = tx_device_->tx_posted()[1];
  ASSERT_FALSE(fragged.frag_iovas.empty());
  EXPECT_EQ(fragged.linear_len, PacketHeader::kSize);
  uint64_t frag_bytes = 0;
  for (uint32_t len : fragged.frag_lens) {
    frag_bytes += len;
  }
  EXPECT_EQ(frag_bytes, 513u);
}

TEST_F(StackFixture, LargePayloadSplitsAcrossMultipleFrags) {
  SetUpStack();
  PacketHeader header{.src_ip = machine_.stack().config().local_ip, .dst_ip = 42,
                      .src_port = 1, .dst_port = 2, .proto = kProtoUdp};
  std::vector<uint8_t> payload(5000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i & 0xff);
  }
  ASSERT_TRUE(machine_.stack().SendPacket(header, payload).ok());
  ASSERT_EQ(tx_device_->tx_posted().size(), 1u);
  const auto& descriptor = tx_device_->tx_posted()[0];
  EXPECT_EQ(descriptor.frag_iovas.size(), 3u);  // 2048+2048+904
  // Concatenated frags reproduce the payload.
  std::vector<uint8_t> reassembled;
  for (size_t j = 0; j < descriptor.frag_iovas.size(); ++j) {
    std::vector<uint8_t> chunk(descriptor.frag_lens[j]);
    ASSERT_TRUE(
        tx_device_->DeviceRead(descriptor.frag_iovas[j], std::span<uint8_t>(chunk)).ok());
    reassembled.insert(reassembled.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(reassembled, payload);
}

TEST_F(NetFixture, SharedInfoFieldFuzzRoundTrip) {
  machine_.frag_pool(CpuId{0});
  auto buf = machine_.slab().Kmalloc(512, "shinfo_fuzz");
  ASSERT_TRUE(buf.ok());
  SharedInfoView shinfo{machine_.kmem(), *buf};
  ASSERT_TRUE(shinfo.Initialize().ok());
  Xoshiro256 rng{0xf00d};
  for (int round = 0; round < 200; ++round) {
    const uint8_t nr = static_cast<uint8_t>(rng.NextBelow(kMaxSkbFrags + 1));
    const uint64_t arg = rng.Next();
    const uint16_t gso = static_cast<uint16_t>(rng.Next());
    const uint32_t dataref = static_cast<uint32_t>(rng.Next());
    FragRef frag{Kva{rng.Next()}, static_cast<uint32_t>(rng.NextBelow(kPageSize)),
                 static_cast<uint32_t>(rng.NextBelow(65536))};
    const uint8_t idx = static_cast<uint8_t>(rng.NextBelow(kMaxSkbFrags));
    ASSERT_TRUE(shinfo.set_nr_frags(nr).ok());
    ASSERT_TRUE(shinfo.set_destructor_arg(Kva{arg}).ok());
    ASSERT_TRUE(shinfo.set_gso_size(gso).ok());
    ASSERT_TRUE(shinfo.set_dataref(dataref).ok());
    ASSERT_TRUE(shinfo.set_frag(idx, frag).ok());
    EXPECT_EQ(*shinfo.nr_frags(), nr);
    EXPECT_EQ(*shinfo.destructor_arg(), arg);
    EXPECT_EQ(*shinfo.gso_size(), gso);
    EXPECT_EQ(*shinfo.dataref(), dataref);
    auto back = shinfo.frag(idx);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->struct_page.value, frag.struct_page.value);
    EXPECT_EQ(back->page_offset, frag.page_offset);
    EXPECT_EQ(back->size, frag.size);
  }
}

TEST_F(StackFixture, TxCompletionFreesAndInvokesCallback) {
  SetUpStack();
  RecordingInvoker invoker;
  machine_.stack().set_callback_invoker(&invoker);
  PacketHeader header{.src_ip = machine_.stack().config().local_ip, .dst_ip = 42,
                      .src_port = 1, .dst_port = 2, .proto = kProtoUdp};
  std::vector<uint8_t> payload(32, 1);
  ASSERT_TRUE(machine_.stack().SendPacket(header, payload).ok());
  ASSERT_EQ(tx_device_->tx_posted().size(), 1u);
  const uint64_t freed_before = machine_.skb_alloc().skbs_freed();
  ASSERT_TRUE(machine_.stack().OnTxCompleted(tx_device_->tx_posted()[0].index).ok());
  EXPECT_EQ(machine_.skb_alloc().skbs_freed(), freed_before + 1);
  EXPECT_TRUE(invoker.calls.empty());  // clean packet: no destructor planted
}

}  // namespace
}  // namespace spv::net
