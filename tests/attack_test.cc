// Integration tests for the attack framework: NX-enforcing MiniCpu, KASLR
// subversion, poison images, window probing, and the three compound attacks
// of §5.3–§5.5 end to end.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "attack/attacks.h"
#include "attack/kaslr_break.h"
#include "attack/mini_cpu.h"
#include "attack/poison.h"
#include "core/machine.h"
#include "device/malicious_nic.h"
#include "mem/kernel_symbols.h"
#include "net/layouts.h"

namespace spv::attack {
namespace {

// i40e-style half-page RX buffers: truesize exactly 2048, so buffers pack two
// per page and skb_shared_info never straddles a page boundary.
constexpr uint32_t kHalfPageBufLen = 1728;

core::MachineConfig VictimConfig(uint64_t seed, bool forwarding,
                                 iommu::InvalidationMode mode) {
  core::MachineConfig config;
  config.seed = seed;
  config.iommu.mode = mode;
  config.net.forwarding_enabled = forwarding;
  return config;
}

net::NicDriver::Config DriverConfig(bool unmap_before_build = true) {
  net::NicDriver::Config config;
  config.name = "victim_nic";
  config.rx_ring_size = 32;
  config.rx_buf_len = kHalfPageBufLen;
  config.unmap_before_build = unmap_before_build;
  return config;
}

// Full victim + attacker rig.
struct Rig {
  explicit Rig(core::MachineConfig machine_config,
               net::NicDriver::Config driver_config = DriverConfig())
      : machine(machine_config),
        nic(machine.AddNicDriver(driver_config)),
        device(device::DevicePort{machine.iommu(), nic.device_id()}),
        cpu(machine.kmem(), machine.layout()) {
    device.set_warm_iotlb_on_post(true);
    nic.AttachDevice(&device);
    machine.stack().set_egress(&nic);
    machine.stack().set_callback_invoker(&cpu);
  }

  AttackEnv env() { return AttackEnv{machine, nic, device, cpu}; }

  core::Machine machine;
  net::NicDriver& nic;
  device::MaliciousNic device;
  MiniCpu cpu;
};

// ---- MiniCpu ------------------------------------------------------------------

class MiniCpuTest : public ::testing::Test {
 protected:
  MiniCpuTest()
      : machine_(VictimConfig(11, false, iommu::InvalidationMode::kStrict)),
        cpu_(machine_.kmem(), machine_.layout()) {}

  void TearDown() override {
    Status invariants = machine_.CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.message();
  }

  core::Machine machine_;
  MiniCpu cpu_;
};

TEST_F(MiniCpuTest, NxBlocksDirectCodeInjection) {
  // Pointing the callback at data (the classic naive injection) must fault.
  auto buf = machine_.slab().Kmalloc(256, "shellcode");
  ASSERT_TRUE(buf.ok());
  Status s = cpu_.InvokeCallback(*buf, Kva{0});
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(cpu_.nx_faults(), 1u);
  EXPECT_FALSE(cpu_.privilege_escalated());
}

TEST_F(MiniCpuTest, NullCallbackIsAnOops) {
  EXPECT_FALSE(cpu_.InvokeCallback(Kva{0}, Kva{0}).ok());
  EXPECT_EQ(cpu_.wild_jumps(), 1u);
}

TEST_F(MiniCpuTest, WildTextJumpIsAnOops) {
  const Kva somewhere_in_text = Kva{machine_.layout().text_base() + 0x777};
  EXPECT_FALSE(cpu_.InvokeCallback(somewhere_in_text, Kva{0}).ok());
  EXPECT_EQ(cpu_.wild_jumps(), 1u);
}

TEST_F(MiniCpuTest, BenignDestructorRunsCleanly) {
  const Kva benign = Kva{machine_.layout().text_base() + kSymBenignUbufDestructor};
  EXPECT_TRUE(cpu_.InvokeCallback(benign, Kva{0x1234}).ok());
  EXPECT_EQ(cpu_.benign_callbacks(), 1u);
  EXPECT_FALSE(cpu_.privilege_escalated());
}

TEST_F(MiniCpuTest, JopPivotIntoRopChainEscalates) {
  // Hand-build the poison in kernel memory and fire the callback the way
  // FreeSkb would (§6).
  auto buf = machine_.slab().Kmalloc(PoisonLayout::kImageBytes, "poison");
  ASSERT_TRUE(buf.ok());
  KaslrKnowledge knowledge;
  knowledge.text_base = machine_.layout().text_base();
  auto image = BuildPoisonImage(knowledge, buf->value);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(machine_.kmem().Write(*buf, *image).ok());

  const Kva pivot = Kva{machine_.layout().text_base() + mem::kSymJopStackPivot};
  ASSERT_TRUE(cpu_.InvokeCallback(pivot, *buf).ok());
  EXPECT_TRUE(cpu_.privilege_escalated());
  // Trace shows the full chain.
  ASSERT_GE(cpu_.trace().size(), 4u);
  EXPECT_EQ(cpu_.trace()[0].what, "jop: rsp = rdi + const");
}

TEST_F(MiniCpuTest, CommitCredsWithoutPreparedCredDoesNotEscalate) {
  auto buf = machine_.slab().Kmalloc(128, "chain");
  ASSERT_TRUE(buf.ok());
  // Chain: commit_creds directly (rdi is the ubuf pointer, not a cred).
  const uint64_t commit = machine_.layout().text_base() + mem::kSymCommitCreds;
  ASSERT_TRUE(machine_.kmem().WriteU64(*buf + 64, commit).ok());
  ASSERT_TRUE(machine_.kmem().WriteU64(*buf + 72, 0).ok());
  const Kva pivot = Kva{machine_.layout().text_base() + mem::kSymJopStackPivot};
  ASSERT_TRUE(cpu_.InvokeCallback(pivot, *buf).ok());
  EXPECT_FALSE(cpu_.privilege_escalated());
}

TEST_F(MiniCpuTest, CetBlocksJopPivotButAllowsLegitCallbacks) {
  // §8: CET's shadow stack + ENDBR marking kill ROP/JOP at the first gadget.
  cpu_.set_cet_enabled(true);
  auto buf = machine_.slab().Kmalloc(PoisonLayout::kImageBytes, "poison");
  ASSERT_TRUE(buf.ok());
  KaslrKnowledge knowledge;
  knowledge.text_base = machine_.layout().text_base();
  auto image = BuildPoisonImage(knowledge, buf->value);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(machine_.kmem().Write(*buf, *image).ok());

  const Kva pivot = Kva{machine_.layout().text_base() + mem::kSymJopStackPivot};
  EXPECT_FALSE(cpu_.InvokeCallback(pivot, *buf).ok());
  EXPECT_FALSE(cpu_.privilege_escalated());
  EXPECT_EQ(cpu_.cet_violations(), 1u);

  // Legitimate whole-function callbacks still run (they carry ENDBR).
  const Kva benign = Kva{machine_.layout().text_base() + kSymBenignUbufDestructor};
  EXPECT_TRUE(cpu_.InvokeCallback(benign, Kva{0x1}).ok());
  EXPECT_EQ(cpu_.benign_callbacks(), 1u);
}

TEST(CetEndToEndTest, PoisonedTxBlockedByCet) {
  Rig rig{VictimConfig(45, false, iommu::InvalidationMode::kDeferred)};
  rig.cpu.set_cet_enabled(true);
  ASSERT_TRUE(rig.machine.stack().CreateSocket(7, true).ok());
  ASSERT_TRUE(rig.nic.FillRxRing().ok());
  auto report = PoisonedTxAttack::Run(rig.env(), {});
  ASSERT_TRUE(report.ok());
  // The attacker completes all three attributes, but the payload dies on the
  // first indirect branch.
  EXPECT_TRUE(report->attributes.complete());
  EXPECT_FALSE(report->success);
  EXPECT_GE(rig.cpu.cet_violations(), 1u);
}

TEST_F(MiniCpuTest, RunawayChainHitsStepBudget) {
  auto buf = machine_.slab().Kmalloc(1024, "loop");
  ASSERT_TRUE(buf.ok());
  const uint64_t ret = machine_.layout().text_base() + mem::kSymGadgetRet;
  for (uint64_t i = 0; i < 128; ++i) {
    ASSERT_TRUE(machine_.kmem().WriteU64(*buf + 64 + i * 8, ret).ok());
  }
  const Kva pivot = Kva{machine_.layout().text_base() + mem::kSymJopStackPivot};
  EXPECT_FALSE(cpu_.InvokeCallback(pivot, *buf).ok());
}

// ---- KaslrBreaker ----------------------------------------------------------------

TEST(KaslrBreakerTest, RecoversAllBasesFromLeakedPointers) {
  Xoshiro256 rng{77};
  mem::KernelLayout layout = mem::KernelLayout::Create(16384, /*kaslr=*/true, rng);
  KaslrBreaker breaker;
  const uint64_t leaked[] = {
      0x1234,                                                // noise
      layout.SymbolKva(mem::kSymInitNet).value,              // text leak
      layout.StructPageKva(Pfn{555}).value,                  // vmemmap leak
      layout.PhysToDirectMapKva(PhysAddr{0x3000}).value,     // direct-map leak
      0xffffffffffffffffULL,                                 // noise
  };
  breaker.Consume(leaked);
  ASSERT_TRUE(breaker.knowledge().complete());
  EXPECT_EQ(*breaker.knowledge().text_base, layout.text_base());
  EXPECT_EQ(*breaker.knowledge().vmemmap_base, layout.vmemmap_base());
  EXPECT_EQ(*breaker.knowledge().page_offset_base, layout.page_offset_base());
  EXPECT_EQ(breaker.stats().init_net_hits, 1u);
}

TEST(KaslrBreakerTest, TextPointerWithWrongLowBitsIsNotInitNet) {
  Xoshiro256 rng{78};
  mem::KernelLayout layout = mem::KernelLayout::Create(16384, true, rng);
  KaslrBreaker breaker;
  const uint64_t leaked[] = {layout.SymbolKva(mem::kSymCommitCreds).value};
  breaker.Consume(leaked);
  EXPECT_FALSE(breaker.knowledge().text_base.has_value());
  EXPECT_EQ(breaker.stats().text_pointers, 1u);
}

TEST(KaslrBreakerTest, TranslationsRequireKnownBases) {
  KaslrKnowledge knowledge;
  EXPECT_FALSE(knowledge.SymbolAddress(0x100).ok());
  EXPECT_FALSE(knowledge.StructPageToPfn(0xffffea0000001000ULL).ok());
  EXPECT_FALSE(knowledge.PfnToKva(5).ok());
  knowledge.vmemmap_base = 0xffffea0000000000ULL;
  auto pfn = knowledge.StructPageToPfn(0xffffea0000000000ULL + 42 * 64);
  ASSERT_TRUE(pfn.ok());
  EXPECT_EQ(*pfn, 42u);
}

TEST(KaslrBreakerTest, StructPageRoundTripThroughKnowledge) {
  Xoshiro256 rng{79};
  mem::KernelLayout layout = mem::KernelLayout::Create(16384, true, rng);
  KaslrKnowledge knowledge;
  knowledge.vmemmap_base = layout.vmemmap_base();
  knowledge.page_offset_base = layout.page_offset_base();
  const Pfn pfn{1234};
  auto kva = knowledge.StructPageToDataKva(layout.StructPageKva(pfn).value, 0x20);
  ASSERT_TRUE(kva.ok());
  EXPECT_EQ(*kva, layout.PhysToDirectMapKva(PhysAddr::FromPfn(pfn, 0x20)).value);
}

// ---- Poison image ------------------------------------------------------------------

TEST(PoisonTest, ImageLayout) {
  KaslrKnowledge knowledge;
  knowledge.text_base = mem::LayoutRanges::kTextStart + (5ull << 21);
  auto image = BuildPoisonImage(knowledge, 0xffff888000123000ULL);
  ASSERT_TRUE(image.ok());
  ASSERT_EQ(image->size(), PoisonLayout::kImageBytes);
  uint64_t callback;
  std::memcpy(&callback, image->data(), 8);
  EXPECT_EQ(callback, *knowledge.text_base + mem::kSymJopStackPivot);
  uint64_t marker;
  std::memcpy(&marker, image->data() + PoisonLayout::kMarkerOffset, 8);
  EXPECT_EQ(marker, PoisonLayout::kMarker);
}

TEST(PoisonTest, RequiresTextBase) {
  KaslrKnowledge knowledge;
  EXPECT_FALSE(BuildPoisonImage(knowledge, 0).ok());
}

// ---- Residual seeding ----------------------------------------------------------------

TEST(ResidualTest, ResidualPointersSurviveIntoFragPages) {
  core::Machine machine{VictimConfig(21, false, iommu::InvalidationMode::kDeferred)};
  ASSERT_TRUE(SeedResidualKernelData(machine, 64).ok());
  // A page_frag region allocated afterwards sits on recycled pages; scan its
  // raw contents for the planted pointers.
  auto& pool = machine.frag_pool(CpuId{0});
  int residual_hits = 0;
  for (int i = 0; i < 64; ++i) {
    auto frag = pool.Alloc(2048, 64, "rx");
    ASSERT_TRUE(frag.ok());
    auto phys = machine.layout().DirectMapKvaToPhys(*frag);
    auto page = machine.pm().PageSpan(phys->pfn());
    for (size_t off = 0; off + 8 <= page.size(); off += 8) {
      uint64_t value;
      std::memcpy(&value, page.data() + off, 8);
      if (mem::KernelLayout::ClassifyByRange(Kva{value}) == mem::Region::kKernelText ||
          mem::KernelLayout::ClassifyByRange(Kva{value}) == mem::Region::kDirectMap) {
        ++residual_hits;
      }
    }
  }
  EXPECT_GT(residual_hits, 0) << "no kernel pointers lingered on recycled I/O pages";
}

// ---- Window probing (TryPokeDestructorArg) ----------------------------------------------

class PokeTest : public ::testing::TestWithParam<iommu::InvalidationMode> {};

TEST_P(PokeTest, WindowMatchesModeAndLayout) {
  Rig rig{VictimConfig(31, false, GetParam())};
  ASSERT_TRUE(rig.nic.FillRxRing().ok());
  ASSERT_FALSE(rig.device.rx_posted().empty());
  const net::RxPostedDescriptor consumed = rig.device.rx_posted().front();

  net::PacketHeader header{.dst_ip = 1, .dst_port = 9, .proto = net::kProtoUdp};
  std::vector<uint8_t> payload(32, 1);
  auto index = rig.device.InjectRx(header, payload);
  ASSERT_TRUE(index.ok());
  auto skb = rig.nic.CompleteRx(*index, net::PacketHeader::kSize + 32);
  ASSERT_TRUE(skb.ok());

  PokeResult poke = TryPokeDestructorArg(rig.device, consumed, rig.nic.rx_buffer_bytes(),
                                         0xdeadbeefcafe0000ULL);
  ASSERT_TRUE(poke.success) << "no window in mode " << static_cast<int>(GetParam());
  if (GetParam() == iommu::InvalidationMode::kDeferred) {
    // Fig 7 (ii): the stale IOTLB entry translates the dead IOVA.
    EXPECT_TRUE(poke.own_iova_write);
  } else {
    // Fig 7 (iii): strict mode killed the own-IOVA translation of *this*
    // buffer; the type (c) neighbour mapping is the path that matters.
    EXPECT_TRUE(poke.neighbor_write);
  }
  // Ground truth: the write really landed in the skb's shared_info (in
  // strict mode the own-IOVA shot goes into the recycled mapping instead,
  // which is why the neighbour path is load-bearing).
  net::SharedInfoView shinfo{rig.machine.kmem(), (*skb)->shared_info()};
  EXPECT_EQ(*shinfo.destructor_arg(), 0xdeadbeefcafe0000ULL);
}

INSTANTIATE_TEST_SUITE_P(Modes, PokeTest,
                         ::testing::Values(iommu::InvalidationMode::kDeferred,
                                           iommu::InvalidationMode::kStrict));

TEST(PokeTestNegative, StrictModeWithPageAlignedBuffersFails) {
  // Strict mode + page-aligned dedicated buffers (LRO-style 64 KiB regions):
  // no stale IOTLB, no page shared with any other mapping — every window is
  // closed and the attack cannot reach the shared_info.
  core::MachineConfig config = VictimConfig(32, false, iommu::InvalidationMode::kStrict);
  net::NicDriver::Config driver_config = DriverConfig();
  driver_config.rx_ring_size = 1;
  driver_config.hw_lro = true;  // dedicated, page-aligned regions
  Rig rig{config, driver_config};
  ASSERT_TRUE(rig.nic.FillRxRing().ok());
  const net::RxPostedDescriptor consumed = rig.device.rx_posted().front();

  net::PacketHeader header{.dst_ip = 1, .dst_port = 9, .proto = net::kProtoUdp};
  std::vector<uint8_t> payload(16, 1);
  auto index = rig.device.InjectRx(header, payload);
  ASSERT_TRUE(index.ok());
  auto skb = rig.nic.CompleteRx(*index, net::PacketHeader::kSize + 16);
  ASSERT_TRUE(skb.ok());

  // The refilled slot's buffer may land on our page; drop it from the posted
  // list to model a driver whose ring entries never share pages.
  rig.device.rx_posted().clear();
  PokeResult poke =
      TryPokeDestructorArg(rig.device, consumed, rig.nic.rx_buffer_bytes(), 0x1234);
  // The blind own-IOVA shot may "succeed" (the IOVA was recycled), but the
  // skb's shared_info must be untouched: the attack has no real window.
  EXPECT_FALSE(poke.neighbor_write);
  net::SharedInfoView shinfo{rig.machine.kmem(), (*skb)->shared_info()};
  EXPECT_EQ(*shinfo.destructor_arg(), 0u);
}

// ---- Compound attacks end-to-end ------------------------------------------------------

TEST(PoisonedTxTest, EscalatesInDeferredMode) {
  Rig rig{VictimConfig(41, false, iommu::InvalidationMode::kDeferred)};
  ASSERT_TRUE(rig.machine.stack().CreateSocket(7, /*echo=*/true).ok());
  ASSERT_TRUE(rig.nic.FillRxRing().ok());

  auto report = PoisonedTxAttack::Run(rig.env(), {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->kaslr.complete()) << report->kaslr.ToString();
  EXPECT_TRUE(report->attributes.complete()) << report->attributes.ToString();
  EXPECT_TRUE(report->success);
  EXPECT_NE(report->window_path.find("own-iova"), std::string::npos);
  EXPECT_TRUE(rig.cpu.privilege_escalated());
}

TEST(PoisonedTxTest, EscalatesInStrictModeViaNeighborIova) {
  // §5.2.2 (iii): strict mode does not save the kernel — the type (c) alias
  // provides the window instead.
  Rig rig{VictimConfig(42, false, iommu::InvalidationMode::kStrict)};
  ASSERT_TRUE(rig.machine.stack().CreateSocket(7, true).ok());
  ASSERT_TRUE(rig.nic.FillRxRing().ok());

  auto report = PoisonedTxAttack::Run(rig.env(), {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->success);
  EXPECT_NE(report->window_path.find("neighbor-iova"), std::string::npos);
}

TEST(PoisonedTxTest, FailsWithoutEchoService) {
  Rig rig{VictimConfig(43, false, iommu::InvalidationMode::kDeferred)};
  ASSERT_TRUE(rig.nic.FillRxRing().ok());
  auto report = PoisonedTxAttack::Run(rig.env(), {});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->success);  // nothing echoed, no KVA leak
}

TEST(RingFloodTest, ProfilingFindsRepeatingPfns) {
  RingFloodAttack::ProfileOptions options;
  options.machine = VictimConfig(0, false, iommu::InvalidationMode::kDeferred);
  options.driver = DriverConfig();
  options.boots = 16;
  auto histogram = RingFloodAttack::ProfileRxPfns(options);
  ASSERT_FALSE(histogram.empty());
  const uint64_t best = RingFloodAttack::MostCommonPfn(histogram);
  // The most common PFN repeats in a majority of boots (§5.3).
  EXPECT_GT(histogram.at(best), options.boots / 2);
}

TEST(RingFloodTest, EscalatesWithProfiledGuess) {
  RingFloodAttack::ProfileOptions profile;
  profile.machine = VictimConfig(0, false, iommu::InvalidationMode::kDeferred);
  profile.driver = DriverConfig();
  profile.boots = 16;
  auto histogram = RingFloodAttack::ProfileRxPfns(profile);
  const uint64_t guess = RingFloodAttack::MostCommonPfn(histogram);

  // Victim boots with a seed the attacker has NOT profiled.
  core::MachineConfig victim_config = profile.machine;
  victim_config.seed = profile.base_seed + 999;
  Rig rig{victim_config, profile.driver};
  // Replay the same boot-noise procedure the profiler models.
  RingFloodAttack::ReplayBootNoise(rig.machine, victim_config.seed,
                                   profile.boot_noise_allocs);
  ASSERT_TRUE(rig.nic.FillRxRing().ok());

  RingFloodAttack::Options options;
  options.pfn_guess = guess;
  auto report = RingFloodAttack::Run(rig.env(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->success) << "guess pfn=" << guess;
}

TEST(RingFloodTest, WrongGuessDoesNotEscalate) {
  Rig rig{VictimConfig(55, false, iommu::InvalidationMode::kDeferred)};
  ASSERT_TRUE(rig.nic.FillRxRing().ok());
  RingFloodAttack::Options options;
  options.pfn_guess = 3;  // kernel image page: certainly not an RX buffer
  auto report = RingFloodAttack::Run(rig.env(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->success);
  EXPECT_FALSE(rig.cpu.privilege_escalated());
}

TEST(ForwardThinkingTest, EscalatesViaGroForwarding) {
  Rig rig{VictimConfig(61, true, iommu::InvalidationMode::kDeferred)};
  ASSERT_TRUE(SeedResidualKernelData(rig.machine, 200).ok());
  ASSERT_TRUE(rig.nic.FillRxRing().ok());

  auto report = ForwardThinkingAttack::Run(rig.env());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->kaslr.complete()) << report->kaslr.ToString();
  EXPECT_TRUE(report->success);
}

TEST(ForwardThinkingTest, RefusedWhenForwardingDisabled) {
  Rig rig{VictimConfig(62, false, iommu::InvalidationMode::kDeferred)};
  ASSERT_TRUE(rig.nic.FillRxRing().ok());
  auto report = ForwardThinkingAttack::Run(rig.env());
  EXPECT_FALSE(report.ok());
}

TEST(RandstructTest, LayoutRandomizationBreaksFixedOffsetButNotSpraying) {
  // Footnote 2: __randomize_layout moves destructor_arg per boot. A fixed-
  // offset write misses — but a DMA attacker can simply spray every
  // pointer-sized candidate slot, so the annotation is weak against sub-page
  // write access.
  core::MachineConfig config = VictimConfig(91, false, iommu::InvalidationMode::kDeferred);
  config.randomize_struct_layout = true;
  Rig rig{config};
  ASSERT_TRUE(rig.nic.FillRxRing().ok());
  const uint64_t real_offset = rig.machine.layout().shinfo_destructor_offset();
  ASSERT_NE(real_offset, 32u) << "pick a seed whose shuffle moves the field";

  auto complete_one = [&]() -> std::pair<net::RxPostedDescriptor, net::SkBuffPtr> {
    const net::RxPostedDescriptor consumed = rig.device.rx_posted().front();
    net::PacketHeader header{.dst_ip = 1, .dst_port = 9, .proto = net::kProtoUdp};
    std::vector<uint8_t> payload(32, 1);
    auto index = rig.device.InjectRx(header, payload);
    EXPECT_TRUE(index.ok());
    auto skb = rig.nic.CompleteRx(*index, net::PacketHeader::kSize + 32);
    EXPECT_TRUE(skb.ok());
    return {consumed, std::move(*skb)};
  };

  // Fixed-offset attack: writes the compile-time slot, kernel reads another.
  {
    auto [consumed, skb] = complete_one();
    PokeResult poke = TryPokeDestructorArg(rig.device, consumed,
                                           rig.nic.rx_buffer_bytes(), 0xabcd);
    ASSERT_TRUE(poke.success);
    net::SharedInfoView shinfo{rig.machine.kmem(), skb->shared_info()};
    EXPECT_EQ(*shinfo.destructor_arg(), 0u) << "fixed-offset write must miss";
    ASSERT_TRUE(rig.machine.skb_alloc().FreeSkb(std::move(skb), &rig.cpu).ok());
    EXPECT_FALSE(rig.cpu.privilege_escalated());
  }

  // Spray attack: hit all three candidate slots; the real one takes.
  {
    auto [consumed, skb] = complete_one();
    const uint64_t shinfo_base = SharedInfoOffset(rig.nic.rx_buffer_bytes());
    for (uint64_t slot : {8u, 16u, 32u}) {
      (void)TryPokeQword(rig.device, consumed, shinfo_base + slot, 0xabcd);
    }
    net::SharedInfoView shinfo{rig.machine.kmem(), skb->shared_info()};
    EXPECT_EQ(*shinfo.destructor_arg(), 0xabcdu) << "spray must hit the shuffled slot";
    ASSERT_TRUE(rig.machine.skb_alloc().FreeSkb(std::move(skb), nullptr).ok());
  }
}

TEST(NoKaslrTest, AttackerNeedsNoLeakWhenKaslrIsOff) {
  // nokaslr boot: every base is the Table-1 compile-time default, so the
  // attacker skips the §2.4 bootstrap entirely.
  core::MachineConfig config = VictimConfig(70, false, iommu::InvalidationMode::kDeferred);
  config.kaslr = false;
  Rig rig{config};
  ASSERT_TRUE(rig.nic.FillRxRing().ok());

  KaslrKnowledge knowledge;  // filled from architectural constants, no leak
  knowledge.text_base = mem::LayoutRanges::kTextStart;
  knowledge.vmemmap_base = mem::LayoutRanges::kVmemmapStart;
  knowledge.page_offset_base = mem::LayoutRanges::kDirectMapStart;
  EXPECT_EQ(*knowledge.text_base, rig.machine.layout().text_base());
  EXPECT_EQ(*knowledge.page_offset_base, rig.machine.layout().page_offset_base());

  // Plant poison at a *computed* KVA (no observation needed) and hijack.
  const net::RxPostedDescriptor descriptor = rig.device.rx_posted().front();
  const Kva buf_kva = *rig.nic.RxSlotKva(descriptor.index);
  auto phys = rig.machine.layout().DirectMapKvaToPhys(buf_kva);
  const uint64_t attacker_kva =
      *knowledge.PfnToKva(phys->pfn().value, phys->page_offset()) + 512;
  EXPECT_EQ(attacker_kva, (buf_kva + 512).value);  // attacker math is exact

  auto image = BuildPoisonImage(knowledge, attacker_kva);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(rig.device.port().Write(descriptor.iova + 512, *image).ok());

  net::PacketHeader header{.dst_ip = rig.machine.stack().config().local_ip,
                           .dst_port = 60000, .proto = net::kProtoUdp};
  std::vector<uint8_t> payload(32, 1);
  auto index = rig.device.InjectRx(header, payload);
  ASSERT_TRUE(index.ok());
  auto skb = rig.nic.CompleteRx(*index, net::PacketHeader::kSize + 32);
  ASSERT_TRUE(skb.ok());
  PokeResult poke = TryPokeDestructorArg(rig.device, descriptor,
                                         rig.nic.rx_buffer_bytes(), attacker_kva);
  ASSERT_TRUE(poke.success);
  ASSERT_TRUE(rig.machine.stack().NapiGroReceive(std::move(*skb)).ok());
  EXPECT_TRUE(rig.cpu.privilege_escalated());
}

TEST(XdpLeakTest, XdpBidirectionalMappingLeaksResidualsWithoutTxTraffic) {
  // With XDP attached, RX buffers are READ|WRITE (§5.1) — the device can
  // scan residual kernel pointers off its own RX pages without waiting for
  // any TX traffic.
  core::MachineConfig config = VictimConfig(71, false, iommu::InvalidationMode::kDeferred);
  core::Machine machine{config};
  ASSERT_TRUE(SeedResidualKernelData(machine, 64).ok());
  net::NicDriver::Config driver_config = DriverConfig();
  driver_config.xdp = true;
  net::NicDriver& nic = machine.AddNicDriver(driver_config);
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);
  ASSERT_TRUE(nic.FillRxRing().ok());

  KaslrBreaker breaker;
  for (const net::RxPostedDescriptor& descriptor : device.rx_posted()) {
    auto page = device.port().ReadPageQwords(descriptor.iova);
    ASSERT_TRUE(page.ok()) << "XDP RX page not readable";
    breaker.Consume(*page);
  }
  EXPECT_TRUE(breaker.knowledge().text_base.has_value());
  EXPECT_TRUE(breaker.knowledge().page_offset_base.has_value());
  EXPECT_EQ(*breaker.knowledge().text_base, machine.layout().text_base());
}

TEST(XdpLeakTest, NonXdpRxPagesAreNotReadable) {
  core::MachineConfig config = VictimConfig(72, false, iommu::InvalidationMode::kDeferred);
  core::Machine machine{config};
  net::NicDriver& nic = machine.AddNicDriver(DriverConfig());
  device::MaliciousNic device{device::DevicePort{machine.iommu(), nic.device_id()}};
  nic.AttachDevice(&device);
  ASSERT_TRUE(nic.FillRxRing().ok());
  const auto& descriptor = device.rx_posted().front();
  EXPECT_FALSE(device.port().ReadPageQwords(descriptor.iova).ok());
}

TEST(IotlbPressureTest, EvictedStaleEntryClosesOwnIovaWindow) {
  // The stale-IOTLB window (path ii) depends on the entry surviving in the
  // cache. A tiny IOTLB under mapping pressure evicts it; the neighbour
  // alias (path iii) is what still works.
  core::MachineConfig config = VictimConfig(73, false, iommu::InvalidationMode::kDeferred);
  config.iommu.iotlb_capacity = 4;  // pathological pressure
  Rig rig{config};
  ASSERT_TRUE(rig.nic.FillRxRing().ok());
  const net::RxPostedDescriptor consumed = rig.device.rx_posted().front();

  net::PacketHeader header{.dst_ip = 1, .dst_port = 9, .proto = net::kProtoUdp};
  std::vector<uint8_t> payload(32, 1);
  auto index = rig.device.InjectRx(header, payload);
  ASSERT_TRUE(index.ok());
  auto skb = rig.nic.CompleteRx(*index, net::PacketHeader::kSize + 32);
  ASSERT_TRUE(skb.ok());
  // Thrash the IOTLB: touch many other posted buffers.
  std::vector<uint8_t> touch(1);
  for (const auto& other : rig.device.rx_posted()) {
    (void)rig.device.port().Write(other.iova, touch);
  }
  PokeOptions own_only{.try_own_iova = true, .try_neighbor = false};
  PokeResult own = TryPokeDestructorArg(rig.device, consumed, rig.nic.rx_buffer_bytes(),
                                        0x1234, own_only);
  EXPECT_FALSE(own.success) << "stale entry should have been evicted";
  PokeOptions neighbor_only{.try_own_iova = false, .try_neighbor = true};
  PokeResult neighbor = TryPokeDestructorArg(rig.device, consumed,
                                             rig.nic.rx_buffer_bytes(), 0x1234,
                                             neighbor_only);
  EXPECT_TRUE(neighbor.success) << "type (c) alias survives IOTLB pressure";
}

TEST(ForwardThinkingTest, SurveillanceReadsArbitraryPage) {
  Rig rig{VictimConfig(63, true, iommu::InvalidationMode::kDeferred)};
  ASSERT_TRUE(rig.nic.FillRxRing().ok());

  // A secret in kernel memory the device was never given access to.
  auto secret_buf = rig.machine.slab().Kmalloc(64, "crypto_key");
  ASSERT_TRUE(secret_buf.ok());
  const char secret[] = "hunter2-master-key";
  ASSERT_TRUE(rig.machine.kmem()
                  .Write(*secret_buf, std::span<const uint8_t>(
                                          reinterpret_cast<const uint8_t*>(secret),
                                          sizeof(secret)))
                  .ok());
  auto phys = rig.machine.layout().DirectMapKvaToPhys(*secret_buf);

  KaslrKnowledge knowledge;
  knowledge.vmemmap_base = rig.machine.layout().vmemmap_base();

  auto leaked = ForwardThinkingAttack::SurveillanceRead(
      rig.env(), knowledge, phys->pfn().value,
      static_cast<uint32_t>(phys->page_offset()), sizeof(secret), 0x0a000099);
  ASSERT_TRUE(leaked.ok()) << leaked.status().ToString();
  EXPECT_EQ(std::memcmp(leaked->data(), secret, sizeof(secret)), 0);
}

}  // namespace
}  // namespace spv::attack
