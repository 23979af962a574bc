#include "soak/soak.h"

#include <cstdio>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <cstring>

#include "attack/attacks.h"
#include "attack/mini_cpu.h"
#include "base/exec.h"
#include "base/json.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/types.h"
#include "core/machine.h"
#include "device/device_port.h"
#include "device/malicious_nic.h"
#include "dma/bounce_pool.h"
#include "fault/fault.h"
#include "net/layouts.h"
#include "nvme/malicious_nvme.h"
#include "nvme/nvme_driver.h"
#include "policy/policy.h"
#include "recovery/recovery.h"
#include "telemetry/telemetry.h"

namespace spv::soak {

namespace {

bool g_capture_trace = false;
std::string g_last_trace_csv;

// The harness's own entropy stream, independent of the machine seed so the
// workload schedule never perturbs in-machine draws (KASLR, fault streams).
constexpr uint64_t kHarnessSeedSalt = 0x50414b5f534f414bull;  // "PAK_SOAK"

// The driverless churn device (no NIC behind it, pure map/unmap traffic).
constexpr uint32_t kChurnDeviceId = 900;

// Per-CPU churn devices for the multi-CPU leg: device 910+c carries CPU c's
// map/unmap stream so every CPU's IOVA magazines see traffic.
constexpr uint32_t kPerCpuChurnBase = 910;

// Trust-policy leg: the long-lived hostile device (keeps a bounce mapping
// parked across epochs so every invariant sweep audits a non-empty pool) and
// the base id for the hot-plug storms' throwaway hostiles.
constexpr uint32_t kResidentHostileId = 1900;
constexpr uint32_t kHotplugHostileBase = 2000;

// What the hostile probes plant and hunt. The secret sentinel fills a slab
// neighbour; seeing it through a hostile device's mapping is a type (d)
// leak. The legit mark is the one in-bounds device write that MUST survive
// bounce copy-out; the evil mark is sprayed across the rest of the
// device-visible page and must never reach kernel memory.
constexpr uint64_t kSecretSentinel = 0x534f414b'5f534543ull;  // "SOAK_SEC"
constexpr uint64_t kLegitMark = 0x424f554e'43453a31ull;       // "BOUNCE:1"
constexpr uint64_t kEvilMark = 0xdead5722'17e0fULL;

// The per-epoch workload mix.
constexpr uint32_t kEpochPackets = 4;      // echo round trips attempted per epoch
constexpr uint32_t kStorageProbes = 2;     // block IO round trips attempted per epoch
constexpr uint32_t kChurnMaps = 8;         // map/unmap pairs per epoch
constexpr uint32_t kPerCpuChurnMaps = 4;   // map/unmap pairs per CPU per epoch
constexpr uint32_t kAttackInterval = 64;   // epochs between attack phases
constexpr uint32_t kAbuseStormEpochs = 8;  // length of an abuse burst
constexpr uint32_t kAbuseCalmEpochs = 56;  // quiet stretch between bursts
constexpr uint32_t kHotplugInterval = 17;  // epochs between hostile hot-plug storms
constexpr uint32_t kHotplugDevices = 2;    // hostile devices plugged per storm

fault::FaultPlan MakeSoakFaultPlan() {
  // Low per-arm probabilities: the soak wants a steady drizzle of recoverable
  // faults underneath the deliberate abuse storms, not a machine that cannot
  // make forward progress.
  fault::FaultPlan plan;
  plan.Probability(fault::FaultSite::kSlabAlloc, 0.002)
      .Probability(fault::FaultSite::kPageFragAlloc, 0.002)
      .Probability(fault::FaultSite::kIovaAlloc, 0.001)
      .Probability(fault::FaultSite::kIotlbInvalidation, 0.01)
      .Magnitude(fault::FaultSite::kIotlbInvalidation, SimClock::UsToCycles(5))
      .Probability(fault::FaultSite::kNicRxDrop, 0.005)
      .Probability(fault::FaultSite::kNicRxTruncate, 0.005)
      .Probability(fault::FaultSite::kNicDescWriteback, 0.002)
      .Probability(fault::FaultSite::kNicRxRefillStarve, 0.01)
      .Probability(fault::FaultSite::kNvmeSqFetchCorrupt, 0.002)
      .Probability(fault::FaultSite::kNvmeCqPhaseFlip, 0.002)
      .Probability(fault::FaultSite::kNvmeCompletionDrop, 0.002)
      .Probability(fault::FaultSite::kNvmeShortTransfer, 0.002);
  return plan;
}

struct ChurnEntry {
  Iova iova;
  Kva kva;
  uint64_t len = 0;
};

}  // namespace

void SetTraceCapture(bool capture) { g_capture_trace = capture; }
const std::string& LastTraceCsv() { return g_last_trace_csv; }

SoakReport RunSoak(const SoakConfig& config) {
  SoakReport report;
  report.seed = config.seed;

  core::MachineConfig machine_config;
  machine_config.seed = config.seed;
  machine_config.iommu.mode =
      config.deferred ? iommu::InvalidationMode::kDeferred : iommu::InvalidationMode::kStrict;
  machine_config.iommu.fast_path.enabled = config.fast_path;
  machine_config.telemetry.enabled = true;
  machine_config.telemetry.ring_capacity = 16384;
  machine_config.trace.enabled = true;
  if (config.faults) {
    machine_config.fault_plan = MakeSoakFaultPlan();
  }
  machine_config.recovery.enabled = config.recovery_enabled;
  // Soak-scale supervision timings: the default 10 ms backoff is 20M cycles,
  // which would park a quarantined device for most of a 1M-cycle run. Scaled
  // down (not off) so one soak crosses several full lifecycle transitions.
  machine_config.recovery.reattach_backoff_cycles = SimClock::UsToCycles(200);
  machine_config.recovery.probation_cycles = SimClock::UsToCycles(300);

  // Trust-policy leg: the quirks table is the soak's authorization database.
  // Hostile hot-plug identities are pinned kUntrusted *before* the inbox
  // wildcards (first match wins); the resident drivers enter as kTrusted —
  // their queue protocols assume zero-copy rings, and nic1 doubles as the
  // demotion subject: its first quarantine knocks it back to bounce-only and
  // every re-promotion drill must then break on the hysteresis cooldown.
  if (config.policy) {
    machine_config.policy.enabled = true;
    policy::Quirk evil_nic;
    evil_nic.match_model = "evil-nic";
    machine_config.policy.quirks.push_back(evil_nic);
    policy::Quirk evil_nvme;
    evil_nvme.match_model = "evil-nvme";
    evil_nvme.bounce_pages = 4;  // deliberately small: storms hit pool reuse
    machine_config.policy.quirks.push_back(evil_nvme);
    policy::Quirk inbox_nic;
    inbox_nic.match_class = "nic";
    inbox_nic.initial_trust = policy::TrustState::kTrusted;
    machine_config.policy.quirks.push_back(inbox_nic);
    policy::Quirk inbox_nvme;
    inbox_nvme.match_class = "nvme";
    inbox_nvme.initial_trust = policy::TrustState::kTrusted;
    machine_config.policy.quirks.push_back(inbox_nvme);
  }

  // Forensics leg: a pure observer, so recording changes no workload outcome
  // and the soak JSON stays byte-identical for a given seed either way.
  machine_config.forensics.enabled = config.forensics;

  // Multi-CPU leg: fast_path.num_cpus sizes the per-CPU magazines.
  const uint32_t num_cpus = config.num_cpus == 0 ? 1 : config.num_cpus;
  const bool multi_cpu = num_cpus > 1;
  machine_config.iommu.fast_path.num_cpus = num_cpus;

  core::Machine machine{machine_config};
  Xoshiro256 rng{config.seed ^ kHarnessSeedSalt};

  // nic0: the serving NIC — egress for the echo service and, per the paper's
  // threat model, the malicious device the compound attacks run from.
  net::NicDriver::Config nic0_config;
  nic0_config.name = "nic0";
  nic0_config.rx_ring_size = 32;
  nic0_config.rx_buf_len = 1728;
  const uint32_t nic_queues = config.nic_queues == 0 ? 1 : config.nic_queues;
  nic0_config.num_queues = nic_queues;
  for (uint32_t q = 0; q < nic_queues; ++q) {
    nic0_config.queue_cpus.push_back(CpuId{q % num_cpus});
  }
  net::NicDriver& nic0 = machine.AddNicDriver(nic0_config);
  device::MaliciousNic mnic0{device::DevicePort{machine.iommu(), nic0.device_id()}};
  mnic0.set_warm_iotlb_on_post(true);
  nic0.AttachDevice(&mnic0);
  machine.stack().set_egress(&nic0);

  // nic1: the abused NIC — its device fires wild DMA and starves completions,
  // driving the health score through the fault-storm path.
  net::NicDriver::Config nic1_config;
  nic1_config.name = "nic1";
  nic1_config.rx_ring_size = 16;
  nic1_config.tx_timeout_cycles = SimClock::MsToCycles(2);
  net::NicDriver& nic1 = machine.AddNicDriver(nic1_config);
  device::MaliciousNic mnic1{device::DevicePort{machine.iommu(), nic1.device_id()}};
  nic1.AttachDevice(&mnic1);

  // A driverless device carrying pure map/unmap churn; quarantined on a fixed
  // drill cadence to exercise the no-NIC recovery path.
  const DeviceId churn_dev{kChurnDeviceId};
  machine.iommu().AttachDevice(churn_dev);
  machine.recovery().RegisterDevice(churn_dev, nullptr);

  // Trust-policy leg: the resident hostile NIC — attached for the whole run,
  // never authorized, one bounce mapping parked across epochs so every
  // invariant sweep audits a pool with live traffic in it.
  policy::PolicyEngine* engine = machine.policy();
  const DeviceId resident_hostile{kResidentHostileId};
  std::optional<ChurnEntry> hostile_parked;
  if (engine != nullptr && config.hostile_hotplug) {
    machine.iommu().AttachDevice(resident_hostile);
    if (Status registered = engine->RegisterDevice(
            resident_hostile, policy::DeviceIdentity{"evil-nic", "nic"});
        !registered.ok()) {
      report.failure = "soak setup failed: resident hostile: " +
                       std::string(registered.message());
      return report;
    }
  }

  // Per-CPU churn devices + per-CPU RNG streams. Each CPU draws only from its
  // own stream, so a CPU's churn does not depend on the others'.
  std::vector<Xoshiro256> cpu_rngs;
  std::vector<uint64_t> cpu_churn_ops(num_cpus, 0);
  std::vector<uint64_t> cpu_churn_failures(num_cpus, 0);
  if (multi_cpu) {
    for (uint32_t c = 0; c < num_cpus; ++c) {
      machine.iommu().AttachDevice(DeviceId{kPerCpuChurnBase + c});
      cpu_rngs.emplace_back(config.seed ^ kHarnessSeedSalt ^
                            (0x9e3779b97f4a7c15ull * (c + 1)));
    }
  }

  // nvme0: the storage leg — a block driver over hostile firmware. Calm
  // epochs carry honest write/read-verify traffic; storms flip the firmware
  // into Poisoned Completion (acknowledge first, transfer later, through
  // whatever stale window the unmap left behind) and forged-CQE bursts that
  // feed the health score until supervision fences the device.
  nvme::NvmeDriver* nvme0 = nullptr;
  std::optional<nvme::MaliciousNvme> mnvme;
  if (config.storage) {
    nvme::NvmeDriver::Config nvme0_config;
    nvme0_config.name = "nvme0";
    nvme0_config.io_queue_entries = 16;
    // Soak-scale timings, like the supervision backoffs above: the default
    // 5 s completion timeout is 10G cycles — several thousand soak epochs.
    nvme0_config.completion_timeout_cycles = SimClock::UsToCycles(400);
    nvme0_config.poll_deadline_cycles = SimClock::UsToCycles(40);
    nvme0 = &machine.AddNvmeDriver(nvme0_config);
    mnvme.emplace(device::DevicePort{machine.iommu(), nvme0->device_id()});
    mnvme->set_fault_engine(&machine.fault());
    mnvme->set_tracer(machine.tracer());
    mnvme->set_warm_iotlb(true);
    nvme0->AttachDevice(&*mnvme);
    // Bring-up runs under the drizzle; a corrupted admin fetch can sink one
    // attempt, so retry a couple of times before calling the setup broken.
    Status storage_up = InvalidArgument("unattempted");
    for (int attempt = 0; attempt < 3 && !storage_up.ok(); ++attempt) {
      storage_up = nvme0->Init();
    }
    if (!storage_up.ok()) {
      report.failure =
          "soak setup failed: nvme0: " + std::string(storage_up.message());
      return report;
    }
  }

  attack::MiniCpu cpu{machine.kmem(), machine.layout()};
  machine.stack().set_callback_invoker(&cpu);

  if (Result<Kva> sock = machine.stack().CreateSocket(7, true); !sock.ok()) {
    report.failure = "soak setup failed: echo socket: " + std::string(sock.status().message());
    return report;
  }
  // Ring fill may hit injected refill starvation mid-fill; that is workload,
  // not setup failure — RetryRefills() in the epoch loop finishes the job.
  (void)nic0.FillAllRxRings();
  (void)nic1.FillRxRing();
  attack::AttackEnv env{machine, nic0, mnic0, cpu};

  std::deque<ChurnEntry> churn_ledger;
  constexpr size_t kChurnLedgerCap = 16;
  bool ringflood_done = false;
  uint64_t hostile_plugged = 0;  // monotonic: every storm device gets a fresh id
  recovery::DeviceState last_state0 = recovery::DeviceState::kHealthy;
  recovery::DeviceState last_state1 = recovery::DeviceState::kHealthy;
  recovery::DeviceState last_state_nvme = recovery::DeviceState::kHealthy;

  // Completes every TX descriptor the serving device is sitting on; the echo
  // service's responses come back through here.
  auto drain_nic0_tx = [&]() {
    for (const net::TxPostedDescriptor& descriptor : mnic0.tx_posted()) {
      (void)machine.stack().OnTxCompleted(descriptor.index);
    }
    mnic0.tx_posted().clear();
  };

  auto fail = [&](std::string why) {
    report.failure = std::move(why);
    report.ok = false;
  };

  bool degraded_active = false;

  uint64_t epoch = 0;
  for (; epoch < config.max_epochs && machine.clock().now() < config.target_cycles; ++epoch) {
    const bool storm = (epoch % (kAbuseStormEpochs + kAbuseCalmEpochs)) < kAbuseStormEpochs;

    // -- Degraded drill: demote the SERVING devices mid-run ---------------------
    //
    // One third of the way through, the trust engine yanks nic0 (the echo
    // service's NIC, mid-traffic) and nvme0 (with IO potentially in flight)
    // down to kUntrusted. Both drivers must absorb the live service-mode
    // switch — rings re-homed onto persistent sync'd bounce slots — and keep
    // answering probes; every probe from here on is also counted into the
    // degraded availability the floor assertion below grades.
    if (engine != nullptr && config.degraded_drill && !degraded_active &&
        machine.clock().now() >= config.target_cycles / 3) {
      degraded_active = true;
      (void)engine->Demote(nic0.device_id(), "soak degraded drill");
      if (config.storage) {
        (void)engine->Demote(nvme0->device_id(), "soak degraded drill");
      }
    }

    // -- Service traffic: echo round trips through nic0 -------------------------
    (void)nic0.RetryAllRefills();
    for (uint32_t p = 0; p < kEpochPackets; ++p) {
      ++report.echo_probes;
      const uint64_t before = machine.stack().stats().echoed;
      net::PacketHeader header{.src_ip = 0x0a000002,
                               .dst_ip = machine.stack().config().local_ip,
                               .src_port = static_cast<uint16_t>(20000 + rng.NextBelow(1000)),
                               .dst_port = 7,
                               .proto = net::kProtoUdp};
      std::vector<uint8_t> payload(64 + rng.NextBelow(192),
                                   static_cast<uint8_t>(rng.NextBelow(256)));
      const uint32_t wire_len =
          static_cast<uint32_t>(net::PacketHeader::kSize + payload.size());
      if (nic_queues > 1) {
        // RSS steering: the same Toeplitz hash the driver programmed decides
        // which queue — and so which CPU's rings — this flow lands on.
        const uint32_t queue = nic0.QueueForFlow(net::FlowTuple{
            header.src_ip, header.dst_ip, header.src_port, header.dst_port});
        Result<net::RxPostedDescriptor> descriptor = mnic0.InjectRxOn(queue, header, payload);
        if (descriptor.ok()) {
          Result<net::SkBuffPtr> skb = nic0.CompleteRx(queue, descriptor->index, wire_len);
          if (skb.ok() && *skb != nullptr) {
            (void)machine.stack().NapiGroReceive(std::move(*skb));
            (void)machine.stack().NapiComplete();
          }
        }
      } else {
        Result<uint32_t> index = mnic0.InjectRx(header, payload);
        if (index.ok()) {
          Result<net::SkBuffPtr> skb = nic0.CompleteRx(*index, wire_len);
          if (skb.ok() && *skb != nullptr) {
            (void)machine.stack().NapiGroReceive(std::move(*skb));
            (void)machine.stack().NapiComplete();
          }
        }
      }
      drain_nic0_tx();
      const bool echoed = machine.stack().stats().echoed > before;
      if (echoed) {
        ++report.echo_ok;
      }
      if (degraded_active) {
        ++report.degraded_probes;
        if (echoed) {
          ++report.degraded_ok;
        }
      }
    }

    // One locally-originated packet per epoch: exercises SendPacket and, when
    // nic0 is quarantined, the stack's shed-don't-fail path.
    {
      net::PacketHeader out{.src_ip = machine.stack().config().local_ip,
                            .dst_ip = 0x0a000063,
                            .src_port = 4000,
                            .dst_port = static_cast<uint16_t>(1 + rng.NextBelow(60000)),
                            .proto = net::kProtoUdp};
      std::vector<uint8_t> body(128, 0x5a);
      (void)machine.stack().SendPacket(out, body);
      drain_nic0_tx();
    }

    // -- Storage traffic: block write/read-verify probes through nvme0 ----------
    if (config.storage) {
      mnvme->set_complete_before_transfer(storm);
      for (uint32_t p = 0; p < kStorageProbes; ++p) {
        ++report.nvme.probes;
        if (degraded_active) {
          ++report.degraded_probes;
        }
        static constexpr uint16_t kProbeShapes[] = {1, 4, 8, 24};
        const uint16_t nblocks = kProbeShapes[rng.NextBelow(4)];
        const uint64_t bytes = static_cast<uint64_t>(nblocks) * nvme::kLbaSize;
        const uint64_t span_blocks = mnvme->capacity_blocks() - nblocks;
        const uint64_t slba = rng.NextBelow(static_cast<uint32_t>(span_blocks));
        const uint8_t fill = static_cast<uint8_t>(rng.NextBelow(256));
        Result<Kva> buf = machine.slab().Kmalloc(bytes, "soak_storage");
        if (!buf.ok()) {
          ++report.nvme.shed_ios;
          continue;
        }
        std::vector<uint8_t> pattern(bytes, fill);
        bool round_trip = machine.kmem().Write(*buf, pattern).ok();
        if (round_trip && !nvme0->WriteBlocks(slba, nblocks, *buf).ok()) {
          ++report.nvme.shed_ios;
          round_trip = false;
        }
        if (round_trip) {
          std::vector<uint8_t> zero(bytes, 0);
          (void)machine.kmem().Write(*buf, zero);
          if (!nvme0->ReadBlocks(slba, nblocks, *buf).ok()) {
            ++report.nvme.shed_ios;
            round_trip = false;
          }
        }
        if (round_trip) {
          ++report.nvme.ok;
          if (degraded_active) {
            ++report.degraded_ok;
          }
          // Silent-corruption audit: under Poisoned Completion both data
          // phases were withheld, so the pattern never comes back — that is
          // the attack observable, not a harness failure.
          std::vector<uint8_t> got(bytes, 0);
          if (machine.kmem().Read(*buf, got).ok() && got != pattern) {
            ++report.nvme.verify_mismatches;
          }
        }
        (void)machine.slab().Kfree(*buf);
      }
      // Watchdog + poll sweep, then the stale-window half of the attack: the
      // firmware performs the data phases it acknowledged earlier, against
      // buffers the driver has since unmapped and freed.
      (void)nvme0->PollCompletions();
      (void)nvme0->CheckTimeouts();
      while (!mnvme->pending_transfers().empty()) {
        if (mnvme->ReplayPendingTransfer().ok()) {
          ++report.nvme.replays_landed;
        } else {
          ++report.nvme.replays_blocked;
        }
      }
      // Forged-CQE bursts: plausible-looking completions for CIDs that were
      // never issued. The driver rejects each one (kNvmeCompletionError),
      // and the health score walks toward quarantine.
      if (config.attacks && storm && epoch % 7 == 3) {
        for (int f = 0; f < 3; ++f) {
          const uint16_t bogus_cid =
              static_cast<uint16_t>(0x4000 + rng.NextBelow(128));
          if (mnvme->ForgePoisonedCompletion(nvme::kIoQid, bogus_cid,
                                             nvme::kScSuccess, 512)
                  .ok()) {
            ++report.nvme.forged_completions;
          }
        }
        (void)nvme0->PollCompletions();
      }
    }

    // -- Map/unmap churn on the driverless device -------------------------------
    for (uint32_t c = 0; c < kChurnMaps; ++c) {
      ++report.churn_map_ops;
      Result<Kva> buf = machine.slab().Kmalloc(2048, "soak_churn");
      if (!buf.ok()) {
        ++report.churn_map_failures;
        continue;
      }
      Result<Iova> iova = machine.dma().MapSingle(churn_dev, *buf, 2048,
                                                  dma::DmaDirection::kFromDevice, "soak_churn");
      if (!iova.ok()) {
        ++report.churn_map_failures;
        (void)machine.slab().Kfree(*buf);
        continue;
      }
      if (churn_ledger.size() < kChurnLedgerCap && rng.NextBelow(4) == 0) {
        // Parked: stays mapped across epochs (and across any quarantine).
        churn_ledger.push_back(ChurnEntry{*iova, *buf, 2048});
      } else {
        if (!machine.dma().UnmapSingle(churn_dev, *iova, 2048, dma::DmaDirection::kFromDevice)
                 .ok()) {
          ++report.churn_map_failures;
        }
        (void)machine.slab().Kfree(*buf);
      }
    }
    // Retire the oldest parked mapping. After a quarantine swept the device
    // the unmap comes back non-OK (the mapping is already gone) — expected;
    // the buffer is freed either way.
    if (!churn_ledger.empty() && rng.NextBelow(2) == 0) {
      ChurnEntry entry = churn_ledger.front();
      churn_ledger.pop_front();
      (void)machine.dma().UnmapSingle(churn_dev, entry.iova, entry.len,
                                      dma::DmaDirection::kFromDevice);
      (void)machine.slab().Kfree(entry.kva);
    }

    // -- Hostile hot-plug storms (trust-policy leg) -----------------------------
    //
    // A burst of never-authorized devices attaches, lands on kUntrusted, and
    // runs the paper's sub-page probes against slab-neighbour memory. Every
    // one of their transfers is diverted through the bounce pool, so:
    //   type (d): a page-wide read through the probe mapping sees only the
    //             scrubbed bounce page plus the probe's own bytes — the slab
    //             neighbour's secret sentinel must never appear;
    //   type (a): writes sprayed across the device-visible page outside the
    //             probe buffer land in bounce padding that copy-out discards
    //             — the neighbour's bytes must come through unchanged, while
    //             the one legit in-bounds write must still be delivered.
    if (engine != nullptr && config.hostile_hotplug &&
        epoch % kHotplugInterval == kHotplugInterval - 1) {
      // Rotate the resident hostile's parked bounce mapping first: retire the
      // old one (copy-out audited) and park a fresh one for coming epochs.
      if (hostile_parked.has_value()) {
        (void)machine.dma().UnmapSingle(resident_hostile, hostile_parked->iova,
                                        hostile_parked->len,
                                        dma::DmaDirection::kBidirectional);
        (void)machine.slab().Kfree(hostile_parked->kva);
        hostile_parked.reset();
      }
      if (Result<Kva> park = machine.slab().Kmalloc(1024, "soak_hostile_park");
          park.ok()) {
        Result<Iova> park_iova = machine.dma().MapSingle(
            resident_hostile, *park, 1024, dma::DmaDirection::kBidirectional,
            "soak_hostile_park");
        if (park_iova.ok()) {
          hostile_parked = ChurnEntry{*park_iova, *park, 1024};
        } else {
          (void)machine.slab().Kfree(*park);
        }
      }

      for (uint32_t h = 0; h < kHotplugDevices; ++h) {
        const bool is_nvme = (hostile_plugged % 2) == 1;
        const DeviceId dev{kHotplugHostileBase +
                           static_cast<uint32_t>(hostile_plugged++)};
        machine.iommu().AttachDevice(dev);
        const policy::DeviceIdentity identity{is_nvme ? "evil-nvme" : "evil-nic",
                                              is_nvme ? "nvme" : "nic"};
        if (!engine->RegisterDevice(dev, identity).ok()) {
          (void)machine.iommu().DetachDevice(dev);
          continue;
        }
        ++report.policy.hotplug_attaches;
        device::DevicePort port{machine.iommu(), dev};

        // Two same-size slab objects allocated back-to-back: the secret is
        // the probe buffer's likely page neighbour — exactly the paper's
        // type (a)/(d) co-location setup.
        constexpr uint64_t kProbeLen = 192;
        Result<Kva> secret = machine.slab().Kmalloc(kProbeLen, "soak_secret");
        Result<Kva> probe = machine.slab().Kmalloc(kProbeLen, "soak_hostile_buf");
        if (secret.ok() && probe.ok()) {
          std::vector<uint8_t> secret_bytes(kProbeLen);
          for (size_t i = 0; i + 8 <= secret_bytes.size(); i += 8) {
            std::memcpy(&secret_bytes[i], &kSecretSentinel, 8);
          }
          (void)machine.kmem().Write(*secret, secret_bytes);
          std::vector<uint8_t> probe_bytes(kProbeLen, 0xa5);
          (void)machine.kmem().Write(*probe, probe_bytes);

          // ---- type (d): page-wide exfiltration read ----------------------
          if (Result<Iova> rd = machine.dma().MapSingle(
                  dev, *probe, kProbeLen, dma::DmaDirection::kToDevice,
                  "soak_hostile_read_probe");
              rd.ok()) {
            ++report.policy.subpage_read_probes;
            const Iova rd_page = rd->PageBase();
            for (uint64_t off = 0; off + 8 <= kPageSize; off += 8) {
              Result<uint64_t> word = port.ReadU64(rd_page + off);
              if (word.ok() && *word == kSecretSentinel) {
                ++report.policy.secret_leaks;
                break;
              }
            }
            (void)machine.dma().UnmapSingle(dev, *rd, kProbeLen,
                                            dma::DmaDirection::kToDevice);
          }

          // ---- type (a): off-the-end neighbour write ----------------------
          if (Result<Iova> wr = machine.dma().MapSingle(
                  dev, *probe, kProbeLen, dma::DmaDirection::kFromDevice,
                  "soak_hostile_write_probe");
              wr.ok()) {
            ++report.policy.subpage_write_probes;
            (void)port.WriteU64(*wr, kLegitMark);
            const Iova wr_page = wr->PageBase();
            const uint64_t probe_off = wr->page_offset();
            for (uint64_t off = 0; off + 8 <= kPageSize; off += 64) {
              if (off + 8 > probe_off && off < probe_off + kProbeLen) {
                continue;  // spray only *outside* the in-bounds window
              }
              (void)port.WriteU64(wr_page + off, kEvilMark);
            }
            (void)machine.dma().UnmapSingle(dev, *wr, kProbeLen,
                                            dma::DmaDirection::kFromDevice);
            std::vector<uint8_t> delivered(8, 0);
            if (machine.kmem().Read(*probe, delivered).ok() &&
                std::memcmp(delivered.data(), &kLegitMark, 8) == 0) {
              ++report.policy.bounce_rx_ok;
            }
            std::vector<uint8_t> neighbour(kProbeLen, 0);
            if (machine.kmem().Read(*secret, neighbour).ok() &&
                neighbour != secret_bytes) {
              ++report.policy.neighbour_corruptions;
            }
          }
        }
        if (probe.ok()) {
          (void)machine.slab().Kfree(*probe);
        }
        if (secret.ok()) {
          (void)machine.slab().Kfree(*secret);
        }
        if (engine->state(dev) == policy::TrustState::kUntrusted) {
          ++report.policy.hostile_still_untrusted;
        }
        if (engine->UnregisterDevice(dev).ok() &&
            machine.iommu().DetachDevice(dev).ok()) {
          ++report.policy.hotplug_detaches;
        }
      }
    }

    // -- Per-CPU churn: every CPU pushes map/unmap pairs through its own
    // IOVA magazines; RunOnCpus visits the CPUs in order.
    if (multi_cpu) {
      machine.RunOnCpus(num_cpus, [&](CpuId cpu) {
        Xoshiro256& crng = cpu_rngs[cpu.value];
        const DeviceId dev{kPerCpuChurnBase + cpu.value};
        for (uint32_t c = 0; c < kPerCpuChurnMaps; ++c) {
          ++cpu_churn_ops[cpu.value];
          const uint64_t len = 512 + (static_cast<uint64_t>(crng.NextBelow(4)) << 9);
          Result<Kva> buf = machine.slab().Kmalloc(len, "soak_cpu_churn");
          if (!buf.ok()) {
            ++cpu_churn_failures[cpu.value];
            continue;
          }
          Result<Iova> iova = machine.dma().MapSingle(
              dev, *buf, len, dma::DmaDirection::kFromDevice, "soak_cpu_churn");
          if (!iova.ok()) {
            ++cpu_churn_failures[cpu.value];
            (void)machine.slab().Kfree(*buf);
            continue;
          }
          if (!machine.dma().UnmapSingle(dev, *iova, len, dma::DmaDirection::kFromDevice).ok()) {
            ++cpu_churn_failures[cpu.value];
          }
          (void)machine.slab().Kfree(*buf);
        }
      });
    }

    // -- Cross-CPU stale-IOTLB race (the Fig 6 window): CPU 0 maps, lets the
    // device warm the translation, then deferred-unmaps — queueing the
    // invalidation. CPU 1 then maps and unmaps once, which queues one more
    // entry behind it, and the device replays the translation. CPU 1's unmap
    // drains nothing unless it fills the queue or finds the deadline past, so
    // the replay hits because no flush has run since CPU 0's unmap. A hit is
    // the breach; the IOMMU's stale-access accounting must flag it the moment
    // it lands.
    if (multi_cpu && epoch % 13 == 5) {
      Result<Kva> race_buf = machine.slab().Kmalloc(2048, "soak_race");
      if (race_buf.ok()) {
        Result<Iova> race_iova = machine.dma().MapSingle(
            nic0.device_id(), *race_buf, 2048, dma::DmaDirection::kFromDevice, "soak_race");
        if (race_iova.ok()) {
          ++report.cross_cpu_race_probes;
          (void)mnic0.port().WriteU64(*race_iova, 0x57494e444f575f30ull);
          (void)machine.dma().UnmapSingle(nic0.device_id(), *race_iova, 2048,
                                          dma::DmaDirection::kFromDevice);
          SetCurrentCpu(CpuId{1});
          if (Result<Kva> side = machine.slab().Kmalloc(1024, "soak_race_side"); side.ok()) {
            if (Result<Iova> side_iova =
                    machine.dma().MapSingle(DeviceId{kPerCpuChurnBase + 1}, *side, 1024,
                                            dma::DmaDirection::kFromDevice, "soak_race_side");
                side_iova.ok()) {
              (void)machine.dma().UnmapSingle(DeviceId{kPerCpuChurnBase + 1}, *side_iova, 1024,
                                              dma::DmaDirection::kFromDevice);
            }
            (void)machine.slab().Kfree(*side);
          }
          const uint64_t stale_before = machine.iommu().stats().stale_iotlb_accesses;
          if (mnic0.port().WriteU64(*race_iova, 0xdeadbeefdeadbeefull).ok()) {
            ++report.cross_cpu_stale_hits;
          } else {
            ++report.cross_cpu_stale_blocked;
          }
          if (machine.iommu().stats().stale_iotlb_accesses > stale_before) {
            ++report.cross_cpu_detected;
          }
          SetCurrentCpu(CpuId{0});
        }
        (void)machine.slab().Kfree(*race_buf);
      }
    }

    // -- Abuse storms on nic1's device ------------------------------------------
    if (storm) {
      for (int w = 0; w < 6; ++w) {
        ++report.abuse_ops;
        // Wild IOVA: far outside any allocator window. Fenced devices get
        // kRevoked (counted as fenced accesses); attached ones log IOMMU
        // faults that feed the health score.
        const Iova wild{(1ull << 40) + (rng.NextBelow(1u << 20) << kPageShift)};
        (void)mnic1.port().WriteU64(wild, 0xdeadbeefdeadbeefull);
      }
    }
    (void)nic1.RetryRefills();
    (void)nic1.CheckTxTimeout();
    (void)nic1.RequeueTimedOut();

    // -- Compound attacks through the serving NIC -------------------------------
    if (config.attacks && epoch % kAttackInterval == kAttackInterval / 2) {
      ++report.attack_runs;
      Result<attack::AttackReport> outcome = [&]() -> Result<attack::AttackReport> {
        if (!ringflood_done) {
          ringflood_done = true;
          attack::RingFloodAttack::Options options;
          // The harness hands the attacker its profiling answer for free
          // (ground truth instead of the multi-boot histogram): the soak
          // grades recovery behaviour, not PFN-guessing fidelity.
          if (std::optional<Kva> kva = nic0.RxSlotKva(0)) {
            if (Result<PhysAddr> phys = machine.layout().DirectMapKvaToPhys(*kva); phys.ok()) {
              options.pfn_guess = phys->pfn().value;
            }
          }
          return attack::RingFloodAttack::Run(env, options);
        }
        return attack::PoisonedTxAttack::Run(env, attack::PoisonedTxAttack::Options{});
      }();
      if (outcome.ok() && outcome->success) {
        ++report.attack_successes;
      }
      drain_nic0_tx();
    }

    // -- Quarantine racing an in-flight completion on a sibling queue: a flow
    // lands on queue 1, the fence comes down across ALL queues, and only then
    // does the poll loop try to complete it. The completion must lose cleanly
    // (empty slot / fenced) — it must never hand the stack a buffer whose
    // mapping the quarantine already revoked.
    if (multi_cpu && nic_queues > 1 && config.recovery_enabled && epoch % 61 == 33) {
      net::PacketHeader race_header{.src_ip = 0x0a000003,
                                    .dst_ip = machine.stack().config().local_ip,
                                    .src_port = 31337,
                                    .dst_port = 7,
                                    .proto = net::kProtoUdp};
      std::vector<uint8_t> race_body(96, 0x33);
      Result<net::RxPostedDescriptor> descriptor = mnic0.InjectRxOn(1, race_header, race_body);
      // Probes only count when the fence actually came down (the device may
      // already be mid-recovery on this epoch); then every one must lose.
      if (descriptor.ok() &&
          machine.recovery().Quarantine(nic0.device_id(), "soak sibling race").ok()) {
        ++report.sibling_quarantine_probes;
        Result<net::SkBuffPtr> skb = nic0.CompleteRx(
            1, descriptor->index,
            static_cast<uint32_t>(net::PacketHeader::kSize + race_body.size()));
        if (!skb.ok()) {
          ++report.sibling_completions_fenced;
        }
      }
    }

    // -- Operator drills on a fixed cadence: the driverless device (no-NIC
    // recovery path) and the serving NIC (availability dip + the stack's
    // shed path, which only fires while the egress device is fenced).
    if (config.recovery_enabled && epoch % 97 == 96) {
      (void)machine.recovery().Quarantine(churn_dev, "soak operator drill");
    }
    if (config.recovery_enabled && epoch % 149 == 148) {
      (void)machine.recovery().Quarantine(nic0.device_id(), "soak operator drill");
    }
    if (config.storage && config.recovery_enabled && epoch % 181 == 180) {
      (void)machine.recovery().Quarantine(nvme0->device_id(), "soak operator drill");
    }

    // -- Supervision + epoch bookkeeping ----------------------------------------
    (void)machine.recovery().Poll();
    if (engine != nullptr) {
      // Demotion triggers latched off the telemetry bus (quarantines, health
      // breaches, detector findings) land here, outside any callback.
      (void)engine->Poll();
      // Re-promotion drill: once nic1 has been demoted, an operator keeps
      // trying to authorize it again. Every attempt inside the hysteresis
      // cooldown must be refused — a flapping device stays on bounce.
      if (epoch % 11 == 7 &&
          engine->state(nic1.device_id()) == policy::TrustState::kUntrusted) {
        ++report.policy.promotion_attempts;
        (void)engine->Promote(nic1.device_id(), "soak re-promotion drill");
      }
    }

    // A device entering quarantine invalidates everything its hardware
    // queues refer to: model the device reset by dropping stale descriptors
    // (otherwise the first post-re-attach injection DMA-writes through a
    // revoked descriptor and instantly re-breaches).
    const recovery::DeviceState state0 = machine.recovery().state(nic0.device_id());
    if (state0 != last_state0 && (state0 == recovery::DeviceState::kQuarantined ||
                                  state0 == recovery::DeviceState::kDetached)) {
      mnic0.rx_posted().clear();
      mnic0.tx_posted().clear();
      if (state0 == recovery::DeviceState::kQuarantined) {
        ++report.nic.quarantines;
      }
    }
    last_state0 = state0;
    const recovery::DeviceState state1 = machine.recovery().state(nic1.device_id());
    if (state1 != last_state1 && (state1 == recovery::DeviceState::kQuarantined ||
                                  state1 == recovery::DeviceState::kDetached)) {
      mnic1.rx_posted().clear();
      mnic1.tx_posted().clear();
      if (state1 == recovery::DeviceState::kQuarantined) {
        ++report.nic.quarantines;
      }
    }
    last_state1 = state1;
    if (config.storage) {
      const recovery::DeviceState state_nvme =
          machine.recovery().state(nvme0->device_id());
      if (state_nvme != last_state_nvme &&
          (state_nvme == recovery::DeviceState::kQuarantined ||
           state_nvme == recovery::DeviceState::kDetached)) {
        mnvme->ClearPendingTransfers();
        if (state_nvme == recovery::DeviceState::kQuarantined) {
          ++report.nvme.quarantines;
        }
      }
      last_state_nvme = state_nvme;
    }

    if (config.invariant_check_interval != 0 &&
        epoch % config.invariant_check_interval == 0) {
      ++report.invariant_checks;
      if (Status invariants = machine.CheckInvariants(); !invariants.ok()) {
        fail("epoch " + std::to_string(epoch) + ": " + std::string(invariants.message()));
        break;
      }
    }

    // Idle time between epochs, so deferred-flush deadlines, TX watchdogs and
    // re-attach backoffs all make progress relative to the workload.
    machine.clock().AdvanceUs(20);
  }
  report.epochs = epoch;

  // ---- Teardown: everything back, nothing leaked ------------------------------
  (void)nic0.Shutdown();
  (void)nic1.Shutdown();
  if (config.storage) {
    (void)nvme0->Shutdown();
  }
  while (!churn_ledger.empty()) {
    ChurnEntry entry = churn_ledger.front();
    churn_ledger.pop_front();
    (void)machine.dma().UnmapSingle(churn_dev, entry.iova, entry.len,
                                    dma::DmaDirection::kFromDevice);
    (void)machine.slab().Kfree(entry.kva);
  }
  if (hostile_parked.has_value()) {
    (void)machine.dma().UnmapSingle(resident_hostile, hostile_parked->iova,
                                    hostile_parked->len,
                                    dma::DmaDirection::kBidirectional);
    (void)machine.slab().Kfree(hostile_parked->kva);
    hostile_parked.reset();
  }
  if (engine != nullptr) {
    // Posture snapshot while the resident devices are still registered: this
    // is the HSI-style exposure answer the run ends on, byte-identical for
    // the same seed. Captured before the pools detach below.
    report.posture_json = engine->PostureJson();
    report.policy.demotions = engine->total_demotions();
    report.policy.promotions_blocked = engine->total_promotions_blocked();
    if (config.hostile_hotplug &&
        engine->state(resident_hostile) == policy::TrustState::kUntrusted) {
      ++report.policy.hostile_still_untrusted;
    }
    // Leak audit for the bounce pool: after driver shutdown and parked-entry
    // retirement nothing may still be in flight.
    if (machine.bounce_pool() != nullptr &&
        machine.bounce_pool()->total_active() != 0 && report.failure.empty()) {
      fail("teardown: " +
           std::to_string(machine.bounce_pool()->total_active()) +
           " bounce mappings still active");
    }
    // Unregister everything so the pools' static IOVA blocks come down
    // before the PTE leak audit walks the page tables.
    if (config.hostile_hotplug) {
      (void)engine->UnregisterDevice(resident_hostile);
      (void)machine.iommu().DetachDevice(resident_hostile);
    }
    (void)engine->UnregisterDevice(nic0.device_id());
    (void)engine->UnregisterDevice(nic1.device_id());
    if (config.storage) {
      (void)engine->UnregisterDevice(nvme0->device_id());
    }
  }
  if (machine.incidents() != nullptr) {
    // Incident capture before the final FlushNow: the flush edges it would
    // record are teardown mechanics, not evidence, and the accounting block
    // embedded in the report must match what the run itself produced.
    report.incidents_opened = machine.incidents()->incident_count();
    report.incidents_suppressed = machine.incidents()->suppressed();
    report.incident_summary_json = machine.incidents()->SummaryJson();
    report.incidents_json = machine.incidents()->ReportsJson();
  }
  if (machine.flight_recorder() != nullptr) {
    report.flight_records = machine.flight_recorder()->total_recorded();
    report.flight_dropped = machine.flight_recorder()->total_dropped();
  }
  machine.iommu().FlushNow();

  report.sim_cycles = machine.clock().now();
  report.leaked_mappings = machine.dma().live_mappings();
  for (DeviceId device : machine.iommu().attached_devices()) {
    if (const iommu::IoPageTable* table = machine.iommu().page_table(device)) {
      table->ForEachMapping([&](Iova, const iommu::PteEntry&) { ++report.leaked_iova_entries; });
    }
  }

  telemetry::Hub& hub = machine.telemetry();
  if (engine != nullptr) {
    report.policy.bounce_maps = hub.counter_value("bounce.maps");
    report.policy.bounce_unmaps = hub.counter_value("bounce.unmaps");
  }
  report.quarantines = machine.recovery().total_quarantines();
  report.reattach_attempts = hub.counter_value("recovery.reattach_attempts");
  report.permanent_detaches = machine.recovery().total_detaches();
  report.fenced_accesses = machine.iommu().stats().fenced_accesses;
  report.shed_packets = machine.stack().stats().tx_shed;
  report.faults_injected = machine.fault().total_injections();
  report.availability = report.echo_probes == 0
                            ? 1.0
                            : static_cast<double>(report.echo_ok) /
                                  static_cast<double>(report.echo_probes);
  report.availability_degraded =
      report.degraded_probes == 0
          ? 1.0
          : static_cast<double>(report.degraded_ok) /
                static_cast<double>(report.degraded_probes);
  const telemetry::Histogram::Summary latency =
      hub.histogram("recovery.quarantine_latency_cycles").Summarize();
  report.quarantine_latency_p50 = latency.p50;
  report.quarantine_latency_p99 = latency.p99;
  const telemetry::Histogram::Summary downtime =
      hub.histogram("recovery.downtime_cycles").Summarize();
  report.downtime_p50 = downtime.p50;
  report.downtime_p99 = downtime.p99;

  // Per-class rollup. The NIC side mirrors the top-level echo numbers; the
  // NVMe side pulls the driver's own accounting.
  report.nic.probes = report.echo_probes;
  report.nic.ok = report.echo_ok;
  report.nic.availability = report.nic.probes == 0
                                ? 1.0
                                : static_cast<double>(report.nic.ok) /
                                      static_cast<double>(report.nic.probes);
  report.nic.shed_packets = report.shed_packets;
  if (config.storage) {
    report.nvme.availability = report.nvme.probes == 0
                                   ? 1.0
                                   : static_cast<double>(report.nvme.ok) /
                                         static_cast<double>(report.nvme.probes);
    report.nvme.reads_completed = nvme0->reads_completed();
    report.nvme.writes_completed = nvme0->writes_completed();
    report.nvme.io_errors = nvme0->io_errors();
    report.nvme.completion_errors = nvme0->completion_errors();
    report.nvme.queue_resets = nvme0->queue_resets();
  } else {
    report.nvme.availability = 1.0;
  }

  if (multi_cpu) {
    for (uint32_t c = 0; c < num_cpus; ++c) {
      SoakReport::CpuBreakdown row;
      row.cpu = c;
      row.churn_ops = cpu_churn_ops[c];
      row.churn_failures = cpu_churn_failures[c];
      for (uint32_t q = 0; q < nic0.num_queues(); ++q) {
        if (nic0.queue_cpu(q).value == c) {
          row.rx_packets += nic0.rx_packets(q);
        }
      }
      report.cpus.push_back(row);
    }
  }

  ++report.invariant_checks;
  if (report.failure.empty()) {
    if (Status invariants = machine.CheckInvariants(); !invariants.ok()) {
      fail("teardown: " + std::string(invariants.message()));
    } else if (report.leaked_mappings != 0) {
      fail("teardown: " + std::to_string(report.leaked_mappings) + " mappings still live");
    } else if (report.leaked_iova_entries != 0) {
      fail("teardown: " + std::to_string(report.leaked_iova_entries) + " PTEs still installed");
    } else if (report.policy.secret_leaks != 0 ||
               report.policy.neighbour_corruptions != 0) {
      // The bounce pool's whole reason to exist: a hostile device's sub-page
      // probe reaching real kernel memory is a hard run failure.
      fail("policy: " + std::to_string(report.policy.secret_leaks) + " leaks, " +
           std::to_string(report.policy.neighbour_corruptions) +
           " neighbour corruptions from untrusted devices");
    } else if (config.degraded_floor > 0.0 && report.degraded_probes != 0 &&
               report.availability_degraded < config.degraded_floor) {
      // The degraded drill's whole point: demoted devices must keep serving.
      // Dropping below the floor means sync rings starved, not degraded.
      char verdict[128];
      std::snprintf(verdict, sizeof(verdict),
                    "degraded availability %.6f below floor %.6f (%llu/%llu probes)",
                    report.availability_degraded, config.degraded_floor,
                    static_cast<unsigned long long>(report.degraded_ok),
                    static_cast<unsigned long long>(report.degraded_probes));
      fail(verdict);
    } else {
      report.ok = true;
    }
  }

  g_last_trace_csv.clear();
  if (g_capture_trace) {
    g_last_trace_csv = hub.ExportTraceCsv();
  }
  return report;
}

std::string SoakReport::ToJson() const {
  json::Writer w;
  w.BeginObject().Key("ok").Bool(ok);
  w.Key("failure").String(failure);
  w.Key("seed").Uint(seed);
  w.Key("epochs").Uint(epochs);
  w.Key("sim_cycles").Uint(sim_cycles);
  w.Key("echo_probes").Uint(echo_probes);
  w.Key("echo_ok").Uint(echo_ok);
  w.Key("availability").Double(availability);
  w.Key("degraded_probes").Uint(degraded_probes);
  w.Key("degraded_ok").Uint(degraded_ok);
  w.Key("availability_degraded").Double(availability_degraded);
  w.Key("churn_map_ops").Uint(churn_map_ops);
  w.Key("churn_map_failures").Uint(churn_map_failures);
  w.Key("abuse_ops").Uint(abuse_ops);
  w.Key("attack_runs").Uint(attack_runs);
  w.Key("attack_successes").Uint(attack_successes);
  w.Key("faults_injected").Uint(faults_injected);
  w.Key("quarantines").Uint(quarantines);
  w.Key("reattach_attempts").Uint(reattach_attempts);
  w.Key("permanent_detaches").Uint(permanent_detaches);
  w.Key("fenced_accesses").Uint(fenced_accesses);
  w.Key("shed_packets").Uint(shed_packets);
  w.Key("invariant_checks").Uint(invariant_checks);
  w.Key("quarantine_latency_p50").Uint(quarantine_latency_p50);
  w.Key("quarantine_latency_p99").Uint(quarantine_latency_p99);
  w.Key("downtime_p50").Uint(downtime_p50);
  w.Key("downtime_p99").Uint(downtime_p99);
  w.Key("leaked_mappings").Uint(leaked_mappings);
  w.Key("leaked_iova_entries").Uint(leaked_iova_entries);
  w.Key("cross_cpu_race_probes").Uint(cross_cpu_race_probes);
  w.Key("cross_cpu_stale_hits").Uint(cross_cpu_stale_hits);
  w.Key("cross_cpu_stale_blocked").Uint(cross_cpu_stale_blocked);
  w.Key("cross_cpu_detected").Uint(cross_cpu_detected);
  w.Key("sibling_quarantine_probes").Uint(sibling_quarantine_probes);
  w.Key("sibling_completions_fenced").Uint(sibling_completions_fenced);
  w.Key("nic").BeginObject();
  w.Key("probes").Uint(nic.probes);
  w.Key("ok").Uint(nic.ok);
  w.Key("availability").Double(nic.availability);
  w.Key("quarantines").Uint(nic.quarantines);
  w.Key("shed_packets").Uint(nic.shed_packets);
  w.EndObject().Key("nvme").BeginObject();
  w.Key("probes").Uint(nvme.probes);
  w.Key("ok").Uint(nvme.ok);
  w.Key("availability").Double(nvme.availability);
  w.Key("quarantines").Uint(nvme.quarantines);
  w.Key("shed_ios").Uint(nvme.shed_ios);
  w.Key("reads_completed").Uint(nvme.reads_completed);
  w.Key("writes_completed").Uint(nvme.writes_completed);
  w.Key("io_errors").Uint(nvme.io_errors);
  w.Key("completion_errors").Uint(nvme.completion_errors);
  w.Key("queue_resets").Uint(nvme.queue_resets);
  w.Key("forged_completions").Uint(nvme.forged_completions);
  w.Key("replays_landed").Uint(nvme.replays_landed);
  w.Key("replays_blocked").Uint(nvme.replays_blocked);
  w.Key("verify_mismatches").Uint(nvme.verify_mismatches);
  w.EndObject().Key("policy").BeginObject();
  w.Key("hotplug_attaches").Uint(policy.hotplug_attaches);
  w.Key("hotplug_detaches").Uint(policy.hotplug_detaches);
  w.Key("subpage_read_probes").Uint(policy.subpage_read_probes);
  w.Key("subpage_write_probes").Uint(policy.subpage_write_probes);
  w.Key("secret_leaks").Uint(policy.secret_leaks);
  w.Key("neighbour_corruptions").Uint(policy.neighbour_corruptions);
  w.Key("bounce_rx_ok").Uint(policy.bounce_rx_ok);
  w.Key("bounce_maps").Uint(policy.bounce_maps);
  w.Key("bounce_unmaps").Uint(policy.bounce_unmaps);
  w.Key("demotions").Uint(policy.demotions);
  w.Key("promotion_attempts").Uint(policy.promotion_attempts);
  w.Key("promotions_blocked").Uint(policy.promotions_blocked);
  w.Key("hostile_still_untrusted").Uint(policy.hostile_still_untrusted);
  // The engine's own HSI-style posture document, verbatim (null when the
  // policy leg is off).
  w.EndObject().Key("posture").Raw(posture_json).Key("forensics").BeginObject();
  w.Key("incidents_opened").Uint(incidents_opened);
  w.Key("incidents_suppressed").Uint(incidents_suppressed);
  w.Key("flight_records").Uint(flight_records);
  w.Key("flight_dropped").Uint(flight_dropped);
  w.Key("summary").Raw(incident_summary_json);
  w.EndObject().Key("cpus").BeginArray();
  for (const CpuBreakdown& cpu : cpus) {
    w.BeginObject().Key("cpu").Uint(cpu.cpu).Key("churn_ops").Uint(cpu.churn_ops);
    w.Key("churn_failures").Uint(cpu.churn_failures).Key("rx_packets").Uint(cpu.rx_packets);
    w.EndObject();
  }
  return w.EndArray().EndObject().Take();
}

}  // namespace spv::soak
