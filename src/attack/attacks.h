// The three compound DMA attacks (§5.3–§5.5) plus the shared machinery for
// obtaining the missing vulnerability attributes (§3.3):
//
//   attribute (2) — write access to a callback pointer — comes from
//   skb_shared_info living inside every mapped data buffer (§5.1);
//   attribute (3) — a time window — comes from one of the Fig-7 paths
//   (wrong unmap order / deferred IOTLB / type (c) neighbour IOVA), probed
//   at runtime by TryPokeDestructorArg;
//   attribute (1) — the malicious buffer's KVA — is what distinguishes the
//   three attacks: boot-deterministic PFN guessing (RingFlood), echoed TX
//   frags (Poisoned TX), or GRO-filled forwarded frags (Forward Thinking).
//
// Each Run() is the experiment harness: it plays both the kernel (driver
// completions, stack delivery) and the device. Device-side steps only ever
// consume device-visible information (descriptors + DMA reads).

#ifndef SPV_ATTACK_ATTACKS_H_
#define SPV_ATTACK_ATTACKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "attack/kaslr_break.h"
#include "attack/mini_cpu.h"
#include "attack/poison.h"
#include "base/status.h"
#include "core/machine.h"
#include "device/malicious_nic.h"
#include "net/nic_driver.h"

namespace spv::attack {

// The three §3.3 attributes, tracked for reporting.
struct VulnerabilityAttributes {
  bool malicious_buffer_kva = false;
  bool callback_write_access = false;
  bool time_window = false;

  bool complete() const { return malicious_buffer_kva && callback_write_access && time_window; }
  std::string ToString() const;
};

struct AttackReport {
  bool success = false;
  VulnerabilityAttributes attributes;
  KaslrKnowledge kaslr;
  std::string window_path;          // which Fig-7 path delivered the write
  std::vector<std::string> steps;   // narrative for benches/examples
};

struct AttackEnv {
  core::Machine& machine;
  net::NicDriver& nic;
  device::MaliciousNic& device;
  MiniCpu& cpu;
};

// ---- Shared device-side primitives ---------------------------------------------

// Leaves freed kernel objects (with direct-map and init_net pointers inside)
// on pages that will be recycled into I/O buffers — the "random exposure"
// residue D-KASAN flags (§4.2) and Forward Thinking harvests. Call before the
// driver fills its RX ring.
Status SeedResidualKernelData(core::Machine& machine, int objects);

// Attempts to overwrite the destructor_arg of the shared_info belonging to a
// consumed RX buffer. The device cannot read back WRITE-only pages, so it
// fires through *every* window it might have and lets redundancy win:
//   "own-iova"      — the buffer's original IOVA. In deferred mode this hits
//                     through the stale IOTLB entry (Fig 7 (ii)); in strict
//                     mode the IOVA may have been recycled for the refill
//                     buffer, in which case the write lands elsewhere — a
//                     blind-fire risk the attacker accepts;
//   "neighbor-iova" — a still-posted descriptor whose mapping covers the same
//                     physical page, probed via the page_frag adjacency
//                     pattern (Fig 7 (iii)).
// `path` lists the writes that went through (attacker's view, not ground
// truth); the experiment decides success by whether escalation fires.
struct PokeResult {
  bool success = false;         // at least one write went through
  bool own_iova_write = false;
  bool neighbor_write = false;
  std::string path = "failed";
};
struct PokeOptions {
  bool try_own_iova = true;
  bool try_neighbor = true;
};
PokeResult TryPokeDestructorArg(device::MaliciousNic& nic,
                                const net::RxPostedDescriptor& consumed, uint32_t truesize,
                                uint64_t destructor_arg, const PokeOptions& options = {});

// Generic variant: write one qword at an arbitrary offset within the
// consumed buffer (used e.g. to spray every candidate slot when the victim
// runs struct-layout randomization, footnote 2).
PokeResult TryPokeQword(device::MaliciousNic& nic, const net::RxPostedDescriptor& consumed,
                        uint64_t field_offset, uint64_t value,
                        const PokeOptions& options = {});

// Device-side: offset of the shared_info (and its destructor_arg field)
// within an RX buffer of `truesize` bytes — derivable from the driver model.
uint64_t SharedInfoOffset(uint32_t truesize);
uint64_t DestructorArgOffset(uint32_t truesize);

// ---- §5.3 RingFlood ----------------------------------------------------------------

class RingFloodAttack {
 public:
  struct ProfileOptions {
    core::MachineConfig machine;        // victim template (seed varied per boot)
    net::NicDriver::Config driver;
    int boots = 32;
    uint64_t base_seed = 1000;
    int boot_noise_allocs = 40;         // deterministic boot work with jitter
    // Multi-queue scaling (§5.3: footprint grows with the number of cores,
    // i.e. RX rings): one ring per CPU 0..num_rings-1.
    int num_rings = 1;
  };

  // The deterministic boot work (module loads, early daemons) with per-boot
  // multi-core timing jitter. Profiling and the live victim must run the
  // same procedure — that is the §5.3 premise. Exposed so harnesses replay
  // it on the victim instance.
  static void ReplayBootNoise(core::Machine& machine, uint64_t seed, int base_allocs);

  // Offline phase: reboot an identical setup repeatedly and histogram which
  // PFNs host RX-ring data pages. Returns pfn -> number of boots present.
  static std::map<uint64_t, int> ProfileRxPfns(const ProfileOptions& options);
  static uint64_t MostCommonPfn(const std::map<uint64_t, int>& histogram);

  struct Options {
    uint64_t pfn_guess = 0;
  };

  // Online phase against a live machine. Bootstraps KASLR from the victim's
  // own TX traffic, poisons every posted RX buffer, then lets normal RX
  // processing fire the callback.
  static Result<AttackReport> Run(const AttackEnv& env, const Options& options);
};

// ---- §5.4 Poisoned TX -----------------------------------------------------------------

class PoisonedTxAttack {
 public:
  struct Options {
    uint32_t poison_payload_bytes = 1024;    // frag echo: leaks struct pages
  };

  static Result<AttackReport> Run(const AttackEnv& env, const Options& options);
};

// ---- §5.5 Forward Thinking -----------------------------------------------------------

class ForwardThinkingAttack {
 public:
  static Result<AttackReport> Run(const AttackEnv& env);

  // The persistent-surveillance variant: reads `len` bytes from an arbitrary
  // physical page by planting a forged frag in a forwarded packet (§5.5).
  static Result<std::vector<uint8_t>> SurveillanceRead(const AttackEnv& env,
                                                       const KaslrKnowledge& knowledge,
                                                       uint64_t target_pfn, uint32_t offset,
                                                       uint32_t len, uint32_t remote_ip);
};

}  // namespace spv::attack

#endif  // SPV_ATTACK_ATTACKS_H_
