// spv::fault — deterministic, seedable, machine-wide fault injection.
//
// The paper's attacks live in error-adjacent windows (deferred invalidation,
// ring refill, partial scatter-gather maps), but a substrate that only ever
// walks the happy path cannot demonstrate that its error paths hold up. The
// engine here adopts the DICE/InjectV approach: faults are *modelled* at
// named sites inside the simulation, triggered by a plan that is a pure
// function of the machine seed, so every failure a test provokes is
// reproducible bit-for-bit and regression-testable.
//
// Design:
//   * `FaultSite` enumerates every instrumented point, one per failure mode
//     (allocator exhaustion, IOVA exhaustion, mid-scatter-gather page-table
//     failure, invalidation stalls, NIC device misbehaviour).
//   * `FaultPlan` assigns each site a trigger: probability-per-arm,
//     every-Nth-arm, or one-shot-at-arm-K, plus an optional site-specific
//     magnitude (stall cycles, corrupted length, ...).
//   * `FaultEngine` is owned by core::Machine and handed to components as a
//     raw pointer (the `set_telemetry` idiom). Disarmed — the default — a
//     site costs one null/flag test; components guard with
//     `fault != nullptr && fault->armed()` so the map/unmap fast path stays
//     within the <3% bench budget.
//   * Each site draws from its own SplitMix64 stream derived from the
//     machine seed, so adding traffic at one site never perturbs another.
//
// Every injection is published on the telemetry bus as a kFaultInjected
// event plus a `fault.injected.<site>` counter; consumers publish their
// recovery actions as `fault.recovered.*` (see DESIGN.md §8).

#ifndef SPV_FAULT_FAULT_H_
#define SPV_FAULT_FAULT_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "base/stat_counter.h"
#include "telemetry/telemetry.h"

namespace spv::fault {

enum class FaultSite : uint8_t {
  // Memory allocators.
  kPageAlloc = 0,    // buddy allocator returns out-of-pages
  kSlabAlloc,        // kmalloc returns exhaustion before carving a slot
  kPageFragAlloc,    // page_frag pool fails the carve/refill
  // IOMMU.
  kIovaAlloc,        // IOVA window reported exhausted
  kIoPageTableMap,   // IoPageTable::Map fails mid-scatter-gather
  kIotlbInvalidation,  // invalidation stalls (magnitude = extra cycles)
  // NIC device model, as observed by the driver.
  kNicRxDrop,           // device drops the frame; completion never delivers
  kNicRxTruncate,       // frame cut short (magnitude = delivered bytes)
  kNicRxCorrupt,        // device scribbles over the packet header
  kNicDescWriteback,    // descriptor writeback carries a garbage length
  kNicRxRefillStarve,   // RX buffer refill fails (allocator said no)
  kNicTxCompletionLoss, // TX completion never arrives; watchdog must act
  kNicDeviceStall,      // device stalls (magnitude = cycles before service)
  // NVMe controller model, as observed by the block driver.
  kNvmeSqFetchCorrupt,   // SQE arrives bit-flipped (magnitude = XOR mask)
  kNvmePrpWild,          // a PRP entry dereferences wild (magnitude = offset)
  kNvmeCqPhaseFlip,      // CQE posted with the wrong phase bit; driver misses it
  kNvmeDoorbellStorm,    // doorbell replays already-consumed SQ entries
  kNvmeCompletionDrop,   // command executes but its CQE never lands
  kNvmeShortTransfer,    // data transfer stops early (magnitude = bytes moved)
};

inline constexpr size_t kNumFaultSites = 19;
// First of the kNvme* block; the NIC fault matrix sweeps [0, kFirstNvmeSite)
// and the NVMe matrix sweeps the rest.
inline constexpr size_t kFirstNvmeSite = static_cast<size_t>(FaultSite::kNvmeSqFetchCorrupt);

std::string_view FaultSiteName(FaultSite site);
std::optional<FaultSite> FaultSiteFromName(std::string_view name);

struct FaultTrigger {
  enum class Mode : uint8_t {
    kNever = 0,
    kProbability,  // fire with `probability` on each arm
    kEveryNth,     // fire on arms n, 2n, 3n, ...
    kOneShot,      // fire exactly once, on arm `n`
  };

  Mode mode = Mode::kNever;
  double probability = 0.0;
  uint64_t n = 1;
  uint64_t max_injections = UINT64_MAX;
  // Site-specific payload: stall cycles (kIotlbInvalidation, kNicDeviceStall),
  // delivered bytes (kNicRxTruncate), reported length (kNicDescWriteback).
  // 0 means "use the site's default".
  uint64_t magnitude = 0;
};

// A per-site trigger table with a builder interface:
//   FaultPlan plan;
//   plan.EveryNth(FaultSite::kPageAlloc, 7)
//       .OneShot(FaultSite::kIoPageTableMap, 3)
//       .Magnitude(FaultSite::kNicDeviceStall, SimClock::MsToCycles(2));
class FaultPlan {
 public:
  FaultPlan& Probability(FaultSite site, double p, uint64_t max_injections = UINT64_MAX);
  FaultPlan& EveryNth(FaultSite site, uint64_t n, uint64_t max_injections = UINT64_MAX);
  FaultPlan& OneShot(FaultSite site, uint64_t at_arm = 1);
  FaultPlan& Magnitude(FaultSite site, uint64_t magnitude);

  const FaultTrigger& trigger(FaultSite site) const {
    return triggers_[static_cast<size_t>(site)];
  }
  bool empty() const;

 private:
  FaultTrigger& At(FaultSite site) { return triggers_[static_cast<size_t>(site)]; }

  std::array<FaultTrigger, kNumFaultSites> triggers_{};
};

class FaultEngine {
 public:
  struct SiteStats {
    StatCounter arms;        // times the site asked "should I fail?"
    StatCounter injections;  // times the answer was yes
  };

  FaultEngine() = default;

  FaultEngine(const FaultEngine&) = delete;
  FaultEngine& operator=(const FaultEngine&) = delete;

  // Loads `plan` and derives one RNG stream per site from `seed`. Resets all
  // site statistics; an empty plan leaves the engine disarmed.
  void Arm(const FaultPlan& plan, uint64_t seed);
  void Disarm() { armed_ = false; }
  bool armed() const { return armed_; }

  // The per-site decision. Hot paths call this behind an `armed()` guard;
  // calling it disarmed is valid and always false (one branch).
  bool ShouldInject(FaultSite site);

  // The plan's magnitude for `site`, or `fallback` when unset.
  uint64_t magnitude(FaultSite site, uint64_t fallback) const;

  // Publishes kFaultInjected events and fault.injected.* counters to `hub`
  // (nullptr detaches).
  void set_telemetry(telemetry::Hub* hub) { hub_ = hub; }

  const SiteStats& site_stats(FaultSite site) const {
    return stats_[static_cast<size_t>(site)];
  }
  uint64_t total_injections() const;

 private:
  bool armed_ = false;
  FaultPlan plan_;
  std::array<uint64_t, kNumFaultSites> rng_{};  // SplitMix64 state per site
  std::array<SiteStats, kNumFaultSites> stats_{};
  telemetry::Hub* hub_ = nullptr;
};

}  // namespace spv::fault

#endif  // SPV_FAULT_FAULT_H_
