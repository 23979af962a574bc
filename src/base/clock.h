// Simulated cycle clock.
//
// The paper's timing arguments (§5.2.1) are stated in cycles and wall time:
// IOTLB invalidation ≈ 2000 cycles, TLB invalidation ≈ 100 cycles, deferred
// flush window ≤ 10 ms. The simulator keeps logical cycle counters that
// components advance explicitly; no wall-clock time leaks into logic.
//
// Two regimes:
//   * Shared (default, ExecMode::kSequential): one counter, exactly the
//     pre-multicore behavior. Deterministic.
//   * Per-CPU (ExecMode::kThreads): each sim CPU owns a cache-line-padded
//     counter advanced only by the host thread bound to that CPU, read via
//     the thread-local CurrentCpu(). Cross-CPU reads (now_cpu) are
//     relaxed loads — they are used for reporting and for deadline
//     comparisons where a slightly stale view only delays, never corrupts.
//     Sim time, not host time, is the throughput denominator: host lock
//     waits do not advance any sim clock, so scaling numbers are
//     machine-independent.

#ifndef SPV_BASE_CLOCK_H_
#define SPV_BASE_CLOCK_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "base/exec.h"

namespace spv {

class SimClock {
 public:
  // Models a 2 GHz part: 2 cycles per nanosecond.
  static constexpr uint64_t kCyclesPerUs = 2000;
  static constexpr uint64_t kCyclesPerMs = kCyclesPerUs * 1000;
  static constexpr uint32_t kMaxCpus = 64;

  uint64_t now() const {
    if (!per_cpu_) {
      return now_cycles_;
    }
    return slot(CurrentCpu()).cycles.load(std::memory_order_relaxed);
  }

  void Advance(uint64_t cycles) {
    if (!per_cpu_) {
      now_cycles_ += cycles;
      return;
    }
    slot(CurrentCpu()).cycles.fetch_add(cycles, std::memory_order_relaxed);
  }
  void AdvanceUs(uint64_t us) { Advance(us * kCyclesPerUs); }

  // Switch to per-CPU counters, seeding each from the shared boot-time count.
  // Must be called before any worker thread runs; one-way.
  void EnablePerCpu() {
    for (uint32_t i = 0; i < kMaxCpus; ++i) {
      cpu_[i].cycles.store(now_cycles_, std::memory_order_relaxed);
    }
    per_cpu_ = true;
  }

  uint64_t now_cpu(CpuId cpu) const {
    if (!per_cpu_) {
      return now_cycles_;
    }
    return slot(cpu).cycles.load(std::memory_order_relaxed);
  }

  static constexpr uint64_t UsToCycles(uint64_t us) { return us * kCyclesPerUs; }
  static constexpr uint64_t MsToCycles(uint64_t ms) { return ms * kCyclesPerMs; }
  static constexpr double CyclesToUs(uint64_t cycles) {
    return static_cast<double>(cycles) / static_cast<double>(kCyclesPerUs);
  }

 private:
  struct alignas(64) PaddedCycles {
    std::atomic<uint64_t> cycles{0};
  };

  PaddedCycles& slot(CpuId cpu) { return cpu_[cpu.value % kMaxCpus]; }
  const PaddedCycles& slot(CpuId cpu) const { return cpu_[cpu.value % kMaxCpus]; }

  uint64_t now_cycles_ = 0;
  bool per_cpu_ = false;
  std::array<PaddedCycles, kMaxCpus> cpu_{};
};

}  // namespace spv

#endif  // SPV_BASE_CLOCK_H_
