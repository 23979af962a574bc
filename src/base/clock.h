// Simulated cycle clock.
//
// The paper's timing arguments (§5.2.1) are stated in cycles and wall time:
// IOTLB invalidation ≈ 2000 cycles, TLB invalidation ≈ 100 cycles, deferred
// flush window ≤ 10 ms. The simulator keeps one logical cycle counter that
// components advance explicitly; no wall-clock time leaks into logic. All
// sim CPUs share it, so multi-CPU runs do not model parallel speed-up.

#ifndef SPV_BASE_CLOCK_H_
#define SPV_BASE_CLOCK_H_

#include <cstdint>

namespace spv {

class SimClock {
 public:
  // Models a 2 GHz part: 2 cycles per nanosecond.
  static constexpr uint64_t kCyclesPerUs = 2000;
  static constexpr uint64_t kCyclesPerMs = kCyclesPerUs * 1000;

  uint64_t now() const { return now_cycles_; }

  void Advance(uint64_t cycles) { now_cycles_ += cycles; }
  void AdvanceUs(uint64_t us) { Advance(us * kCyclesPerUs); }

  static constexpr uint64_t UsToCycles(uint64_t us) { return us * kCyclesPerUs; }
  static constexpr uint64_t MsToCycles(uint64_t ms) { return ms * kCyclesPerMs; }
  static constexpr double CyclesToUs(uint64_t cycles) {
    return static_cast<double>(cycles) / static_cast<double>(kCyclesPerUs);
  }

 private:
  uint64_t now_cycles_ = 0;
};

}  // namespace spv

#endif  // SPV_BASE_CLOCK_H_
