// A statistics counter.
//
// Every Stats struct in the simulator (Iommu::Stats, IovaAllocator::Stats,
// ...) holds StatCounters: a plain uint64_t that starts at zero and reads
// like an integer at every call site (implicit conversion on read, ++/+= on
// write). The class exists for the zero start — a bare uint64_t member would
// leave the Stats structs uninitialised — and so that Hub::Link can name a
// layer's tally. Counting never advances the simulated clock.

#ifndef SPV_BASE_STAT_COUNTER_H_
#define SPV_BASE_STAT_COUNTER_H_

#include <cstdint>

namespace spv {

class StatCounter {
 public:
  StatCounter() = default;
  StatCounter(uint64_t v) : v_(v) {}  // NOLINT(google-explicit-constructor)

  operator uint64_t() const { return v_; }  // NOLINT(google-explicit-constructor)
  uint64_t load() const { return v_; }

  StatCounter& operator++() {
    ++v_;
    return *this;
  }
  uint64_t operator++(int) { return v_++; }
  StatCounter& operator--() {
    --v_;
    return *this;
  }
  uint64_t operator--(int) { return v_--; }
  StatCounter& operator+=(uint64_t n) {
    v_ += n;
    return *this;
  }
  StatCounter& operator-=(uint64_t n) {
    v_ -= n;
    return *this;
  }

 private:
  uint64_t v_ = 0;
};

}  // namespace spv

#endif  // SPV_BASE_STAT_COUNTER_H_
