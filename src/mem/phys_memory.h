// Simulated physical memory.
//
// A flat, byte-addressable array of 4 KiB pages. Every byte a device can
// corrupt and every byte the simulated kernel parses lives here; host-side
// C++ objects (drivers, rings, the sk_buff metadata that Linux also keeps
// off the DMA page) merely *reference* ranges of this memory.
//
// The array is lazily zeroed host memory from calloc: a large one is a fresh
// anonymous mapping whose pages the host kernel supplies, already zero, on
// first touch. Constructing a memory therefore costs nothing in proportion
// to its size, and host RSS follows the pages the simulation touches.

#ifndef SPV_MEM_PHYS_MEMORY_H_
#define SPV_MEM_PHYS_MEMORY_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>

#include "base/status.h"
#include "base/types.h"

namespace spv::mem {

class PhysicalMemory {
 public:
  explicit PhysicalMemory(uint64_t num_pages);

  uint64_t num_pages() const { return num_pages_; }
  uint64_t size_bytes() const { return num_pages_ << kPageShift; }

  bool Contains(PhysAddr addr, uint64_t len = 1) const {
    return addr.value + len <= size_bytes() && addr.value + len >= addr.value;
  }

  // Bulk accessors. Out-of-range accesses return an error (a real bus would
  // master-abort); they never touch host memory out of bounds.
  Status Read(PhysAddr addr, std::span<uint8_t> out) const;
  Status Write(PhysAddr addr, std::span<const uint8_t> data);

  // Little-endian scalar accessors, the common case for struct fields.
  Result<uint64_t> ReadU64(PhysAddr addr) const;
  Result<uint32_t> ReadU32(PhysAddr addr) const;
  Result<uint16_t> ReadU16(PhysAddr addr) const;
  Result<uint8_t> ReadU8(PhysAddr addr) const;
  Status WriteU64(PhysAddr addr, uint64_t value);
  Status WriteU32(PhysAddr addr, uint32_t value);
  Status WriteU16(PhysAddr addr, uint16_t value);
  Status WriteU8(PhysAddr addr, uint8_t value);

  Status Fill(PhysAddr addr, uint64_t len, uint8_t byte);

  // Direct page views for fast in-simulator parsing. Bounds are asserted.
  std::span<uint8_t> PageSpan(Pfn pfn);
  std::span<const uint8_t> PageSpan(Pfn pfn) const;

 private:
  struct FreeBytes {
    void operator()(uint8_t* bytes) const { std::free(bytes); }
  };

  uint64_t num_pages_;
  std::unique_ptr<uint8_t[], FreeBytes> bytes_;
};

}  // namespace spv::mem

#endif  // SPV_MEM_PHYS_MEMORY_H_
