// CPU-side view of kernel memory.
//
// All simulated-kernel code (network stack, drivers, workloads) reads and
// writes simulated physical memory through this wrapper, addressed by KVA.
// Every access publishes a kCpuAccess event through DmaApi::NotifyCpuAccess —
// the analogue of KASAN's compile-time instrumentation — which is how D-KASAN
// sees CPU accesses to DMA-mapped pages (access-after-map, §4.2).

#ifndef SPV_DMA_KERNEL_MEMORY_H_
#define SPV_DMA_KERNEL_MEMORY_H_

#include <cstdint>
#include <span>
#include <string>

#include "base/status.h"
#include "base/types.h"
#include "dma/dma_api.h"
#include "mem/kernel_layout.h"
#include "mem/phys_memory.h"

namespace spv::dma {

class KernelMemory {
 public:
  KernelMemory(mem::PhysicalMemory& pm, const mem::KernelLayout& layout, DmaApi& dma)
      : pm_(pm), layout_(layout), dma_(dma) {}

  Result<uint64_t> ReadU64(Kva kva) const;
  Result<uint32_t> ReadU32(Kva kva) const;
  Result<uint16_t> ReadU16(Kva kva) const;
  Result<uint8_t> ReadU8(Kva kva) const;
  Status WriteU64(Kva kva, uint64_t value);
  Status WriteU32(Kva kva, uint32_t value);
  Status WriteU16(Kva kva, uint16_t value);
  Status WriteU8(Kva kva, uint8_t value);

  Status Read(Kva kva, std::span<uint8_t> out) const;
  Status Write(Kva kva, std::span<const uint8_t> data);
  Status Fill(Kva kva, uint64_t len, uint8_t byte);
  Status Copy(Kva dst, Kva src, uint64_t len);

  const mem::KernelLayout& layout() const { return layout_; }

 private:
  Result<PhysAddr> Translate(Kva kva, uint64_t len, bool is_write) const;

  mem::PhysicalMemory& pm_;
  const mem::KernelLayout& layout_;
  DmaApi& dma_;
};

}  // namespace spv::dma

#endif  // SPV_DMA_KERNEL_MEMORY_H_
