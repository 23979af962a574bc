// Fast-path knobs for the DMA map/unmap hot path.
//
// The one toggle switches the two structures real systems ship — Linux's
// per-CPU IOVA rcache and the VT-d paging-structure (walk) cache — so a
// single binary can run with and without them and an A/B comparison
// (bench_map_unmap) is honest. It may move simulated cycles but never
// semantics: the fast path must be *observably equivalent* to the slow path
// — same IOVAs-are-distinct substrate for the type (c) vulnerability, same
// deferred-invalidation window, same fault behaviour. Pure host-side
// data-structure choices are not toggles: they have one implementation.

#ifndef SPV_IOMMU_FAST_PATH_H_
#define SPV_IOMMU_FAST_PATH_H_

#include <cstddef>
#include <cstdint>

namespace spv::iommu {

struct FastPathConfig {
  // Linux-style per-CPU IOVA magazine caches (iova rcache) in front of the
  // range allocator, and the last-level walk cache in IoPageTable (repeated
  // translations of hot 2 MiB regions skip the multi-level radix descent).
  // Off = every Alloc/Free walks the free-range tree and every translation
  // walks all levels.
  bool enabled = true;

  // Simulated CPUs sharing the rcache; each gets its own loaded/prev
  // magazine pair (struct iova_cpu_rcache).
  uint32_t num_cpus = 1;

  // IOVAs per magazine (IOVA_MAG_SIZE in Linux).
  size_t magazine_capacity = 127;

  // Full magazines the shared depot may hold per size class before overflow
  // dumps a magazine back to the range tree (MAX_GLOBAL_MAGS).
  size_t depot_capacity = 32;
};

}  // namespace spv::iommu

#endif  // SPV_IOMMU_FAST_PATH_H_
