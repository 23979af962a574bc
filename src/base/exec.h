// The ambient simulated-CPU context.
//
// The machine advances every sim CPU on one host thread: Machine::RunOnCpus
// visits the CPUs in order, so the same seed gives byte-identical output.
// The "current CPU" is ambient state (like preemption context in the
// kernel) rather than a parameter, so device models need no plumbing: IOVA
// magazine traffic, deferred unmaps and per-queue work read it here. It is
// thread-local, so machines driven from different host threads keep
// separate contexts.

#ifndef SPV_BASE_EXEC_H_
#define SPV_BASE_EXEC_H_

#include <cstdint>

#include "base/types.h"

namespace spv {

namespace internal {
inline thread_local uint32_t tls_current_cpu = 0;
}  // namespace internal

// The sim CPU the simulated kernel currently executes on.
inline CpuId CurrentCpu() { return CpuId{internal::tls_current_cpu}; }
inline void SetCurrentCpu(CpuId cpu) { internal::tls_current_cpu = cpu.value; }

}  // namespace spv

#endif  // SPV_BASE_EXEC_H_
