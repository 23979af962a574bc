// Execution modes and the ambient simulated-CPU context.
//
// The machine runs in one of two modes:
//   * kSequential — one host thread advances every sim CPU in a seeded
//     round-robin. Fully deterministic: same seed, byte-identical output.
//     This is the mode every test, attack replay and committed baseline runs
//     in.
//   * kThreads — N host worker threads, each owning one sim CPU (and that
//     CPU's NIC queue pair, flush-queue shard, IOVA magazines and frag pool).
//     Telemetry events reach the sinks on the worker that publishes them,
//     one at a time under the Hub's dispatch lock. Used for wall-clock
//     throughput runs and for surfacing real cross-CPU interleavings under
//     TSan. Not byte-deterministic.
//
// The "current CPU" is ambient state (like preemption context in the
// kernel): thread-local, so in kThreads mode each worker carries its own CPU
// identity with no plumbing, and in kSequential mode set_current_cpu behaves
// exactly as the old per-machine member did.

#ifndef SPV_BASE_EXEC_H_
#define SPV_BASE_EXEC_H_

#include <cstdint>

#include "base/types.h"

namespace spv {

enum class ExecMode : uint8_t {
  kSequential,  // one thread, seeded round-robin over sim CPUs (deterministic)
  kThreads,     // one host worker thread per sim CPU (wall-clock / TSan runs)
};

namespace internal {
inline thread_local uint32_t tls_current_cpu = 0;
}  // namespace internal

// The sim CPU the calling host thread currently executes kernel code on.
inline CpuId CurrentCpu() { return CpuId{internal::tls_current_cpu}; }
inline void SetCurrentCpu(CpuId cpu) { internal::tls_current_cpu = cpu.value; }

}  // namespace spv

#endif  // SPV_BASE_EXEC_H_
