// Shared shape of the benchmark's workloads.
//
// storage_strict and net_echo are OpWorkloads: a seeded stream of ops driven
// closed-loop on one host thread by RunOpWorkload, which times set-up, runs
// the timed phase in slices and derives every metric. soak_chaos wraps
// soak::RunSoak, whose epochs are opaque from outside, so it has its own
// driver.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "core/machine.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;  // traced runs: where the kept spans are written
};

// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRuns = 7;

struct RunOutput {
  explicit RunOutput(bool trace) : metrics(trace ? kPerLayerMetrics : kEndToEndMetrics) {}

  MetricValues metrics;
  uint64_t attempted = 0;
  std::string digest;  // hash of every simulated output (Digest::Hex)
  std::string notes;   // human-readable lines printed ahead of the result
};

// Public layer counters, read between ops. Per-layer metrics are deltas of
// these over the sim window; the digest hashes them.
struct LayerCounters {
  uint64_t sim_cycles = 0;
  uint64_t invalidations = 0;  // targeted invalidations + global flushes
  uint64_t invalidation_cycles = 0;
  uint64_t flush_drains = 0;  // capacity + deadline drains
  uint64_t iotlb_hits = 0;
  uint64_t iotlb_misses = 0;
  uint64_t walk_hits = 0;
  uint64_t walk_misses = 0;
  uint64_t rcache_hits = 0;
  uint64_t rcache_misses = 0;
  uint64_t depot_refills = 0;
  uint64_t page_allocs = 0;
  uint64_t hot_cache_hits = 0;
  uint64_t frag_regions = 0;
  uint64_t live_mappings = 0;
  uint64_t prp_segments = 0;
  uint64_t nvme_failed = 0;  // io errors + completion errors + poll deadline hits
  uint64_t device_bytes = 0;
  uint64_t rx_failures = 0;  // refill failures + device drops + length errors
  uint64_t skbs_allocated = 0;
  uint64_t skbs_freed = 0;

  std::vector<uint64_t> Fields() const;
};

// Fills the machine-wide fields (clock, iommu, mem, slab, dma) for the
// device whose translation domain the workload drives.
void FillMachineCounters(spv::core::Machine& machine, spv::DeviceId device,
                         LayerCounters& counters);

class OpWorkload {
 public:
  virtual ~OpWorkload() = default;

  // One op of the seeded stream, with its output checks. Any error fails
  // the run.
  virtual spv::Status RunOp(uint64_t op) = 0;
  virtual const spv::SimClock& clock() = 0;
  virtual LayerCounters Counters() = 0;
  // Driver shutdown plus the end-of-run checks (media or echo accounting,
  // Machine::CheckInvariants). Called once, last.
  virtual spv::Status Teardown() = 0;
};

// Set-up (machine bring-up, driver Init, ring fill, warm-up). Spans go to
// `spans`, which the caller enables only in traced slices.
using WorkloadFactory =
    std::function<spv::Result<std::unique_ptr<OpWorkload>>(uint64_t seed, SpanRecorder& spans)>;

// Times kSetupRuns set-ups, then runs ops for options.seconds in slices (in
// traced runs, untraced and traced slices alternate). The first
// `sim_window_ops` ops form the sim window: their per-op SimClock deltas and
// the counters at its end are deterministic for a seed.
spv::Result<RunOutput> RunOpWorkload(const Options& options, const WorkloadFactory& make,
                                     uint64_t sim_window_ops);

spv::Result<std::unique_ptr<OpWorkload>> MakeStorageStrict(uint64_t seed, SpanRecorder& spans);
spv::Result<std::unique_ptr<OpWorkload>> MakeNetEcho(uint64_t seed, SpanRecorder& spans);
spv::Result<RunOutput> RunSoakChaos(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
