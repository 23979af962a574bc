#include <cstdio>
#include <numeric>

#include "bench.h"

namespace perfbench {

namespace {

// Host rates are taken per 100 ms slice. On a shared host the per-slice rate
// switches for seconds at a time between a contended floor and bursts up to
// 1.6x faster, so the median and mean follow the burst share of each run;
// the lower decile, the rate sustained in 90% of slices, stays put.
constexpr int64_t kSliceNs = 100'000'000;
constexpr double kSustainedQuantile = 0.10;
// Ops between clock reads inside a slice, keeping the loop's own cost small.
constexpr uint64_t kOpsPerClockRead = 16;

double PerOp(uint64_t count, uint64_t ops) {
  return Ratio(static_cast<double>(count), static_cast<double>(ops));
}

// Per-layer metrics from counters: rates over the sim window, failure and
// leak counts as of the end of the timed phase.
void SetCounterMetrics(const LayerCounters& start, const LayerCounters& window_end,
                       const LayerCounters& end, uint64_t window_ops, MetricValues& m) {
  auto d = [&](uint64_t LayerCounters::* field) { return window_end.*field - start.*field; };
  m.Set("nvme.prp_segments_per_op", PerOp(d(&LayerCounters::prp_segments), window_ops));
  m.Set("nvme.failed_commands", static_cast<double>(end.nvme_failed));
  m.Set("device.nvme_bytes_per_op", PerOp(d(&LayerCounters::device_bytes), window_ops));
  m.Set("dma.live_mappings_drift", static_cast<double>(end.live_mappings) -
                                       static_cast<double>(start.live_mappings));
  m.Set("iommu.invalidations_per_op", PerOp(d(&LayerCounters::invalidations), window_ops));
  m.Set("iommu.invalidation_cycles_share",
        PerOp(d(&LayerCounters::invalidation_cycles), d(&LayerCounters::sim_cycles)));
  m.Set("iommu.iotlb_hit_ratio",
        PerOp(d(&LayerCounters::iotlb_hits),
              d(&LayerCounters::iotlb_hits) + d(&LayerCounters::iotlb_misses)));
  m.Set("iommu.walk_cache_hit_ratio",
        PerOp(d(&LayerCounters::walk_hits),
              d(&LayerCounters::walk_hits) + d(&LayerCounters::walk_misses)));
  m.Set("iommu.rcache_hit_ratio",
        PerOp(d(&LayerCounters::rcache_hits),
              d(&LayerCounters::rcache_hits) + d(&LayerCounters::rcache_misses)));
  m.Set("iommu.depot_refills_per_kop",
        1000 * PerOp(d(&LayerCounters::depot_refills), window_ops));
  m.Set("iommu.flush_drains_per_kop", 1000 * PerOp(d(&LayerCounters::flush_drains), window_ops));
  m.Set("net.rx_failures", static_cast<double>(end.rx_failures));
  m.Set("net.skb_leak",
        static_cast<double>(end.skbs_allocated) - static_cast<double>(end.skbs_freed));
  m.Set("slab.frag_regions_per_kop", 1000 * PerOp(d(&LayerCounters::frag_regions), window_ops));
  m.Set("mem.page_allocs_per_op", PerOp(d(&LayerCounters::page_allocs), window_ops));
  m.Set("mem.hot_cache_hit_ratio",
        PerOp(d(&LayerCounters::hot_cache_hits), d(&LayerCounters::page_allocs)));
}

// Per-layer host times from the spans of traced slices.
void SetSpanMetrics(const SpanRecorder& spans, uint64_t traced_ops, MetricValues& m) {
  auto total = [&](SpanName name) { return PerOp(spans.totals(name).host_ns, traced_ops); };
  m.Set("nvme.submit_self_ns_per_op",
        PerOp(spans.totals(SpanName::kNvmeSubmit).self_host_ns(), traced_ops));
  m.Set("device.nvme_service_ns_per_op", total(SpanName::kDeviceNvmeService));
  m.Set("device.rx_inject_ns_per_op", total(SpanName::kDeviceRxInject));
  m.Set("device.tx_fetch_ns_per_op", total(SpanName::kDeviceTxFetch));
  m.Set("dma.kmem_copy_ns_per_op", total(SpanName::kDmaKmem));
  m.Set("iommu.timer_ns_per_op", total(SpanName::kIommuTimer));
  m.Set("net.complete_rx_ns_per_op", total(SpanName::kNetCompleteRx));
  m.Set("net.receive_ns_per_op", total(SpanName::kNetReceive));
  m.Set("net.tx_complete_ns_per_op", total(SpanName::kNetTxComplete));
}

}  // namespace

std::vector<uint64_t> LayerCounters::Fields() const {
  return {sim_cycles,    invalidations,  invalidation_cycles, flush_drains, iotlb_hits,
          iotlb_misses,  walk_hits,      walk_misses,         rcache_hits,  rcache_misses,
          depot_refills, page_allocs,    hot_cache_hits,      frag_regions, live_mappings,
          prp_segments,  nvme_failed,    device_bytes,        rx_failures,  skbs_allocated,
          skbs_freed};
}

void FillMachineCounters(spv::core::Machine& machine, spv::DeviceId device,
                         LayerCounters& c) {
  c.sim_cycles = machine.clock().now();
  const spv::iommu::Iommu::Stats& stats = machine.iommu().stats();
  c.invalidations = stats.targeted_invalidations + stats.flushes;
  c.invalidation_cycles = stats.invalidation_cycles;
  c.flush_drains = stats.flush_capacity_drains + stats.flush_deadline_drains;
  c.iotlb_hits = machine.iommu().iotlb().hits();
  c.iotlb_misses = machine.iommu().iotlb().misses();
  if (const spv::iommu::IoPageTable* table = machine.iommu().page_table(device)) {
    c.walk_hits = table->walk_cache_stats().hits;
    c.walk_misses = table->walk_cache_stats().misses;
  }
  if (const spv::iommu::IovaAllocator* iova = machine.iommu().iova_allocator(device)) {
    c.rcache_hits = iova->stats().rcache_hits;
    c.rcache_misses = iova->stats().rcache_misses;
    c.depot_refills = iova->stats().depot_refills;
  }
  c.page_allocs = machine.page_alloc().alloc_count();
  c.hot_cache_hits = machine.page_alloc().hot_cache_hits();
  for (uint32_t cpu = 0; cpu < machine.num_cpus(); ++cpu) {
    c.frag_regions += machine.frag_pool(spv::CpuId{cpu}).regions_allocated();
  }
  c.live_mappings = machine.dma().live_mappings();
}

spv::Result<RunOutput> RunOpWorkload(const Options& options, const WorkloadFactory& make,
                                     uint64_t sim_window_ops) {
  SpanRecorder spans;
  std::vector<double> setup_s;
  std::unique_ptr<OpWorkload> workload;
  for (int i = 0; i < kSetupRuns; ++i) {
    if (workload != nullptr) {
      SPV_RETURN_IF_ERROR(workload->Teardown());
      workload.reset();
    }
    const int64_t begin = SpanRecorder::NowNs();
    spv::Result<std::unique_ptr<OpWorkload>> made = make(options.seed, spans);
    const int64_t done = SpanRecorder::NowNs();
    if (!made.ok()) {
      return made.status();
    }
    workload = std::move(*made);
    setup_s.push_back(static_cast<double>(done - begin) / 1e9);
  }

  const spv::SimClock& clock = workload->clock();
  spans.set_sim_clock(&clock);
  const LayerCounters start = workload->Counters();
  LayerCounters window_end;
  double window_rss_mib = 0;
  std::vector<uint64_t> sim_deltas;
  sim_deltas.reserve(sim_window_ops);
  std::vector<double> rates[2];  // ops/s per slice: [0] untraced, [1] traced
  uint64_t op = 0;
  uint64_t traced_ops = 0;
  int64_t traced_ns = 0;
  const int64_t deadline =
      SpanRecorder::NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (uint64_t slice = 0;; ++slice) {
    const bool traced = options.trace && slice % 2 == 1;
    spans.set_enabled(traced);
    const int64_t slice_start = SpanRecorder::NowNs();
    int64_t now = slice_start;
    uint64_t slice_ops = 0;
    while (now - slice_start < kSliceNs) {
      spans.set_op(op);
      if (op < sim_window_ops) {
        const uint64_t before = clock.now();
        SPV_RETURN_IF_ERROR(workload->RunOp(op));
        sim_deltas.push_back(clock.now() - before);
        if (op + 1 == sim_window_ops) {
          window_end = workload->Counters();
          window_rss_mib = PeakRssMib();
        }
      } else {
        SPV_RETURN_IF_ERROR(workload->RunOp(op));
      }
      ++op;
      ++slice_ops;
      if (slice_ops % kOpsPerClockRead == 0) {
        now = SpanRecorder::NowNs();
      }
    }
    spans.set_enabled(false);
    rates[traced ? 1 : 0].push_back(static_cast<double>(slice_ops) * 1e9 /
                                    static_cast<double>(now - slice_start));
    if (traced) {
      traced_ops += slice_ops;
      traced_ns += now - slice_start;
    }
    if (now >= deadline && op >= sim_window_ops && (!options.trace || !rates[1].empty())) {
      break;
    }
  }
  const LayerCounters end = workload->Counters();
  SPV_RETURN_IF_ERROR(workload->Teardown());
  spans.set_sim_clock(nullptr);

  RunOutput out(options.trace);
  out.attempted = op;
  Digest digest;
  for (const uint64_t delta : sim_deltas) {
    digest.Add(delta);
  }
  for (const uint64_t field : window_end.Fields()) {
    digest.Add(field);
  }
  out.digest = digest.Hex();

  char notes[256];
  std::snprintf(notes, sizeof(notes),
                "timed phase: %llu ops, %zu untraced + %zu traced slices; sim window: n=%zu "
                "ops; setup runs: %d\n",
                static_cast<unsigned long long>(op), rates[0].size(), rates[1].size(),
                sim_deltas.size(), kSetupRuns);
  out.notes = notes;

  MetricValues& m = out.metrics;
  if (!options.trace) {
    const double sim_total =
        static_cast<double>(std::accumulate(sim_deltas.begin(), sim_deltas.end(), uint64_t{0}));
    m.Set("setup_s", Median(setup_s));
    m.Set("host_ops_per_s", Quantile(rates[0], kSustainedQuantile));
    m.Set("sim_cycles_per_op_mean", Ratio(sim_total, static_cast<double>(sim_deltas.size())));
    m.Set("sim_cycles_per_op_p50", static_cast<double>(Quantile(sim_deltas, 0.50)));
    m.Set("sim_cycles_per_op_p99", static_cast<double>(Quantile(sim_deltas, 0.99)));
    m.Set("peak_rss_mib", window_rss_mib);
    // Every op passed its checks: a failed one ends the run with an error.
    m.Set("ok_op_ratio", 1.0);
    return out;
  }
  SetCounterMetrics(start, window_end, end, sim_window_ops, m);
  SetSpanMetrics(spans, traced_ops, m);
  m.Set("bench.span_coverage",
        Ratio(static_cast<double>(spans.root_host_ns()), static_cast<double>(traced_ns)));
  m.Set("bench.tracing_overhead", Ratio(Quantile(rates[0], kSustainedQuantile),
                                       Quantile(rates[1], kSustainedQuantile)));
  if (!options.spans_out.empty()) {
    SPV_RETURN_IF_ERROR(spans.WriteCsv(options.spans_out));
  }
  return out;
}

}  // namespace perfbench
