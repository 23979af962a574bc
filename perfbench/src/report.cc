#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"host_ops_per_s", "ops/s"},
    {"sim_cycles_per_op_mean", "cycles"},
    {"sim_cycles_per_op_p50", "cycles"},
    {"sim_cycles_per_op_p99", "cycles"},
    {"peak_rss_mib", "MiB"},
    {"ok_op_ratio", "ratio"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"nvme.submit_self_ns_per_op", "ns"},
    {"nvme.prp_segments_per_op", "count"},
    {"nvme.failed_commands", "count"},
    {"device.nvme_service_ns_per_op", "ns"},
    {"device.nvme_bytes_per_op", "B"},
    {"device.rx_inject_ns_per_op", "ns"},
    {"device.tx_fetch_ns_per_op", "ns"},
    {"dma.kmem_copy_ns_per_op", "ns"},
    {"dma.live_mappings_drift", "count"},
    {"iommu.invalidations_per_op", "count"},
    {"iommu.invalidation_cycles_share", "ratio"},
    {"iommu.iotlb_hit_ratio", "ratio"},
    {"iommu.walk_cache_hit_ratio", "ratio"},
    {"iommu.rcache_hit_ratio", "ratio"},
    {"iommu.depot_refills_per_kop", "count"},
    {"iommu.flush_drains_per_kop", "count"},
    {"iommu.timer_ns_per_op", "ns"},
    {"net.complete_rx_ns_per_op", "ns"},
    {"net.receive_ns_per_op", "ns"},
    {"net.tx_complete_ns_per_op", "ns"},
    {"net.rx_failures", "count"},
    {"net.skb_leak", "count"},
    {"slab.frag_regions_per_kop", "count"},
    {"mem.page_allocs_per_op", "count"},
    {"mem.hot_cache_hit_ratio", "ratio"},
    {"forensics.flight_records_per_epoch", "count"},
    {"forensics.flight_drop_ratio", "ratio"},
    {"forensics.incident_suppressed_ratio", "ratio"},
    {"forensics.host_share", "ratio"},
    {"core.audit_host_share", "ratio"},
    {"trace.spans_opened", "count"},
    {"policy.bounce_maps_per_epoch", "count"},
    {"policy.demotions", "count"},
    {"recovery.quarantines_per_kepoch", "count"},
    {"fault.injected_per_kepoch", "count"},
    {"attack.runs_per_kepoch", "count"},
    {"attack.successes_per_kepoch", "count"},
    {"bench.span_coverage", "ratio"},
    {"bench.tracing_overhead", "ratio"},
};

namespace {

const MetricSpec* Find(const std::vector<MetricSpec>& catalogue, std::string_view name) {
  for (const MetricSpec& spec : catalogue) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

// Every digit the double carries; JSON has no NaN or infinity.
std::string Number(double value) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void MetricValues::Set(std::string_view name, double value) {
  if (Find(*catalogue_, name) == nullptr) {
    std::cerr << "perfbench: metric " << name << " is not in the catalogue\n";
    std::abort();
  }
  values_[std::string(name)] = value;
}

double MetricValues::Get(std::string_view name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::string MetricValues::ResultJson(uint64_t attempted, uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": true, \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  const char* separator = "";
  for (const MetricSpec& spec : *catalogue_) {
    out << separator << "\"" << spec.name << "\": {\"value\": " << Number(Get(spec.name))
        << ", \"unit\": \"" << spec.unit << "\"}";
    separator = ", ";
  }
  out << "}}";
  return out.str();
}

std::string MetricValues::Summary() const {
  std::ostringstream out;
  for (const MetricSpec& spec : *catalogue_) {
    out << "  " << spec.name << " " << Number(Get(spec.name)) << " " << spec.unit << "\n";
  }
  return out.str();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void Digest::Add(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 0x100000001b3ull;
  }
}

void Digest::Add(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<uint8_t>(c);
    hash_ *= 0x100000001b3ull;
  }
}

std::string Digest::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash_));
  return buf;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
