// Result reporting: the metric catalogue, statistics helpers, the sim digest
// and the one-line JSON result the benchmark ends on.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed with --trace 0, in this order.
extern const std::vector<MetricSpec> kEndToEndMetrics;
// Printed with --trace 1, in this order. A layer idle in a workload, or one a
// workload cannot observe from outside, reports 0 (README.md lists which).
extern const std::vector<MetricSpec> kPerLayerMetrics;

// Values keyed by metric name; Set rejects names outside the catalogue.
class MetricValues {
 public:
  explicit MetricValues(const std::vector<MetricSpec>& catalogue) : catalogue_(&catalogue) {}
  void Set(std::string_view name, double value);
  double Get(std::string_view name) const;
  // {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ResultJson(uint64_t attempted, uint64_t failed) const;
  // One "name value unit" line per metric, for people reading the log.
  std::string Summary() const;

 private:
  const std::vector<MetricSpec>* catalogue_;
  std::map<std::string, double, std::less<>> values_;
};

double Median(std::vector<double> values);

// Nearest-rank quantile, q in [0, 1]: the smallest sample with at least a
// q share of the samples at or below it. Exact, not a histogram bucket bound.
template <typename T>
T Quantile(std::vector<T> values, double q) {
  if (values.empty()) {
    return T{};
  }
  const auto wanted = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  const size_t rank = std::clamp<size_t>(wanted, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Ratio(double num, double den);  // 0 when den is 0

// FNV-1a over everything the simulation outputs.
class Digest {
 public:
  void Add(uint64_t value);
  void Add(std::string_view bytes);
  std::string Hex() const;

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// Peak resident set of this process so far, MiB. Runs read it after a fixed
// amount of work (set-up plus the sim window, or the soak's reference round):
// NvmeController keeps every PRP segment IOVA it walks, so read at the end of
// a timed phase the storage figure would grow with host speed.
double PeakRssMib();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
