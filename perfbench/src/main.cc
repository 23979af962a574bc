// spv_perfbench: the repository benchmark (README.md in this directory).
//
// Usage: spv_perfbench --workload storage_strict|net_echo|soak_chaos
//                      --seed N --seconds S --trace 0|1 [--spans-out FILE]
//
// Prints notes, the sim digest, a metric summary and, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// prints the end-to-end metrics, --trace 1 the per-layer ones. Any failed
// output check exits 1 without a result line.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

constexpr uint64_t kStorageWindowOps = 20'000;
constexpr uint64_t kEchoWindowOps = 20'000;

int Usage() {
  std::cerr << "usage: spv_perfbench --workload storage_strict|net_echo|soak_chaos --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\n";
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t& value) {
  char* end = nullptr;
  value = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, number)) {
      options.seed = number;
    } else if (flag == "--seconds" && ParseUnsigned(value, number) && number > 0) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && ParseUnsigned(value, number) && number <= 1) {
      options.trace = number == 1;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0) {
    return Usage();
  }

  spv::Result<perfbench::RunOutput> out = spv::Internal("no workload");
  if (options.workload == "storage_strict") {
    out = perfbench::RunOpWorkload(options, perfbench::MakeStorageStrict, kStorageWindowOps);
  } else if (options.workload == "net_echo") {
    out = perfbench::RunOpWorkload(options, perfbench::MakeNetEcho, kEchoWindowOps);
  } else if (options.workload == "soak_chaos") {
    out = perfbench::RunSoakChaos(options);
  } else {
    return Usage();
  }
  if (!out.ok()) {
    std::cerr << "perfbench: FAILED: " << out.status().message() << "\n";
    return 1;
  }
  std::cout << options.workload << " seed=" << options.seed << " trace=" << options.trace
            << "\n"
            << out->notes << "sim_digest " << out->digest << "\n"
            << out->metrics.Summary() << out->metrics.ResultJson(out->attempted, 0)
            << std::endl;
  return 0;
}
