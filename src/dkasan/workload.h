// The §4.2 evaluation workload: "cloned a large project from a Git repository
// and compiled it concurrently with light network traffic (ICMP ping)".
//
// Simulated as interleaved exec/filesystem/socket allocations (with the
// allocation sites Figure 3 lists) and NIC RX/TX churn. With D-KASAN attached
// to the machine's allocators and DMA API, this reproduces the Figure-3
// findings: kernel metadata randomly co-located with DMA-mapped pages.

#ifndef SPV_DKASAN_WORKLOAD_H_
#define SPV_DKASAN_WORKLOAD_H_

#include <cstdint>

#include "base/status.h"
#include "core/machine.h"
#include "device/malicious_nic.h"
#include "net/nic_driver.h"

namespace spv::dkasan {

struct WorkloadConfig {
  int iterations = 200;
  uint64_t seed = 7;
};

struct WorkloadStats {
  uint64_t allocs = 0;
  uint64_t frees = 0;
  uint64_t rx_packets = 0;
  uint64_t tx_packets = 0;
};

// Runs the build+ping mix on `machine` through `nic`/`device`. The caller
// attaches D-KASAN (or not) before running.
Result<WorkloadStats> RunBuildAndPingWorkload(core::Machine& machine, net::NicDriver& nic,
                                              device::MaliciousNic& device,
                                              const WorkloadConfig& config);

// A router under load: TCP streams arriving on `nic` are GRO-aggregated and
// forwarded back out, interleaved with connection-tracking allocations.
// Requires forwarding_enabled on the machine's network config.
Result<WorkloadStats> RunRouterWorkload(core::Machine& machine, net::NicDriver& nic,
                                        device::MaliciousNic& device,
                                        const WorkloadConfig& config);

// An NVMe-style storage workload: PRP lists and 4 KiB data buffers mapped
// BIDIRECTIONAL for a storage controller, interleaved with filesystem
// metadata allocations (inodes, dentries, journal heads) — the classic
// type (d) random-exposure mix.
Result<WorkloadStats> RunStorageWorkload(core::Machine& machine, DeviceId storage_dev,
                                         const WorkloadConfig& config);

}  // namespace spv::dkasan

#endif  // SPV_DKASAN_WORKLOAD_H_
