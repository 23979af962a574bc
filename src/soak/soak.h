// spv::soak — the deterministic chaos-soak harness.
//
// One seeded run composes every stressor the simulator has — map/unmap
// churn, RX/TX echo traffic, a fault-injection plan, device abuse (wild DMA,
// lost TX completions, watchdog resets) and the paper's compound attacks
// (Poisoned TX, RingFlood) — over millions of simulated cycles, while
// spv::recovery quarantines and re-attaches the offenders. Every epoch ends
// with Machine::CheckInvariants(); the run fails loudly on the first
// violated invariant, leaked mapping or leaked page. The report is a
// deterministic JSON document: same seed + same config = byte-identical
// output, so CI can diff soak results like any other artifact.

#ifndef SPV_SOAK_SOAK_H_
#define SPV_SOAK_SOAK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/clock.h"

namespace spv::soak {

struct SoakConfig {
  uint64_t seed = 42;
  // The run ends at the first epoch boundary past this many simulated cycles.
  uint64_t target_cycles = 1'000'000;
  uint64_t max_epochs = 200'000;  // hard stop against runaway configs
  bool recovery_enabled = true;
  bool deferred = true;     // IOMMU invalidation mode (false = strict)
  bool fast_path = true;    // IOVA rcache + IOMMU walk cache
  bool faults = true;       // arm the fault-injection plan
  bool attacks = true;      // mix Poisoned TX / RingFlood phases in
  // Storage leg: an NvmeDriver over a MaliciousNvme controller, block
  // write/read-verify probes, Poisoned-Completion storms and withheld-
  // transfer replays through whatever stale windows the run leaves open.
  bool storage = true;
  // How often Machine::CheckInvariants() runs (1 = every epoch). The audit
  // walks every mapping, so sparser checks buy longer soaks per wall-second.
  uint32_t invariant_check_interval = 1;

  // ---- Multi-CPU leg -----------------------------------------------------------
  //
  // num_cpus > 1 turns on the cross-CPU scenarios: a per-CPU churn phase
  // through every CPU's IOVA magazines, RSS-steered echo flows across nic0's
  // queues (nic_queues > 1), and the two race probes — a deferred unmap on
  // CPU 0 raced by a stale-IOTLB replay while service sits on CPU 1's queue,
  // and a quarantine racing an in-flight completion on a sibling queue. The
  // CPUs run in order on one host thread: same seed, byte-identical JSON.
  uint32_t num_cpus = 1;
  uint32_t nic_queues = 1;    // nic0 RX/TX queue pairs, one per CPU is typical

  // ---- Trust-policy leg --------------------------------------------------------
  //
  // policy=true arms spv::policy: the resident devices (nic0/nic1/nvme0)
  // enter through a quirks allowlist as kTrusted so their protocols keep
  // zero-copy service, and nic1 — the abused NIC — doubles as the demotion
  // subject: its first quarantine demotes it to bounce-only and every
  // re-promotion drill inside the hysteresis cooldown must be refused.
  //
  // hostile_hotplug=true adds hot-plug storms: every kHotplugInterval epochs
  // (soak.cc) a burst of never-authorized NICs/NVMe controllers attaches,
  // lands on the untrusted rung, and runs the paper's sub-page probes — a
  // page-wide read hunting a slab neighbour's secret (type (d)) and an
  // off-the-end write at a co-located neighbour (type (a)). Both must die in the bounce pool:
  // secret_leaks and neighbour_corruptions stay zero or the run fails.
  bool policy = false;
  bool hostile_hotplug = false;

  // degraded_drill=true demotes the SERVING devices (nic0 and, with storage,
  // nvme0) a third of the way through the run: both drivers must switch to
  // sync'd bounce rings live — commands in flight, no traffic stop — and
  // keep answering probes at reduced speed for the rest of the soak.
  // degraded_floor is the minimum fraction of post-demotion probes that must
  // still succeed (0 disables the assertion); below it the run fails.
  bool degraded_drill = false;
  double degraded_floor = 0.0;

  // ---- Forensics leg -----------------------------------------------------------
  //
  // On by default: the flight recorder is a pure observer (it never advances
  // the sim clock), so recording changes no workload outcome and the JSON
  // stays byte-identical for a given seed. Detector firings during the soak
  // (D-KASAN, SPADE, stale-IOTLB hits, health breaches, quarantines, trust
  // demotions) freeze incident reports; the report JSON embeds the rollup
  // and soak_cli --incident-out dumps the full document.
  bool forensics = true;
};

struct SoakReport {
  bool ok = false;
  std::string failure;  // first invariant violation / leak, empty when ok

  uint64_t seed = 0;
  uint64_t epochs = 0;
  uint64_t sim_cycles = 0;

  // Workload volume.
  uint64_t echo_probes = 0;
  uint64_t echo_ok = 0;
  uint64_t churn_map_ops = 0;
  uint64_t churn_map_failures = 0;  // quarantine refusals + injected faults
  uint64_t abuse_ops = 0;
  uint64_t attack_runs = 0;
  uint64_t attack_successes = 0;
  uint64_t faults_injected = 0;

  // Recovery outcomes.
  uint64_t quarantines = 0;
  uint64_t reattach_attempts = 0;
  uint64_t permanent_detaches = 0;
  uint64_t fenced_accesses = 0;
  uint64_t shed_packets = 0;
  uint64_t invariant_checks = 0;
  // Fraction of echo probes answered: the availability the service kept
  // while its NIC was being quarantined and restored.
  double availability = 0.0;
  // Degraded-phase service (degraded_drill): probes issued after the drill
  // demoted the serving devices, and the fraction answered on sync'd bounce
  // rings. availability_degraded is 1.0 when no degraded phase ran, so the
  // field is present (and byte-identical) in every report.
  uint64_t degraded_probes = 0;
  uint64_t degraded_ok = 0;
  double availability_degraded = 1.0;
  // Quarantine latency (cycles from trigger to fully-revoked) and downtime
  // (cycles from quarantine to re-attach), log2-bucket p50/p99 upper bounds.
  uint64_t quarantine_latency_p50 = 0;
  uint64_t quarantine_latency_p99 = 0;
  uint64_t downtime_p50 = 0;
  uint64_t downtime_p99 = 0;

  // Leak audit at teardown.
  uint64_t leaked_mappings = 0;
  uint64_t leaked_iova_entries = 0;

  // ---- Per-device-class breakdown (nic vs nvme) --------------------------------
  //
  // The top-level availability/quarantine numbers aggregate the whole run;
  // these split the same accounting by device class so a regression on one
  // side cannot hide behind the other in CI diffs.

  struct NicBreakdown {
    uint64_t probes = 0;        // echo round trips attempted
    uint64_t ok = 0;            // echoes that came back
    double availability = 0.0;
    uint64_t quarantines = 0;   // healthy -> quarantined transitions observed
    uint64_t shed_packets = 0;  // TX shed while the egress NIC was fenced
  };

  struct NvmeBreakdown {
    uint64_t probes = 0;        // write + read-back block IO round trips
    uint64_t ok = 0;            // round trips where both commands completed
    double availability = 0.0;
    uint64_t quarantines = 0;   // healthy -> quarantined transitions observed
    uint64_t shed_ios = 0;      // block commands refused or failed cleanly
    uint64_t reads_completed = 0;
    uint64_t writes_completed = 0;
    uint64_t io_errors = 0;           // commands completed with bad status
    uint64_t completion_errors = 0;   // CQEs the driver rejected as implausible
    uint64_t queue_resets = 0;        // watchdog flush + re-create cycles
    uint64_t forged_completions = 0;  // CQEs the hostile firmware invented
    uint64_t replays_landed = 0;      // withheld data phases that hit memory
    uint64_t replays_blocked = 0;     // ... that the IOMMU fenced off
    uint64_t verify_mismatches = 0;   // read-back data != written pattern
  };

  NicBreakdown nic;
  NvmeBreakdown nvme;

  // ---- Cross-CPU leg (num_cpus > 1) --------------------------------------------

  // Stale-IOTLB race: deferred unmap on CPU 0, device replay while service
  // runs CPU 1's queue. `hits` landed through the stale entry (the Fig 6
  // breach), `blocked` were fenced/faulted, `detected` were flagged by the
  // IOMMU's stale-access accounting the moment they landed.
  uint64_t cross_cpu_race_probes = 0;
  uint64_t cross_cpu_stale_hits = 0;
  uint64_t cross_cpu_stale_blocked = 0;
  uint64_t cross_cpu_detected = 0;
  // Quarantine racing an in-flight completion on a sibling queue: the
  // completion must lose cleanly (fenced/empty-slot), never land or leak.
  uint64_t sibling_quarantine_probes = 0;
  uint64_t sibling_completions_fenced = 0;

  struct CpuBreakdown {
    uint64_t cpu = 0;
    uint64_t churn_ops = 0;       // per-CPU churn phase map/unmap pairs
    uint64_t churn_failures = 0;  // injected faults + allocator refusals
    uint64_t rx_packets = 0;      // packets completed on this CPU's nic0 queues
  };
  std::vector<CpuBreakdown> cpus;  // one entry per sim CPU when num_cpus > 1

  // ---- Trust-policy leg (policy=true) ------------------------------------------

  struct PolicyBreakdown {
    uint64_t hotplug_attaches = 0;       // hostile devices plugged in
    uint64_t hotplug_detaches = 0;       // ... and cleanly unplugged again
    uint64_t subpage_read_probes = 0;    // type (d): page-wide exfil reads
    uint64_t subpage_write_probes = 0;   // type (a): off-the-end writes
    uint64_t secret_leaks = 0;           // sentinel seen by a device (must be 0)
    uint64_t neighbour_corruptions = 0;  // neighbour bytes changed (must be 0)
    uint64_t bounce_rx_ok = 0;           // legit in-bounds writes delivered
    uint64_t bounce_maps = 0;            // transfers diverted through the pool
    uint64_t bounce_unmaps = 0;
    uint64_t demotions = 0;              // trust drops applied by Poll()
    uint64_t promotion_attempts = 0;     // re-promotion drills on demoted nic1
    uint64_t promotions_blocked = 0;     // ... refused by the cooldown
    uint64_t hostile_still_untrusted = 0;  // hostiles on kUntrusted at unplug
  };
  PolicyBreakdown policy;
  // PolicyEngine::PostureJson() at teardown — the HSI-style machine posture.
  // Empty when the policy leg is off. Deterministic like the rest.
  std::string posture_json;

  // ---- Forensics leg (forensics=true) ------------------------------------------

  uint64_t incidents_opened = 0;      // reports frozen during the run
  uint64_t incidents_suppressed = 0;  // triggers dropped by cooldown / cap
  uint64_t flight_records = 0;        // FlightRecords accepted across rings
  uint64_t flight_dropped = 0;        // ... overwritten before any snapshot
  // IncidentEngine::SummaryJson() at teardown (per-trigger / per-class
  // rollup); empty when the forensics leg is off.
  std::string incident_summary_json;
  // IncidentEngine::ReportsJson() at teardown — the full incident document
  // soak_cli --incident-out writes. Empty when the forensics leg is off.
  std::string incidents_json;

  // Deterministic: fixed field order, written by json::Writer.
  std::string ToJson() const;
};

// Runs the full soak. The Machine lives and dies inside.
SoakReport RunSoak(const SoakConfig& config);

// The machine-wide telemetry trace of the last RunSoak call, as Hub trace
// CSV (tools/trace_cli timeline format). Captured only when `capture` was
// set before the run.
void SetTraceCapture(bool capture);
const std::string& LastTraceCsv();

}  // namespace spv::soak

#endif  // SPV_SOAK_SOAK_H_
