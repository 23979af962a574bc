// soak — run the deterministic chaos-soak harness from the command line.
//
// Usage:
//   soak [--seed N] [--cycles N] [--epochs N] [--mode strict|deferred]
//        [--no-recovery] [--no-faults] [--no-attacks] [--legacy-path]
//        [--cpus N] [--queues N]
//        [--policy] [--hostile-hotplug] [--posture-out posture.json]
//        [--degraded-drill] [--degraded-floor F]
//        [--no-forensics] [--incident-out incidents.json]
//        [--check-interval N] [--out report.json] [--trace-out trace.csv]
//
// --cpus N > 1 turns on the cross-CPU leg (per-CPU churn, RSS-steered echo
// when --queues > 1, the stale-IOTLB and sibling-quarantine races); the sim
// CPUs run in order on one host thread, so the report stays byte-identical
// for a given seed.
//
// --policy arms the spv::policy trust engine (nic0/nic1/nvme0 allowlisted,
// nic1 the demotion subject); --hostile-hotplug adds the never-authorized
// hot-plug storms whose sub-page probes must die in the bounce pool;
// --posture-out writes the engine's HSI-style posture JSON on its own.
//
// --degraded-drill (needs --policy) demotes the serving NIC and NVMe
// controller a third of the way through the run: both drivers must switch
// to sync'd bounce rings live and keep answering probes. --degraded-floor F
// (0..1, needs --degraded-drill) fails the run if post-demotion
// availability drops below F.
//
// The forensics leg (flight recorder + incident engine) is on by default —
// it is a pure observer, so the report JSON stays byte-identical either way;
// --no-forensics turns it off, --incident-out writes the full incident
// document (tools/incident renders it) and needs forensics enabled.
//
// Unknown flags and out-of-range values exit 2 with a pointer to --help:
// --cpus accepts 1..64 and --queues 1..--cpus.
//
// Exit status: 0 when the run ends with clean invariants and zero leaks,
// 1 otherwise. The JSON report goes to --out (stdout gets a summary either
// way); --trace-out writes the machine's telemetry ring as trace CSV, the
// same format tools/trace timeline consumes.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "soak/soak.h"

namespace {

uint64_t ParseU64(const char* text, const char* flag) {
  char* end = nullptr;
  const uint64_t value = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "soak: bad value for %s: '%s'\n", flag, text);
    std::exit(2);
  }
  return value;
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "soak: cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  out << body;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  spv::soak::SoakConfig config;
  std::string out_path;
  std::string trace_path;
  std::string posture_path;
  std::string incident_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "soak: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      config.seed = ParseU64(next(), "--seed");
    } else if (arg == "--cycles") {
      config.target_cycles = ParseU64(next(), "--cycles");
    } else if (arg == "--epochs") {
      config.max_epochs = ParseU64(next(), "--epochs");
    } else if (arg == "--mode") {
      const std::string mode = next();
      if (mode == "strict") {
        config.deferred = false;
      } else if (mode == "deferred") {
        config.deferred = true;
      } else {
        std::fprintf(stderr, "soak: --mode must be strict or deferred\n");
        return 2;
      }
    } else if (arg == "--no-recovery") {
      config.recovery_enabled = false;
    } else if (arg == "--no-faults") {
      config.faults = false;
    } else if (arg == "--no-attacks") {
      config.attacks = false;
    } else if (arg == "--no-storage") {
      config.storage = false;
    } else if (arg == "--legacy-path") {
      config.fast_path = false;
    } else if (arg == "--cpus") {
      config.num_cpus = static_cast<uint32_t>(ParseU64(next(), "--cpus"));
    } else if (arg == "--queues") {
      config.nic_queues = static_cast<uint32_t>(ParseU64(next(), "--queues"));
    } else if (arg == "--policy") {
      config.policy = true;
    } else if (arg == "--hostile-hotplug") {
      config.hostile_hotplug = true;
    } else if (arg == "--degraded-drill") {
      config.degraded_drill = true;
    } else if (arg == "--degraded-floor") {
      const char* text = next();
      char* end = nullptr;
      config.degraded_floor = std::strtod(text, &end);
      if (end == text || *end != '\0') {
        std::fprintf(stderr, "soak: bad value for --degraded-floor: '%s'\n", text);
        return 2;
      }
    } else if (arg == "--posture-out") {
      posture_path = next();
    } else if (arg == "--no-forensics") {
      config.forensics = false;
    } else if (arg == "--incident-out") {
      incident_path = next();
    } else if (arg == "--check-interval") {
      config.invariant_check_interval =
          static_cast<uint32_t>(ParseU64(next(), "--check-interval"));
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--trace-out") {
      trace_path = next();
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: soak [--seed N] [--cycles N] [--epochs N] [--mode strict|deferred]\n"
          "            [--no-recovery] [--no-faults] [--no-attacks] [--no-storage]\n"
          "            [--legacy-path] [--cpus N] [--queues N]\n"
          "            [--policy] [--hostile-hotplug] [--posture-out posture.json]\n"
          "            [--degraded-drill] [--degraded-floor F]\n"
          "            [--no-forensics] [--incident-out incidents.json]\n"
          "            [--check-interval N] [--out report.json]\n"
          "            [--trace-out trace.csv]\n");
      return 0;
    } else {
      std::fprintf(stderr, "soak: unknown flag '%s' (see --help)\n", arg.c_str());
      return 2;
    }
  }

  // Range validation: a typo'd --cpus 0 or --queues 9 silently degenerating
  // into a different topology is worse than an error. Fail loudly instead.
  constexpr uint32_t kMaxCpus = 64;
  if (config.num_cpus == 0 || config.num_cpus > kMaxCpus) {
    std::fprintf(stderr, "soak: --cpus must be 1..%u (got %u); see --help\n",
                 kMaxCpus, config.num_cpus);
    return 2;
  }
  if (config.nic_queues == 0 || config.nic_queues > config.num_cpus) {
    std::fprintf(stderr,
                 "soak: --queues must be 1..--cpus (%u) (got %u); see --help\n",
                 config.num_cpus, config.nic_queues);
    return 2;
  }
  if (config.hostile_hotplug && !config.policy) {
    std::fprintf(stderr, "soak: --hostile-hotplug needs --policy; see --help\n");
    return 2;
  }
  if (config.degraded_drill && !config.policy) {
    std::fprintf(stderr, "soak: --degraded-drill needs --policy; see --help\n");
    return 2;
  }
  if (config.degraded_floor < 0.0 || config.degraded_floor > 1.0) {
    std::fprintf(stderr,
                 "soak: --degraded-floor must be 0..1 (got %g); see --help\n",
                 config.degraded_floor);
    return 2;
  }
  if (config.degraded_floor > 0.0 && !config.degraded_drill) {
    std::fprintf(stderr,
                 "soak: --degraded-floor needs --degraded-drill; see --help\n");
    return 2;
  }
  if (!posture_path.empty() && !config.policy) {
    std::fprintf(stderr, "soak: --posture-out needs --policy; see --help\n");
    return 2;
  }
  if (!incident_path.empty() && !config.forensics) {
    std::fprintf(stderr,
                 "soak: --incident-out needs forensics (drop --no-forensics); "
                 "see --help\n");
    return 2;
  }

  spv::soak::SetTraceCapture(!trace_path.empty());
  const spv::soak::SoakReport report = spv::soak::RunSoak(config);

  std::printf("soak: seed=%llu mode=%s recovery=%s %llu epochs, %llu sim cycles\n",
              static_cast<unsigned long long>(report.seed),
              config.deferred ? "deferred" : "strict",
              config.recovery_enabled ? "on" : "off",
              static_cast<unsigned long long>(report.epochs),
              static_cast<unsigned long long>(report.sim_cycles));
  std::printf("      availability %.4f (%llu/%llu probes), %llu quarantines, "
              "%llu re-attaches, %llu detaches\n",
              report.availability, static_cast<unsigned long long>(report.echo_ok),
              static_cast<unsigned long long>(report.echo_probes),
              static_cast<unsigned long long>(report.quarantines),
              static_cast<unsigned long long>(report.reattach_attempts),
              static_cast<unsigned long long>(report.permanent_detaches));
  std::printf("      %llu faults injected, %llu fenced accesses, %llu shed packets, "
              "%llu invariant checks\n",
              static_cast<unsigned long long>(report.faults_injected),
              static_cast<unsigned long long>(report.fenced_accesses),
              static_cast<unsigned long long>(report.shed_packets),
              static_cast<unsigned long long>(report.invariant_checks));
  if (config.storage) {
    std::printf("      storage %.4f (%llu/%llu probes), %llu quarantines, "
                "%llu forged CQEs, %llu/%llu replays landed/blocked\n",
                report.nvme.availability,
                static_cast<unsigned long long>(report.nvme.ok),
                static_cast<unsigned long long>(report.nvme.probes),
                static_cast<unsigned long long>(report.nvme.quarantines),
                static_cast<unsigned long long>(report.nvme.forged_completions),
                static_cast<unsigned long long>(report.nvme.replays_landed),
                static_cast<unsigned long long>(report.nvme.replays_blocked));
  }
  if (config.num_cpus > 1) {
    std::printf("      cross-cpu: %llu race probes (%llu stale hits, %llu blocked, "
                "%llu detected), %llu sibling probes (%llu fenced)\n",
                static_cast<unsigned long long>(report.cross_cpu_race_probes),
                static_cast<unsigned long long>(report.cross_cpu_stale_hits),
                static_cast<unsigned long long>(report.cross_cpu_stale_blocked),
                static_cast<unsigned long long>(report.cross_cpu_detected),
                static_cast<unsigned long long>(report.sibling_quarantine_probes),
                static_cast<unsigned long long>(report.sibling_completions_fenced));
  }
  if (config.policy) {
    std::printf("      policy: %llu demotions, %llu/%llu promotions blocked, "
                "%llu bounce maps\n",
                static_cast<unsigned long long>(report.policy.demotions),
                static_cast<unsigned long long>(report.policy.promotions_blocked),
                static_cast<unsigned long long>(report.policy.promotion_attempts),
                static_cast<unsigned long long>(report.policy.bounce_maps));
    if (config.degraded_drill) {
      std::printf("      degraded: %.4f availability (%llu/%llu probes) after the drill\n",
                  report.availability_degraded,
                  static_cast<unsigned long long>(report.degraded_ok),
                  static_cast<unsigned long long>(report.degraded_probes));
    }
    if (config.hostile_hotplug) {
      std::printf("      hostile: %llu plugged, %llu sub-page probes, "
                  "%llu leaks, %llu corruptions\n",
                  static_cast<unsigned long long>(report.policy.hotplug_attaches),
                  static_cast<unsigned long long>(report.policy.subpage_read_probes +
                                                  report.policy.subpage_write_probes),
                  static_cast<unsigned long long>(report.policy.secret_leaks),
                  static_cast<unsigned long long>(report.policy.neighbour_corruptions));
    }
  }
  if (config.forensics) {
    std::printf("      forensics: %llu incidents (%llu suppressed), "
                "%llu flight records (%llu dropped)\n",
                static_cast<unsigned long long>(report.incidents_opened),
                static_cast<unsigned long long>(report.incidents_suppressed),
                static_cast<unsigned long long>(report.flight_records),
                static_cast<unsigned long long>(report.flight_dropped));
  }
  if (report.ok) {
    std::printf("      PASS: invariants clean, no leaked mappings or PTEs\n");
  } else {
    std::printf("      FAIL: %s\n", report.failure.c_str());
  }

  bool io_ok = true;
  if (!out_path.empty()) {
    io_ok = WriteFile(out_path, report.ToJson() + "\n") && io_ok;
  }
  if (!posture_path.empty()) {
    io_ok = WriteFile(posture_path, report.posture_json + "\n") && io_ok;
  }
  if (!incident_path.empty()) {
    io_ok = WriteFile(incident_path, report.incidents_json + "\n") && io_ok;
  }
  if (!trace_path.empty()) {
    io_ok = WriteFile(trace_path, spv::soak::LastTraceCsv()) && io_ok;
  }
  return (report.ok && io_ok) ? 0 : 1;
}
