// soak_chaos: soak::RunSoak at a fixed sim-cycle target with the trust
// policy, hostile hot-plug storms and the degraded drill (floor 0.5) on, on
// top of the soak's defaults (recovery, faults, attacks, storage, forensics;
// telemetry, tracing and the per-epoch invariant audit always run).
//
// An op is one soak epoch. RunSoak keeps its machine inside, so the workload
// works in rounds: one soak per sub-seed derived from the seed. How much a
// chaos epoch costs depends on what the seed throws at it, so a round's
// totals average that out. The reference round fixes the sim metrics and the
// digest; every timed round must reproduce its reports byte for byte.

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "soak/soak.h"
#include "telemetry/telemetry.h"

namespace perfbench {

namespace {

using spv::Status;
using spv::soak::SoakConfig;
using spv::soak::SoakReport;

constexpr uint64_t kTargetCycles = 40'000'000;
constexpr uint64_t kSubSeeds = 4;  // soaks per round
constexpr double kDegradedFloor = 0.5;
// TracerConfig::max_records: past it the in-program tracer drops spans and
// the soak's host cost per epoch roughly halves, so numbers stop comparing.
constexpr uint64_t kTracerCap = uint64_t{1} << 20;
constexpr size_t kMinRounds = 3;
// The lower decile of round rates, as for the slices of the op workloads.
constexpr double kSustainedQuantile = 0.10;

SoakConfig ChaosConfig(uint64_t sub_seed) {
  SoakConfig config;
  config.seed = sub_seed;
  config.target_cycles = kTargetCycles;
  config.policy = true;
  config.hostile_hotplug = true;
  config.degraded_drill = true;
  config.degraded_floor = kDegradedFloor;
  return config;
}

Status Check(const SoakReport& report, const char* what) {
  const auto failed = [&](const std::string& why) {
    return spv::Internal(std::string("soak_chaos: ") + what + " seed " +
                         std::to_string(report.seed) + ": " + why);
  };
  if (!report.ok) {
    return failed(report.failure);
  }
  if (report.policy.secret_leaks != 0 || report.policy.neighbour_corruptions != 0) {
    return failed("hostile probe reached kernel memory");
  }
  if (report.degraded_probes != 0 && report.availability_degraded < kDegradedFloor) {
    return failed("degraded availability below the floor");
  }
  return spv::OkStatus();
}

// Highest span id in the soak's telemetry trace; ids are sequential, so this
// is the number of spans the in-program tracer opened.
uint64_t SpansOpened(const std::string& csv) {
  uint64_t highest = 0;
  for (const spv::telemetry::Event& event : spv::telemetry::ParseTraceCsv(csv)) {
    highest = std::max(highest, event.span);
  }
  return highest;
}

// Counts summed over a round's reports.
struct Totals {
  uint64_t epochs = 0;
  uint64_t sim_cycles = 0;
  uint64_t probes = 0;
  uint64_t answered = 0;
  uint64_t flight_records = 0;
  uint64_t flight_dropped = 0;
  uint64_t incidents_opened = 0;
  uint64_t incidents_suppressed = 0;
  uint64_t bounce_maps = 0;
  uint64_t demotions = 0;
  uint64_t quarantines = 0;  // quarantines + re-attach attempts
  uint64_t faults = 0;
  uint64_t attack_runs = 0;
  uint64_t attack_successes = 0;

  void Add(const SoakReport& r) {
    epochs += r.epochs;
    sim_cycles += r.sim_cycles;
    probes += r.echo_probes + r.nvme.probes;
    answered += r.echo_ok + r.nvme.ok;
    flight_records += r.flight_records;
    flight_dropped += r.flight_dropped;
    incidents_opened += r.incidents_opened;
    incidents_suppressed += r.incidents_suppressed;
    bounce_maps += r.policy.bounce_maps;
    demotions += r.policy.demotions;
    quarantines += r.quarantines + r.reattach_attempts;
    faults += r.faults_injected;
    attack_runs += r.attack_runs;
    attack_successes += r.attack_successes;
  }
  double PerEpoch(uint64_t count, double scale = 1) const {
    return scale * Ratio(static_cast<double>(count), static_cast<double>(epochs));
  }
};

class Rounds {
 public:
  explicit Rounds(uint64_t seed) {
    for (uint64_t i = 0; i < kSubSeeds; ++i) {
      configs_.push_back(ChaosConfig(seed * kSubSeeds + i));
    }
  }

  const std::vector<SoakConfig>& configs() const { return configs_; }

  // The reference round: checked, traced for the tracer-cap guard, kept.
  Status RunReference() {
    spv::soak::SetTraceCapture(true);
    for (const SoakConfig& config : configs_) {
      const SoakReport report = spv::soak::RunSoak(config);
      SPV_RETURN_IF_ERROR(Check(report, "reference soak"));
      if (report.epochs == 0) {
        return spv::Internal("soak_chaos: reference soak ran no epochs");
      }
      spans_opened_ = std::max(spans_opened_, SpansOpened(spv::soak::LastTraceCsv()));
      totals_.Add(report);
      reference_json_.push_back(report.ToJson());
    }
    spv::soak::SetTraceCapture(false);
    if (spans_opened_ >= kTracerCap) {
      return spv::Internal("soak_chaos: the in-program tracer reached its " +
                           std::to_string(kTracerCap) + "-span cap; lower the cycle target");
    }
    return spv::OkStatus();
  }

  // One timed soak of sub-seed `index`, with `variant` applied to its config.
  // Reports of unmodified configs must match the reference byte for byte.
  spv::Result<int64_t> Timed(size_t index, void (*variant)(SoakConfig&), SpanRecorder* spans) {
    SoakConfig config = configs_[index];
    if (variant != nullptr) {
      variant(config);
    }
    const int64_t begin = SpanRecorder::NowNs();
    const SoakReport report = spv::soak::RunSoak(config);
    const int64_t end = SpanRecorder::NowNs();
    if (spans != nullptr) {
      spans->AddClosed(SpanName::kSoakRun, begin, end, report.sim_cycles);
    }
    SPV_RETURN_IF_ERROR(Check(report, "timed soak"));
    if (variant == nullptr && report.ToJson() != reference_json_[index]) {
      return spv::Internal("soak_chaos: rerun of seed " + std::to_string(config.seed) +
                           " differs from the reference report");
    }
    epochs_run_ += report.epochs;
    return end - begin;
  }

  const Totals& totals() const { return totals_; }
  uint64_t spans_opened() const { return spans_opened_; }
  uint64_t epochs_run() const { return epochs_run_; }
  std::string Digest() const {
    perfbench::Digest digest;
    for (const std::string& json : reference_json_) {
      digest.Add(json);
    }
    return digest.Hex();
  }

 private:
  std::vector<SoakConfig> configs_;
  std::vector<std::string> reference_json_;
  Totals totals_;
  uint64_t spans_opened_ = 0;
  uint64_t epochs_run_ = 0;
};

void NoForensics(SoakConfig& config) { config.forensics = false; }
void NoAudit(SoakConfig& config) {
  config.invariant_check_interval = static_cast<uint32_t>(config.max_epochs);
}

}  // namespace

spv::Result<RunOutput> RunSoakChaos(const Options& options) {
  RunOutput out(options.trace);
  MetricValues& m = out.metrics;
  Rounds rounds(options.seed);

  // Set-up: the same soaks capped at zero epochs (bring-up and teardown).
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRuns; ++i) {
    SoakConfig empty = rounds.configs()[static_cast<size_t>(i) % kSubSeeds];
    empty.max_epochs = 0;
    const int64_t begin = SpanRecorder::NowNs();
    const SoakReport report = spv::soak::RunSoak(empty);
    setup_s.push_back(static_cast<double>(SpanRecorder::NowNs() - begin) / 1e9);
    SPV_RETURN_IF_ERROR(Check(report, "set-up soak"));
  }

  SPV_RETURN_IF_ERROR(rounds.RunReference());
  const double reference_rss_mib = PeakRssMib();
  const Totals& totals = rounds.totals();
  out.digest = rounds.Digest();
  const double reference_epochs = static_cast<double>(totals.epochs);
  const int64_t deadline =
      SpanRecorder::NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  char notes[256];

  if (!options.trace) {
    std::vector<double> rates;  // epochs per second, one per round
    while (rates.size() < kMinRounds || SpanRecorder::NowNs() < deadline) {
      int64_t round_ns = 0;
      for (size_t i = 0; i < kSubSeeds; ++i) {
        spv::Result<int64_t> ns = rounds.Timed(i, nullptr, nullptr);
        if (!ns.ok()) {
          return ns.status();
        }
        round_ns += *ns;
      }
      rates.push_back(reference_epochs * 1e9 / static_cast<double>(round_ns));
    }
    // RunSoak reports totals only, so the per-epoch mean stands in for the
    // order statistics.
    const double per_epoch = totals.PerEpoch(totals.sim_cycles);
    m.Set("setup_s", Median(setup_s));
    m.Set("host_ops_per_s", Quantile(rates, kSustainedQuantile));
    m.Set("sim_cycles_per_op_mean", per_epoch);
    m.Set("sim_cycles_per_op_p50", per_epoch);
    m.Set("sim_cycles_per_op_p99", per_epoch);
    m.Set("peak_rss_mib", reference_rss_mib);
    m.Set("ok_op_ratio", Ratio(static_cast<double>(totals.answered),
                               static_cast<double>(totals.probes)));
    out.attempted = rounds.epochs_run();
    std::snprintf(notes, sizeof(notes),
                  "timed phase: %zu rounds of %llu soaks (%llu epochs); sim: the reference "
                  "round (p50/p99 = per-epoch mean); setup runs: %d\n",
                  rates.size(), static_cast<unsigned long long>(kSubSeeds),
                  static_cast<unsigned long long>(totals.epochs), kSetupRuns);
    out.notes = notes;
    return out;
  }

  // Traced run: each round takes one sub-seed through four soaks. Two run the
  // default config, the second inside the benchmark's span, for the tracing
  // overhead; the other two switch off forensics and the per-epoch audit to
  // price them against the first.
  SpanRecorder spans;
  std::vector<double> traced_ratios, forensics_ratios, audit_ratios;
  int64_t traced_ns = 0;
  for (size_t round = 0; round < kMinRounds || SpanRecorder::NowNs() < deadline; ++round) {
    const size_t sub_seed = round % kSubSeeds;
    spv::Result<int64_t> plain = rounds.Timed(sub_seed, nullptr, nullptr);
    spv::Result<int64_t> traced = rounds.Timed(sub_seed, nullptr, &spans);
    spv::Result<int64_t> unrecorded = rounds.Timed(sub_seed, NoForensics, nullptr);
    spv::Result<int64_t> unaudited = rounds.Timed(sub_seed, NoAudit, nullptr);
    for (const spv::Result<int64_t>* ns : {&plain, &traced, &unrecorded, &unaudited}) {
      if (!ns->ok()) {
        return ns->status();
      }
    }
    const double base = static_cast<double>(*plain);
    traced_ratios.push_back(static_cast<double>(*traced) / base);
    forensics_ratios.push_back(static_cast<double>(*unrecorded) / base);
    audit_ratios.push_back(static_cast<double>(*unaudited) / base);
    traced_ns += *traced;
  }
  m.Set("forensics.flight_records_per_epoch", totals.PerEpoch(totals.flight_records));
  m.Set("forensics.flight_drop_ratio", Ratio(static_cast<double>(totals.flight_dropped),
                                             static_cast<double>(totals.flight_records)));
  m.Set("forensics.incident_suppressed_ratio",
        Ratio(static_cast<double>(totals.incidents_suppressed),
              static_cast<double>(totals.incidents_opened + totals.incidents_suppressed)));
  m.Set("forensics.host_share", 1 - Median(forensics_ratios));
  m.Set("core.audit_host_share", 1 - Median(audit_ratios));
  m.Set("trace.spans_opened", static_cast<double>(rounds.spans_opened()));
  m.Set("policy.bounce_maps_per_epoch", totals.PerEpoch(totals.bounce_maps));
  m.Set("policy.demotions", static_cast<double>(totals.demotions));
  m.Set("recovery.quarantines_per_kepoch", totals.PerEpoch(totals.quarantines, 1000));
  m.Set("fault.injected_per_kepoch", totals.PerEpoch(totals.faults, 1000));
  m.Set("attack.runs_per_kepoch", totals.PerEpoch(totals.attack_runs, 1000));
  m.Set("attack.successes_per_kepoch", totals.PerEpoch(totals.attack_successes, 1000));
  m.Set("bench.span_coverage",
        Ratio(static_cast<double>(spans.root_host_ns()), static_cast<double>(traced_ns)));
  m.Set("bench.tracing_overhead", Median(traced_ratios));
  out.attempted = rounds.epochs_run();
  std::snprintf(notes, sizeof(notes),
                "traced phase: %zu rounds of 4 soaks; in-program tracer opened at most %llu "
                "spans per soak\n",
                traced_ratios.size(), static_cast<unsigned long long>(rounds.spans_opened()));
  out.notes = notes;
  if (!options.spans_out.empty()) {
    SPV_RETURN_IF_ERROR(spans.WriteCsv(options.spans_out));
  }
  return out;
}

}  // namespace perfbench
