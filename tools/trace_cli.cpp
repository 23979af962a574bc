// trace — replays a telemetry trace export as a timeline, a Perfetto-loadable
// Chrome trace, or collapsed flamegraph stacks.
//
// Input is the CSV produced by telemetry::Hub::ExportTraceCsv() (one row per
// trace-ring event: seq,cycle,kind,severity,device,addr,addr2,len,aux,flag,
// span,site). Parsing is shared with the library (telemetry::ParseTraceCsv)
// so the CLI and any other consumer agree on the format.
//
// Usage:
//   trace <trace.csv> [--format timeline|chrome|flame] [--span ID]
//                     [--min-severity trace|info|warn|critical] [--limit N]
//                     [--filter origin=<name>] [--list-origins]
//   trace --demo      runs a small map/stale-access/flush workload on a
//                     simulated machine and replays its trace (dogfooding the
//                     same CSV path an external consumer would use).
//
// --format chrome  emits Chrome trace-event JSON (load in Perfetto; timebase
//                  is sim cycles, see src/trace/profile.h).
// --format flame   emits collapsed stacks ("a;b;c <self-cycles>") for
//                  flamegraph.pl-style renderers.
// --span ID        restricts any format to the subtree rooted at span ID:
//                  the timeline keeps events stamped with a span in the
//                  subtree, chrome/flame keep only those spans.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/machine.h"
#include "policy/policy.h"
#include "telemetry/telemetry.h"
#include "trace/profile.h"
#include "trace/tracer.h"

using namespace spv;

namespace {

const char* SeverityMarker(telemetry::Severity severity) {
  switch (severity) {
    case telemetry::Severity::kTrace:
      return " ";
    case telemetry::Severity::kInfo:
      return "·";
    case telemetry::Severity::kWarn:
      return "!";
    case telemetry::Severity::kCritical:
      return "**";
  }
  return "?";
}

// The trust rung a policy event's aux column names (spv::policy::TrustState).
std::string TrustRungName(uint64_t aux) {
  if (aux > static_cast<uint64_t>(policy::TrustState::kTrusted)) {
    return "?";
  }
  return std::string(policy::TrustStateName(static_cast<policy::TrustState>(aux)));
}

// Kind-aware one-line rendering of the payload columns.
std::string DescribeEvent(const telemetry::Event& event) {
  std::ostringstream out;
  char hex[32];
  auto fmt_hex = [&](uint64_t v) {
    std::snprintf(hex, sizeof(hex), "0x%llx", static_cast<unsigned long long>(v));
    return std::string(hex);
  };
  switch (event.kind) {
    case telemetry::EventKind::kDmaMap:
    case telemetry::EventKind::kDmaUnmap:
    case telemetry::EventKind::kDmaSync:
      out << "dev " << event.device << "  kva " << fmt_hex(event.addr) << " <-> iova "
          << fmt_hex(event.addr2) << "  len " << event.len;
      break;
    case telemetry::EventKind::kCpuAccess:
      out << (event.flag ? "write " : "read ") << event.len << " @ kva "
          << fmt_hex(event.addr);
      break;
    case telemetry::EventKind::kIotlbInvalidate: {
      // One strict unmap or one drained range: len spans every page
      // invalidated, aux what they cost.
      const uint64_t pages = (event.len + kPageSize - 1) >> kPageShift;
      out << "dev " << event.device << "  iova " << fmt_hex(event.addr2) << "  " << pages
          << (pages == 1 ? " page" : " pages") << "  (" << event.aux << " cycles)";
      break;
    }
    case telemetry::EventKind::kIommuFlush:
      out << "retired " << event.aux << " queued unmaps";
      break;
    case telemetry::EventKind::kIommuFault:
      out << "dev " << event.device << "  iova " << fmt_hex(event.addr2)
          << (event.flag ? "  (write)" : "  (read)");
      break;
    case telemetry::EventKind::kStaleIotlbHit:
      out << "dev " << event.device << "  iova " << fmt_hex(event.addr2)
          << (event.flag ? "  WRITE through dead PTE" : "  READ through dead PTE");
      break;
    case telemetry::EventKind::kSlabAlloc:
    case telemetry::EventKind::kSlabFree:
    case telemetry::EventKind::kFragAlloc:
    case telemetry::EventKind::kFragFree:
      out << "kva " << fmt_hex(event.addr) << "  size " << event.len;
      break;
    case telemetry::EventKind::kNicRx:
    case telemetry::EventKind::kNicTx:
    case telemetry::EventKind::kXdpDrop:
    case telemetry::EventKind::kXdpTx:
      out << "dev " << event.device << "  pkt " << event.len << "B";
      break;
    case telemetry::EventKind::kNicTxReset:
      out << "dev " << event.device << "  " << event.len << " slots timed out";
      break;
    case telemetry::EventKind::kNicRxError:
      out << "dev " << event.device << "  pkt " << event.len << "B dropped";
      break;
    case telemetry::EventKind::kFaultInjected:
      out << "site #" << event.aux << "  magnitude " << event.len;
      break;
    case telemetry::EventKind::kFaultRecovered:
      out << "dev " << event.device << "  recovered " << event.len;
      break;
    case telemetry::EventKind::kStackDeliver:
    case telemetry::EventKind::kStackForward:
    case telemetry::EventKind::kStackDrop:
    case telemetry::EventKind::kStackSend:
    case telemetry::EventKind::kStackEcho:
      out << event.len << "B";
      break;
    case telemetry::EventKind::kSpanOpen:
      out << "span #" << event.span;
      if (event.addr != 0) {
        out << " (parent #" << event.addr << ")";
      }
      if (event.flag) {
        out << " detached";
      }
      break;
    case telemetry::EventKind::kSpanClose:
      out << "span #" << event.span << "  " << event.aux << " cycles";
      break;
    case telemetry::EventKind::kWindowOpen:
      out << "dev " << event.device << "  iova page " << fmt_hex(event.addr2)
          << "  exposed " << event.aux << "B";
      break;
    case telemetry::EventKind::kWindowClose:
      out << "dev " << event.device << "  iova page " << fmt_hex(event.addr2)
          << "  open " << event.aux << " cycles" << (event.flag ? "  DETECTED" : "");
      break;
    case telemetry::EventKind::kAttackStage:
    case telemetry::EventKind::kDkasanReport:
    case telemetry::EventKind::kSpadeFinding:
      // The site column carries the whole story for these.
      break;
    case telemetry::EventKind::kHealthBreach:
      out << "dev " << event.device << "  score " << event.aux;
      break;
    case telemetry::EventKind::kDeviceQuarantined:
    case telemetry::EventKind::kDeviceDetached:
    case telemetry::EventKind::kDeviceFencedAccess:
      out << "dev " << event.device;
      break;
    case telemetry::EventKind::kDeviceReattached:
      out << "dev " << event.device << "  attempt " << event.aux;
      break;
    case telemetry::EventKind::kNicPollDeadline:
    case telemetry::EventKind::kNvmePollDeadline:
      out << "dev " << event.device << "  budget " << event.aux << " cycles";
      break;
    case telemetry::EventKind::kNvmeSubmit:
    case telemetry::EventKind::kNvmeComplete:
    case telemetry::EventKind::kNvmeCompletionError:
      out << "dev " << event.device << "  cid " << event.aux << "  " << event.len
          << "B";
      break;
    case telemetry::EventKind::kNvmeQueueReset:
      out << "dev " << event.device << "  qid " << event.aux;
      break;
    case telemetry::EventKind::kTrustPromoted:
      // flag=1 is a promotion *refused* by the hysteresis cooldown; aux is
      // the trust rung the device would have reached.
      out << "dev " << event.device
          << (event.flag ? "  REFUSED (cooldown), wanted " : "  now ")
          << TrustRungName(event.aux);
      break;
    case telemetry::EventKind::kTrustDemoted:
      out << "dev " << event.device << "  now " << TrustRungName(event.aux)
          << " (bounce-only)";
      break;
    case telemetry::EventKind::kBounceMap:
      out << "dev " << event.device << "  kva " << fmt_hex(event.addr)
          << " -> bounce iova " << fmt_hex(event.addr2) << "  len " << event.len
          << "  copy " << event.aux << " cyc";
      break;
    case telemetry::EventKind::kBounceUnmap:
      out << "dev " << event.device << "  bounce iova " << fmt_hex(event.addr2)
          << " -> kva " << fmt_hex(event.addr) << "  len " << event.len
          << "  copy " << event.aux << " cyc";
      break;
    case telemetry::EventKind::kIncidentOpen:
      // site carries the trigger kind; flag=1 means operator-initiated.
      out << "dev " << event.device << "  incident #" << event.aux
          << (event.flag ? "  (manual)" : "");
      break;
    case telemetry::EventKind::kIncidentReport:
      // site carries the inferred attack-class name.
      out << "dev " << event.device << "  incident #" << event.aux << " classified";
      break;
    case telemetry::EventKind::kBounceSyncCpu:
      out << "dev " << event.device << "  bounce iova " << fmt_hex(event.addr2)
          << " -> kva " << fmt_hex(event.addr) << "  len " << event.len
          << "  copy " << event.aux << " cyc";
      break;
    case telemetry::EventKind::kBounceSyncDevice:
      out << "dev " << event.device << "  kva " << fmt_hex(event.addr)
          << " -> bounce iova " << fmt_hex(event.addr2) << "  len " << event.len
          << "  copy " << event.aux << " cyc";
      break;
  }
  return out.str();
}

// The origin an event belongs to: which subsystem's story it tells. This is
// the vocabulary behind `--filter origin=<name>` and `--list-origins`.
const char* EventOrigin(const telemetry::Event& event) {
  switch (event.kind) {
    case telemetry::EventKind::kDmaMap:
    case telemetry::EventKind::kDmaUnmap:
    case telemetry::EventKind::kDmaSync:
    case telemetry::EventKind::kCpuAccess:
      return "dma";
    case telemetry::EventKind::kIotlbInvalidate:
    case telemetry::EventKind::kIommuFlush:
    case telemetry::EventKind::kIommuFault:
    case telemetry::EventKind::kStaleIotlbHit:
      return "iommu";
    case telemetry::EventKind::kSlabAlloc:
    case telemetry::EventKind::kSlabFree:
    case telemetry::EventKind::kFragAlloc:
    case telemetry::EventKind::kFragFree:
      return "alloc";
    case telemetry::EventKind::kNicRx:
    case telemetry::EventKind::kNicTx:
    case telemetry::EventKind::kNicTxReset:
    case telemetry::EventKind::kXdpDrop:
    case telemetry::EventKind::kXdpTx:
    case telemetry::EventKind::kNicRxError:
    case telemetry::EventKind::kNicPollDeadline:
      return "nic";
    case telemetry::EventKind::kStackDeliver:
    case telemetry::EventKind::kStackForward:
    case telemetry::EventKind::kStackDrop:
    case telemetry::EventKind::kStackSend:
    case telemetry::EventKind::kStackEcho:
      return "stack";
    case telemetry::EventKind::kAttackStage:
      return "attack";
    case telemetry::EventKind::kDkasanReport:
      return "dkasan";
    case telemetry::EventKind::kSpadeFinding:
      return "spade";
    case telemetry::EventKind::kFaultInjected:
    case telemetry::EventKind::kFaultRecovered:
      return "fault";
    case telemetry::EventKind::kSpanOpen:
    case telemetry::EventKind::kSpanClose:
      return "span";
    case telemetry::EventKind::kWindowOpen:
    case telemetry::EventKind::kWindowClose:
      return "window";
    case telemetry::EventKind::kHealthBreach:
    case telemetry::EventKind::kDeviceQuarantined:
    case telemetry::EventKind::kDeviceReattached:
    case telemetry::EventKind::kDeviceDetached:
    case telemetry::EventKind::kDeviceFencedAccess:
      return "recovery";
    case telemetry::EventKind::kNvmeSubmit:
    case telemetry::EventKind::kNvmeComplete:
    case telemetry::EventKind::kNvmeCompletionError:
    case telemetry::EventKind::kNvmeQueueReset:
    case telemetry::EventKind::kNvmePollDeadline:
      return "nvme";
    case telemetry::EventKind::kTrustPromoted:
    case telemetry::EventKind::kTrustDemoted:
    case telemetry::EventKind::kBounceMap:
    case telemetry::EventKind::kBounceUnmap:
    case telemetry::EventKind::kBounceSyncCpu:
    case telemetry::EventKind::kBounceSyncDevice:
      return "policy";
    case telemetry::EventKind::kIncidentOpen:
    case telemetry::EventKind::kIncidentReport:
      return "forensics";
  }
  return "unknown";
}

// --filter origin=<name>: keep only rows from that subsystem's story.
// `origin=fault` keeps its historical wide net — the engine's own events plus
// recovery/drop accounting published on its behalf (kNicRxError, fault:*
// sites) — so existing invocations keep seeing the full injection story.
bool MatchesOrigin(const telemetry::Event& event, const std::string& origin) {
  if (origin == "fault") {
    return event.kind == telemetry::EventKind::kFaultInjected ||
           event.kind == telemetry::EventKind::kFaultRecovered ||
           event.kind == telemetry::EventKind::kNicRxError ||
           event.site.rfind("fault:", 0) == 0;
  }
  return origin == EventOrigin(event);
}

struct Options {
  std::string format = "timeline";
  telemetry::Severity min_severity = telemetry::Severity::kTrace;
  size_t limit = SIZE_MAX;
  std::string origin;  // empty = no origin filter
  bool list_origins = false;
  uint64_t span_root = 0;  // 0 = no subtree filter
};

// --list-origins: enumerate the origins present in the capture with event
// counts, so `--filter origin=...` is discoverable without reading the code.
int ListOrigins(const std::vector<telemetry::Event>& events) {
  std::map<std::string, size_t> counts;
  for (const telemetry::Event& event : events) {
    ++counts[EventOrigin(event)];
  }
  for (const auto& [origin, count] : counts) {
    std::printf("%-10s %zu events\n", origin.c_str(), count);
  }
  std::printf("\n%zu events total; replay one story with --filter origin=<name>\n",
              events.size());
  return 0;
}

int Timeline(const std::vector<telemetry::Event>& events, const Options& opts,
             const std::unordered_set<uint64_t>& mask) {
  size_t shown = 0;
  size_t skipped = 0;
  uint64_t prev_cycle = 0;
  bool have_prev = false;
  for (const telemetry::Event& event : events) {
    if (shown >= opts.limit) {
      break;
    }
    if (event.severity < opts.min_severity ||
        (!opts.origin.empty() && !MatchesOrigin(event, opts.origin)) ||
        (!mask.empty() && mask.count(event.span) == 0)) {
      ++skipped;
      continue;
    }
    const uint64_t delta = have_prev ? event.cycle - prev_cycle : 0;
    prev_cycle = event.cycle;
    have_prev = true;
    const std::string detail = DescribeEvent(event);
    std::printf("%10llu cyc (+%-8llu) %-2s %-16s %s%s%s%s\n",
                static_cast<unsigned long long>(event.cycle),
                static_cast<unsigned long long>(delta), SeverityMarker(event.severity),
                std::string(telemetry::EventKindName(event.kind)).c_str(), detail.c_str(),
                event.site.empty() ? "" : (detail.empty() ? "" : "  "),
                event.site.empty() ? "" : "[",
                event.site.empty() ? "" : (event.site + "]").c_str());
    ++shown;
  }
  std::printf("\n%zu events shown", shown);
  if (skipped > 0) {
    std::printf(", %zu filtered out", skipped);
  }
  std::printf("\n");
  return 0;
}

int Render(const std::string& csv, const Options& opts) {
  if (csv.empty()) {
    std::fprintf(stderr, "empty trace\n");
    return 1;
  }
  if (csv.rfind("seq,", 0) != 0) {
    std::fprintf(stderr, "not a trace CSV (missing header)\n");
    return 1;
  }
  const std::vector<telemetry::Event> events = telemetry::ParseTraceCsv(csv);
  if (opts.list_origins) {
    return ListOrigins(events);
  }

  std::unordered_set<uint64_t> mask;
  trace::SpanForest forest;
  const bool needs_forest = opts.span_root != 0 || opts.format != "timeline";
  if (needs_forest) {
    forest = trace::BuildSpanForest(events);
  }
  if (opts.span_root != 0) {
    mask = trace::SubtreeMask(forest, trace::SpanId{opts.span_root});
    if (mask.empty()) {
      std::fprintf(stderr, "span %llu not found in trace\n",
                   static_cast<unsigned long long>(opts.span_root));
      return 1;
    }
  }

  if (opts.format == "timeline") {
    return Timeline(events, opts, mask);
  }
  if (opts.format == "chrome") {
    const std::vector<trace::Instant> instants =
        trace::CollectInstants(events, telemetry::Severity::kWarn);
    std::printf("%s\n", trace::ChromeTraceJson(forest, instants, mask).c_str());
    return 0;
  }
  if (opts.format == "flame") {
    const std::string stacks = trace::CollapsedStacks(forest, mask);
    if (stacks.empty()) {
      std::fprintf(stderr, "no spans in trace (was tracing enabled?)\n");
      return 1;
    }
    std::fputs(stacks.c_str(), stdout);
    return 0;
  }
  std::fprintf(stderr, "unknown format: %s (supported: timeline, chrome, flame)\n",
               opts.format.c_str());
  return 1;
}

// --demo: a small deferred-mode workload whose trace shows the Figure-6
// window end to end: map, device DMA, unmap (deferred), stale device write
// through the warm IOTLB entry, then the periodic flush. Tracing is on, so
// the same run demonstrates spans and vulnerability windows.
std::string DemoTraceCsv() {
  core::MachineConfig config;
  config.seed = 42;
  config.phys_pages = 4096;
  config.telemetry.enabled = true;
  config.trace.enabled = true;
  core::Machine machine{config};
  const DeviceId dev{1};
  machine.iommu().AttachDevice(dev);

  Kva buf = *machine.slab().Kmalloc(2048, "demo_io_buf");
  std::vector<uint8_t> payload(64, 0xab);
  auto iova = machine.dma().MapSingle(dev, buf, 2048, dma::DmaDirection::kFromDevice,
                                      "demo_map_rx");
  (void)machine.iommu().DeviceWrite(dev, *iova, payload);  // warms the IOTLB
  (void)machine.dma().UnmapSingle(dev, *iova, 2048, dma::DmaDirection::kFromDevice);
  // Deferred mode: the stale entry still translates until the flush.
  (void)machine.iommu().DeviceWrite(dev, *iova, payload);
  machine.clock().AdvanceUs(10001);
  machine.iommu().ProcessDeferredTimer();
  (void)machine.slab().Kfree(buf);
  return machine.telemetry().ExportTraceCsv();
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool demo = false;
  Options opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--format" && i + 1 < argc) {
      opts.format = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      opts.format = arg.substr(9);
    } else if (arg == "--span" && i + 1 < argc) {
      opts.span_root = std::strtoull(argv[++i], nullptr, 10);
      if (opts.span_root == 0) {
        std::fprintf(stderr, "--span wants a nonzero span id\n");
        return 1;
      }
    } else if (arg == "--filter" && i + 1 < argc) {
      const std::string filter = argv[++i];
      if (filter.rfind("origin=", 0) != 0 || filter.size() == 7) {
        std::fprintf(stderr,
                     "unknown filter: %s (syntax: origin=<name>; see --list-origins)\n",
                     filter.c_str());
        return 1;
      }
      opts.origin = filter.substr(7);
    } else if (arg == "--list-origins") {
      opts.list_origins = true;
    } else if (arg == "--min-severity" && i + 1 < argc) {
      auto severity = telemetry::SeverityFromName(argv[++i]);
      if (!severity.has_value()) {
        std::fprintf(stderr, "unknown severity: %s\n", argv[i]);
        return 1;
      }
      opts.min_severity = *severity;
    } else if (arg == "--limit" && i + 1 < argc) {
      opts.limit = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: trace <trace.csv> [--format timeline|chrome|flame] [--span ID]\n"
          "             [--min-severity trace|info|warn|critical] [--limit N]\n"
          "             [--filter origin=<name>] [--list-origins]\n"
          "       trace --demo [--format ...]\n"
          "\n"
          "filter syntax:\n"
          "  --filter origin=<name>  keep only events from one subsystem's story.\n"
          "                          Origins: dma, iommu, alloc, nic, nvme, stack,\n"
          "                          fault, recovery, policy, forensics, span, window,\n"
          "                          attack, dkasan, spade. origin=fault additionally keeps the\n"
          "                          recovery/drop accounting published on the\n"
          "                          engine's behalf (kNicRxError, fault:* sites).\n"
          "  --list-origins          enumerate the origins present in the capture\n"
          "                          (with event counts) instead of rendering it.\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return 1;
    } else {
      path = arg;
    }
  }

  std::string csv;
  if (demo) {
    csv = DemoTraceCsv();
  } else if (path.empty()) {
    std::fprintf(stderr, "no trace file given (try --demo or --help)\n");
    return 1;
  } else {
    std::ifstream in{path};
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    csv = buffer.str();
  }
  return Render(csv, opts);
}
