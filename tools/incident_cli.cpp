// incident — render spv::forensics incident documents for humans.
//
// Usage:
//   incident <incidents.json> [--id N] [--limit N]
//   incident <incidents.json> --summary
//
// The input is the deterministic JSON document IncidentEngine::ReportsJson()
// produces (soak --incident-out, or a test artifact). The default view walks
// every incident: the trigger line, the inferred attack class, the implicated
// mapping's map→access→unmap→flush lifecycle, the reconstructed flight-
// recorder timeline, the vulnerability windows that overlapped it, and the
// trust/recovery state at freeze time. --id narrows to one incident,
// --limit caps the timeline rows printed per incident (default 24),
// --summary prints only the per-trigger / per-class rollup.
//
// Exit status: 0 on success, 1 on a malformed document, 2 on flag misuse.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "base/json.h"

using namespace spv;

namespace {

using json::Value;

// ---- Rendering -------------------------------------------------------------

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

const char* DirName(uint64_t dir) {
  switch (dir) {
    case 0: return "to_dev";
    case 1: return "from_dev";
    case 2: return "bidir";
    default: return "?";
  }
}

void PrintLife(const Value& life, const char* indent) {
  std::printf("%sgen %llu  %s -> iova %s  len %llu  dir %s%s  site %s\n", indent,
              static_cast<unsigned long long>(life.U64("generation")),
              Hex(life.U64("kva")).c_str(), Hex(life.U64("iova")).c_str(),
              static_cast<unsigned long long>(life.U64("len")),
              DirName(life.U64("dir")), life.Bool("bounced") ? " (bounced)" : "",
              life.Str("site", "?").c_str());
  const uint64_t unmap = life.U64("unmap_cycle");
  const uint64_t flush = life.U64("flush_cycle");
  std::printf("%s  map @%llu  unmap %s  flush %s  |  %llu accesses, %llu stale hits\n",
              indent, static_cast<unsigned long long>(life.U64("map_cycle")),
              unmap == 0 ? "-- (live)" : ("@" + std::to_string(unmap)).c_str(),
              flush == 0 ? "--" : ("@" + std::to_string(flush)).c_str(),
              static_cast<unsigned long long>(life.U64("accesses")),
              static_cast<unsigned long long>(life.U64("stale_hits")));
}

void PrintTimeline(const Value& timeline, uint64_t limit) {
  const size_t total = timeline.array.size();
  const size_t start = total > limit ? total - limit : 0;
  if (start > 0) {
    std::printf("    ... %zu earlier records elided (--limit raises)\n", start);
  }
  for (size_t i = start; i < total; ++i) {
    const Value& r = timeline.array[i];
    const std::string op = r.Str("op", "?");
    std::printf("    @%-10llu cpu%llu  %-12s iova %-14s len %-6llu",
                static_cast<unsigned long long>(r.U64("cycle")),
                static_cast<unsigned long long>(r.U64("cpu")), op.c_str(),
                Hex(r.U64("iova")).c_str(),
                static_cast<unsigned long long>(r.U64("len")));
    if (op == "map" || op == "unmap") {
      std::printf("  %s%s", DirName(r.U64("dir")),
                  r.Bool("bounced") ? " (bounced)" : "");
    }
    const uint64_t gen = r.U64("generation");
    if (gen != 0) {
      std::printf("  gen %llu", static_cast<unsigned long long>(gen));
    } else if (op == "device_read" || op == "device_write") {
      std::printf("  gen --  [NO OWNING MAPPING]");
    }
    std::printf("\n");
  }
}

void PrintWindows(const Value& windows) {
  for (const Value& w : windows.array) {
    std::printf("    %-12s gen %llu  iova page %s  %llu pages  %llu B exposed  "
                "open @%llu  close %s  hits %llu%s%s\n",
                w.Str("kind", "?").c_str(),
                static_cast<unsigned long long>(w.U64("generation")),
                Hex(w.U64("iova_page")).c_str(),
                static_cast<unsigned long long>(w.U64("pages")),
                static_cast<unsigned long long>(w.U64("exposed_bytes")),
                static_cast<unsigned long long>(w.U64("open_cycle")),
                w.Bool("open")
                    ? "-- (still open)"
                    : ("@" + std::to_string(w.U64("close_cycle"))).c_str(),
                static_cast<unsigned long long>(w.U64("device_hits")),
                w.Bool("detected") ? "  DETECTED" : "",
                w.Str("close_reason").empty()
                    ? ""
                    : ("  (" + w.Str("close_reason") + ")").c_str());
  }
}

int PrintSummaryOnly(const Value& doc) {
  std::printf("incidents: %llu frozen, %llu suppressed (cooldown/cap)\n",
              static_cast<unsigned long long>(doc.U64("count")),
              static_cast<unsigned long long>(doc.U64("suppressed")));
  std::map<std::string, uint64_t> by_trigger;
  std::map<std::string, uint64_t> by_class;
  if (const Value* incidents = doc.Find("incidents")) {
    for (const Value& incident : incidents->array) {
      ++by_trigger[incident.Str("trigger", "?")];
      ++by_class[incident.Str("inferred_class", "?")];
    }
  }
  std::printf("by trigger:\n");
  for (const auto& [name, count] : by_trigger) {
    std::printf("  %-24s %llu\n", name.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("by class:\n");
  for (const auto& [name, count] : by_class) {
    std::printf("  %-24s %llu\n", name.c_str(),
                static_cast<unsigned long long>(count));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  uint64_t only_id = 0;
  uint64_t limit = 24;
  bool summary = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "incident: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--id") {
      only_id = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--limit") {
      limit = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: incident <incidents.json> [--id N] [--limit N] [--summary]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "incident: unknown flag '%s' (see --help)\n", arg.c_str());
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "incident: no input file (see --help)\n");
    return 2;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "incident: cannot read '%s'\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  size_t error_offset = 0;
  const std::optional<Value> parsed = json::Parse(text, &error_offset);
  if (!parsed.has_value() || parsed->type != Value::Type::kObject) {
    std::fprintf(stderr, "incident: malformed JSON in '%s' (offset %zu)\n",
                 path.c_str(), error_offset);
    return 1;
  }
  const Value& doc = *parsed;
  if (summary) {
    return PrintSummaryOnly(doc);
  }

  std::printf("incidents: %llu frozen, %llu suppressed\n",
              static_cast<unsigned long long>(doc.U64("count")),
              static_cast<unsigned long long>(doc.U64("suppressed")));
  const Value* incidents = doc.Find("incidents");
  if (incidents == nullptr || incidents->type != Value::Type::kArray) {
    std::fprintf(stderr, "incident: document has no incidents array\n");
    return 1;
  }
  bool matched = false;
  for (const Value& incident : incidents->array) {
    const uint64_t id = incident.U64("id");
    if (only_id != 0 && id != only_id) {
      continue;
    }
    matched = true;
    std::printf("\n== incident #%llu  dev %llu  @cycle %llu\n",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(incident.U64("device")),
                static_cast<unsigned long long>(incident.U64("cycle")));
    std::printf("   trigger: %s (%s)\n", incident.Str("trigger", "?").c_str(),
                incident.Str("reason", "-").c_str());
    std::printf("   inferred class: %s\n",
                incident.Str("inferred_class", "unknown").c_str());
    if (const Value* life = incident.Find("implicated");
        life != nullptr && life->type == Value::Type::kObject) {
      std::printf("   implicated mapping:\n");
      PrintLife(*life, "     ");
    } else {
      std::printf("   implicated mapping: none attributed\n");
    }
    if (const Value* timeline = incident.Find("timeline");
        timeline != nullptr && !timeline->array.empty()) {
      std::printf("   timeline (%zu records):\n", timeline->array.size());
      PrintTimeline(*timeline, limit == 0 ? UINT64_MAX : limit);
    } else {
      std::printf("   timeline: empty (recorder disabled?)\n");
    }
    if (const Value* ledger = incident.Find("ledger");
        ledger != nullptr && !ledger->array.empty()) {
      std::printf("   mapping ledger (%zu lives):\n", ledger->array.size());
      for (const Value& life : ledger->array) {
        PrintLife(life, "     ");
      }
    }
    if (const Value* windows = incident.Find("windows");
        windows != nullptr && !windows->array.empty()) {
      std::printf("   vulnerability windows:\n");
      PrintWindows(*windows);
    }
    if (const Value* trust = incident.Find("trust");
        trust != nullptr && trust->type == Value::Type::kObject) {
      std::printf("   trust: %s", trust->Str("trust", "?").c_str());
      std::printf("  (%llu demotions, %llu promotions)\n",
                  static_cast<unsigned long long>(trust->U64("demotions")),
                  static_cast<unsigned long long>(trust->U64("promotions")));
    }
    if (const Value* recovery = incident.Find("recovery");
        recovery != nullptr && recovery->type == Value::Type::kObject) {
      std::printf("   recovery: %s  (%llu reattach attempts, %llu quarantines)\n",
                  recovery->Str("state", "?").c_str(),
                  static_cast<unsigned long long>(recovery->U64("reattach_attempts")),
                  static_cast<unsigned long long>(recovery->U64("quarantines")));
    }
  }
  if (only_id != 0 && !matched) {
    std::fprintf(stderr, "incident: no incident with id %llu\n",
                 static_cast<unsigned long long>(only_id));
    return 1;
  }
  if (const Value* recorder = doc.Find("recorder");
      recorder != nullptr && recorder->type == Value::Type::kObject) {
    std::printf("\nrecorder accounting (ring %llu, ledger %llu):\n",
                static_cast<unsigned long long>(recorder->U64("ring_capacity")),
                static_cast<unsigned long long>(recorder->U64("ledger_capacity")));
    if (const Value* rings = recorder->Find("rings")) {
      for (const Value& ring : rings->array) {
        std::printf("  dev %llu cpu %llu: %llu recorded, %llu dropped "
                    "(%llu critical)\n",
                    static_cast<unsigned long long>(ring.U64("device")),
                    static_cast<unsigned long long>(ring.U64("cpu")),
                    static_cast<unsigned long long>(ring.U64("recorded")),
                    static_cast<unsigned long long>(ring.U64("dropped")),
                    static_cast<unsigned long long>(ring.U64("dropped_critical")));
      }
    }
    if (const Value* ledgers = recorder->Find("ledgers")) {
      for (const Value& ledger : ledgers->array) {
        std::printf("  dev %llu ledger: %llu lives (%llu retained, %llu dropped)\n",
                    static_cast<unsigned long long>(ledger.U64("device")),
                    static_cast<unsigned long long>(ledger.U64("lives")),
                    static_cast<unsigned long long>(ledger.U64("retained")),
                    static_cast<unsigned long long>(ledger.U64("dropped")));
      }
    }
  }
  return 0;
}
