// spade — standalone CLI for the static analyzer (the [46] release).
//
// Usage:
//   spade [--dir <corpus-dir>] [--trace] [--summary] [--fail-on-findings]
//
//   --dir DIR            scan all .c files under DIR (default: repo corpus)
//   --trace              print the Figure-2 style backtrace for every finding
//   --summary            print the Table-2 summary (default when no flag)
//   --json               emit findings as a JSON array (machine-readable)
//   --fail-on-findings   exit 2 when any callback exposure is found (CI gate)

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "base/json.h"
#include "spade/analyzer.h"
#include "spade/corpus.h"

using namespace spv;

namespace {

void PrintJson(const std::vector<spade::SiteFinding>& findings) {
  json::Writer w;
  w.BeginArray();
  for (const spade::SiteFinding& f : findings) {
    w.BeginObject().Key("file").String(f.file).Key("line").Int(f.line);
    w.Key("function").String(f.function).Key("callee").String(f.callee);
    w.Key("exposed_struct").String(f.exposed_struct);
    w.Key("callbacks_exposed").Bool(f.callbacks_exposed);
    w.Key("direct_callbacks").Uint(f.direct_callbacks);
    w.Key("spoofable_callbacks").Uint(f.spoofable_callbacks);
    w.Key("shared_info_mapped").Bool(f.shared_info_mapped).Key("type_c").Bool(f.type_c);
    w.Key("private_data").Bool(f.private_data).Key("stack_mapped").Bool(f.stack_mapped);
    w.Key("unresolved").Bool(f.unresolved);
    w.Key("possible_false_positive").Bool(f.possible_false_positive).EndObject();
  }
  std::printf("%s\n", w.EndArray().Take().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = spade::DefaultCorpusDir();
  bool trace = false;
  bool summary = false;
  bool json = false;
  bool fail_on_findings = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--fail-on-findings") {
      fail_on_findings = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: spade [--dir DIR] [--trace] [--summary] [--json] [--fail-on-findings]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return 1;
    }
  }
  if (!trace && !summary && !json) {
    summary = true;
  }

  spade::SpadeAnalyzer analyzer;
  auto stats = spade::LoadCorpusDirectory(analyzer, dir);
  if (!stats.ok()) {
    std::fprintf(stderr, "error: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  if (stats->files_failed > 0) {
    std::fprintf(stderr, "warning: %zu files could not be parsed (complex constructs)\n",
                 stats->files_failed);
    for (const std::string& failure : stats->failures) {
      std::fprintf(stderr, "  %s\n", failure.c_str());
    }
  }

  auto findings = analyzer.Analyze();
  if (!findings.ok()) {
    std::fprintf(stderr, "analysis error: %s\n", findings.status().ToString().c_str());
    return 1;
  }

  uint64_t exposures = 0;
  for (const spade::SiteFinding& finding : *findings) {
    if (finding.callbacks_exposed || finding.stack_mapped || finding.private_data) {
      ++exposures;
    }
    if (!trace) {
      continue;
    }
    std::printf("--- %s:%d  %s() -> %s ---\n", finding.file.c_str(), finding.line,
                finding.function.c_str(), finding.callee.c_str());
    int n = 1;
    for (const std::string& line : finding.trace) {
      std::printf("[%d] %s\n", n++, line.c_str());
    }
    std::printf("\n");
  }

  if (json) {
    PrintJson(*findings);
  }
  if (summary) {
    std::printf("%s", analyzer.Summarize(*findings).ToString().c_str());
  }
  if (fail_on_findings && exposures > 0) {
    std::fprintf(stderr, "spade: %llu exposing call sites found\n",
                 static_cast<unsigned long long>(exposures));
    return 2;
  }
  return 0;
}
