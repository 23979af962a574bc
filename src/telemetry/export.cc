// Deterministic exporters for the telemetry Hub.
//
// Determinism contract: registry maps iterate in sorted name order, events in
// seq order, every number is an integer, JSON goes through json::Writer, and
// nothing derived from wall-clock time or pointers is emitted. Two identical
// simulations therefore export byte-identical documents — the property the
// bench harness and the regression tests rely on.

#include <sstream>

#include "base/json.h"
#include "telemetry/telemetry.h"

namespace spv::telemetry {

std::string CsvEscape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) {
    return std::string(field);
  }
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') {
      out.push_back('"');
    }
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

namespace {

void AppendEventJson(json::Writer& w, const Event& event) {
  w.BeginObject().Key("seq").Uint(event.seq).Key("cycle").Uint(event.cycle);
  w.Key("kind").String(EventKindName(event.kind));
  w.Key("severity").String(SeverityName(event.severity));
  w.Key("device").Uint(event.device).Key("addr").Uint(event.addr);
  w.Key("addr2").Uint(event.addr2).Key("len").Uint(event.len).Key("aux").Uint(event.aux);
  w.Key("flag").Uint(event.flag ? 1 : 0).Key("span").Uint(event.span);
  w.Key("site").String(event.site).EndObject();
}

}  // namespace

std::string Hub::ExportJson(size_t max_trace_events) const {
  json::Writer w;
  w.BeginObject().Key("counters").BeginObject();
  for (const auto& [name, entry] : counters_) {
    w.Key(name).Uint(entry.value());
  }
  w.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    w.Key(name).BeginObject().Key("count").Uint(histogram.count());
    w.Key("sum").Uint(histogram.sum()).Key("min").Uint(histogram.min());
    w.Key("max").Uint(histogram.max());
    w.Key("p50").Uint(histogram.PercentileUpperBound(50.0));
    w.Key("p90").Uint(histogram.PercentileUpperBound(90.0));
    w.Key("p99").Uint(histogram.PercentileUpperBound(99.0));
    w.Key("buckets").BeginArray();
    for (const Histogram::Bucket& bucket : histogram.NonZeroBuckets()) {
      w.BeginArray().Uint(bucket.upper_bound).Uint(bucket.count).EndArray();
    }
    w.EndArray().EndObject();
  }
  // `dropped_critical` is the fail-loud field: a nonzero value means security
  // findings were overwritten and the export below is an incomplete record.
  w.EndObject().Key("trace").BeginObject().Key("recorded").Uint(ring_.recorded());
  w.Key("dropped").Uint(ring_.dropped());
  w.Key("dropped_critical").Uint(ring_.dropped(Severity::kCritical));
  w.Key("dropped_by_severity").BeginArray();
  for (const Severity severity :
       {Severity::kTrace, Severity::kInfo, Severity::kWarn, Severity::kCritical}) {
    w.Uint(ring_.dropped(severity));
  }
  w.EndArray().Key("filtered").Uint(ring_.filtered()).Key("events").BeginArray();
  const std::vector<Event> events = ring_.Snapshot();
  for (size_t i = 0; i < events.size() && i < max_trace_events; ++i) {
    AppendEventJson(w, events[i]);
  }
  w.EndArray().EndObject().EndObject();
  return w.Take();
}

std::string Hub::ExportTraceCsv() const {
  std::ostringstream out;
  out << "seq,cycle,kind,severity,device,addr,addr2,len,aux,flag,span,site\n";
  for (const Event& event : ring_.Snapshot()) {
    out << event.seq << "," << event.cycle << "," << EventKindName(event.kind) << ","
        << SeverityName(event.severity) << "," << event.device << "," << event.addr << ","
        << event.addr2 << "," << event.len << "," << event.aux << "," << (event.flag ? 1 : 0)
        << "," << event.span << "," << CsvEscape(event.site) << "\n";
  }
  return out.str();
}

// ---- Trace CSV import ------------------------------------------------------------

namespace {

// Splits one CSV record into fields, honoring double-quoted fields with ""
// escapes (the exact dialect CsvEscape emits).
std::vector<std::string> SplitCsvFields(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

std::vector<Event> ParseTraceCsv(std::string_view csv) {
  std::vector<Event> events;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t end = csv.find('\n', pos);
    if (end == std::string_view::npos) {
      end = csv.size();
    }
    const std::string_view line = csv.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line.substr(0, 4) == "seq,") {
      continue;  // blank line or header
    }
    const std::vector<std::string> fields = SplitCsvFields(line);
    if (fields.size() != 12) {
      continue;
    }
    Event event;
    uint64_t device = 0;
    uint64_t flag = 0;
    const std::optional<EventKind> kind = EventKindFromName(fields[2]);
    const std::optional<Severity> severity = SeverityFromName(fields[3]);
    if (!kind.has_value() || !severity.has_value() || !ParseU64(fields[0], &event.seq) ||
        !ParseU64(fields[1], &event.cycle) || !ParseU64(fields[4], &device) ||
        !ParseU64(fields[5], &event.addr) || !ParseU64(fields[6], &event.addr2) ||
        !ParseU64(fields[7], &event.len) || !ParseU64(fields[8], &event.aux) ||
        !ParseU64(fields[9], &flag) || !ParseU64(fields[10], &event.span)) {
      continue;
    }
    event.kind = *kind;
    event.severity = *severity;
    event.device = static_cast<uint32_t>(device);
    event.flag = flag != 0;
    event.site = fields[11];
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace spv::telemetry
