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

// Reads the record that starts at `*pos` into `fields` and moves `*pos` past
// it. Double-quoted fields may hold commas, newlines and "" escapes (the
// exact dialect CsvEscape emits), so a record ends only at a newline outside
// quotes. A '\r' outside quotes is dropped.
void ReadCsvRecord(std::string_view csv, size_t* pos, std::vector<std::string>* fields) {
  fields->assign(1, std::string());
  bool in_quotes = false;
  size_t i = *pos;
  for (; i < csv.size(); ++i) {
    const char c = csv[i];
    std::string& field = fields->back();
    if (in_quotes) {
      if (c != '"') {
        field.push_back(c);
      } else if (i + 1 < csv.size() && csv[i + 1] == '"') {
        field.push_back('"');
        ++i;
      } else {
        in_quotes = false;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields->emplace_back();
    } else if (c == '\n') {
      break;
    } else if (c != '\r') {
      field.push_back(c);
    }
  }
  *pos = i + 1;
}

// Decimal digits only, at most `max`.
bool ParseU64(const std::string& text, uint64_t* out, uint64_t max = UINT64_MAX) {
  if (text.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    const auto digit = static_cast<uint64_t>(c - '0');
    if (value > (max - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace

std::vector<Event> ParseTraceCsv(std::string_view csv) {
  std::vector<Event> events;
  std::vector<std::string> fields;
  size_t pos = 0;
  while (pos < csv.size()) {
    ReadCsvRecord(csv, &pos, &fields);
    if (fields.size() != 12) {
      continue;  // blank line, or not a trace row
    }
    Event event;
    uint64_t device = 0;
    uint64_t flag = 0;
    const std::optional<EventKind> kind = EventKindFromName(fields[2]);
    const std::optional<Severity> severity = SeverityFromName(fields[3]);
    if (!kind.has_value() || !severity.has_value() || !ParseU64(fields[0], &event.seq) ||
        !ParseU64(fields[1], &event.cycle) || !ParseU64(fields[4], &device, UINT32_MAX) ||
        !ParseU64(fields[5], &event.addr) || !ParseU64(fields[6], &event.addr2) ||
        !ParseU64(fields[7], &event.len) || !ParseU64(fields[8], &event.aux) ||
        !ParseU64(fields[9], &flag) || !ParseU64(fields[10], &event.span)) {
      continue;  // the header, or a field that does not parse
    }
    event.kind = *kind;
    event.severity = *severity;
    event.device = static_cast<uint32_t>(device);
    event.flag = flag != 0;
    event.site = std::move(fields[11]);
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace spv::telemetry
