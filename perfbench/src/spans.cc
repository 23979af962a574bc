#include "spans.h"

#include <chrono>
#include <fstream>

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kBenchGen: return "bench.gen";
    case SpanName::kBenchCheck: return "bench.check";
    case SpanName::kDmaKmem: return "dma.kmem";
    case SpanName::kNvmeSubmit: return "nvme.submit";
    case SpanName::kDeviceNvmeService: return "device.nvme_service";
    case SpanName::kDeviceRxInject: return "device.rx_inject";
    case SpanName::kNetCompleteRx: return "net.complete_rx";
    case SpanName::kNetReceive: return "net.receive";
    case SpanName::kDeviceTxFetch: return "device.tx_fetch";
    case SpanName::kNetTxComplete: return "net.tx_complete";
    case SpanName::kIommuTimer: return "iommu.timer";
    case SpanName::kSoakRun: return "soak.run";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanRecorder::SpanRecorder() { records_.reserve(kKeptRecords); }

int64_t SpanRecorder::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanRecorder::Open(SpanName name) {
  uint32_t record = 0;
  if (records_.size() < kKeptRecords) {
    records_.push_back(Record{name, stack_.empty() ? 0 : stack_.back().record, op_, 0, 0,
                              0, 0});
    record = static_cast<uint32_t>(records_.size());
  }
  stack_.push_back(Frame{name, record, NowNs(), SimNow(), 0});
}

void SpanRecorder::Close() {
  const int64_t host_end = NowNs();
  const uint64_t sim_end = SimNow();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const uint64_t host_ns = static_cast<uint64_t>(host_end - frame.host_start);
  if (frame.record != 0) {
    Record& record = records_[frame.record - 1];
    record.host_start = frame.host_start;
    record.host_end = host_end;
    record.sim_start = frame.sim_start;
    record.sim_end = sim_end;
  }
  Account(frame.name, host_ns, frame.child_host_ns);
}

void SpanRecorder::AddClosed(SpanName name, int64_t host_start_ns, int64_t host_end_ns,
                             uint64_t sim_cycles) {
  if (records_.size() < kKeptRecords) {
    records_.push_back(Record{name, 0, op_, host_start_ns, host_end_ns, 0, sim_cycles});
  }
  Account(name, static_cast<uint64_t>(host_end_ns - host_start_ns), 0);
}

void SpanRecorder::Account(SpanName name, uint64_t host_ns, uint64_t child_host_ns) {
  SpanTotals& totals = totals_[static_cast<size_t>(name)];
  totals.host_ns += host_ns;
  totals.child_host_ns += child_host_ns;
  if (stack_.empty()) {
    root_host_ns_ += host_ns;
  } else {
    stack_.back().child_host_ns += host_ns;
  }
}

spv::Status SpanRecorder::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return spv::Unavailable("cannot write " + path);
  }
  out << "id,parent,name,op,host_start_ns,host_end_ns,sim_start,sim_end\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << i + 1 << ',' << r.parent << ',' << SpanNameString(r.name) << ',' << r.op << ','
        << r.host_start << ',' << r.host_end << ',' << r.sim_start << ',' << r.sim_end
        << '\n';
  }
  return out ? spv::OkStatus() : spv::Unavailable("short write to " + path);
}

}  // namespace perfbench
