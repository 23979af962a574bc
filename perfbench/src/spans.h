// Span recorder for the benchmark's traced runs.
//
// Spans bracket the benchmark's own calls into a layer's public functions
// (never anything inside src/). Each span records its name, the op it belongs
// to, its parent, and start/end on both clocks: host nanoseconds
// (steady_clock) and simulated cycles. Per-name host-time totals cover every
// span; the first kKeptRecords records are kept in memory and written out at
// exit.
//
// Self time is a span's duration minus the part its direct children cover.
// While the recorder is disabled a Span costs one branch.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/clock.h"
#include "base/status.h"

namespace perfbench {

enum class SpanName : uint8_t {
  kBenchGen,            // benchmark: input generation
  kBenchCheck,          // benchmark: output checks against the shadow
  kDmaKmem,             // KernelMemory::Read/Write of an IO payload
  kNvmeSubmit,          // NvmeDriver::ReadBlocks / WriteBlocks
  kDeviceNvmeService,   // NvmeController::OnSqDoorbell (child of kNvmeSubmit)
  kDeviceRxInject,      // MaliciousNic::InjectRxOn (DMA write via the IOMMU)
  kNetCompleteRx,       // NicDriver::CompleteRx
  kNetReceive,          // NetworkStack::NapiGroReceive + NapiComplete
  kDeviceTxFetch,       // device DMA read of the posted TX frame
  kNetTxComplete,       // NetworkStack::OnTxCompleted
  kIommuTimer,          // Iommu::ProcessDeferredTimer
  kSoakRun,             // soak::RunSoak
  kCount,
};

const char* SpanNameString(SpanName name);

struct SpanTotals {
  uint64_t host_ns = 0;        // summed durations
  uint64_t child_host_ns = 0;  // part covered by direct children

  uint64_t self_host_ns() const { return host_ns - child_host_ns; }
};

class SpanRecorder {
 public:
  static constexpr size_t kKeptRecords = size_t{1} << 17;

  SpanRecorder();

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // The simulated clock spans read; nullptr records 0 cycles.
  void set_sim_clock(const spv::SimClock* clock) { clock_ = clock; }
  // Toggle only while no span is open.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void set_op(uint64_t op) { op_ = op; }

  void Open(SpanName name);
  void Close();
  // A root span timed by the caller (soak runs keep their clock inside).
  void AddClosed(SpanName name, int64_t host_start_ns, int64_t host_end_ns,
                 uint64_t sim_cycles);

  const SpanTotals& totals(SpanName name) const {
    return totals_[static_cast<size_t>(name)];
  }
  // Summed duration of root spans: the host time the spans account for.
  uint64_t root_host_ns() const { return root_host_ns_; }

  // CSV: id,parent,name,op,host_start_ns,host_end_ns,sim_start,sim_end.
  spv::Status WriteCsv(const std::string& path) const;

  // Host nanoseconds on the clock spans use.
  static int64_t NowNs();

 private:
  struct Frame {
    SpanName name;
    uint32_t record;  // 1-based record id, 0 when not kept
    int64_t host_start;
    uint64_t sim_start;
    uint64_t child_host_ns;
  };
  struct Record {
    SpanName name;
    uint32_t parent;
    uint64_t op;
    int64_t host_start;
    int64_t host_end;
    uint64_t sim_start;
    uint64_t sim_end;
  };

  uint64_t SimNow() const { return clock_ != nullptr ? clock_->now() : 0; }
  void Account(SpanName name, uint64_t host_ns, uint64_t child_host_ns);

  const spv::SimClock* clock_ = nullptr;
  bool enabled_ = false;
  uint64_t op_ = 0;
  std::vector<Frame> stack_;
  std::vector<Record> records_;
  SpanTotals totals_[static_cast<size_t>(SpanName::kCount)];
  uint64_t root_host_ns_ = 0;
};

// RAII span; a disabled recorder makes it a no-op.
class Span {
 public:
  Span(SpanRecorder& recorder, SpanName name)
      : recorder_(recorder.enabled() ? &recorder : nullptr) {
    if (recorder_ != nullptr) {
      recorder_->Open(name);
    }
  }
  ~Span() {
    if (recorder_ != nullptr) {
      recorder_->Close();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
