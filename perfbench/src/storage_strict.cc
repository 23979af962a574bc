// storage_strict: synchronous NVMe commands at queue depth 1 through one
// NvmeDriver over an honest NvmeController, with strict IOTLB invalidation,
// zero-copy service and every observer off.
//
// The seeded stream mixes 1-, 8-, 24- and 144-block commands (PRP1 only,
// PRP2, one PRP list, a chained list) 4:3:2:1, 70% reads and 30% writes, at
// random LBAs of the controller's default media. Writes carry a seeded
// pattern stamped with the op id; every read-back is compared with a host
// shadow of the media, and at teardown the whole media must equal the shadow.

#include <cstring>

#include "base/rng.h"
#include "bench.h"
#include "device/device_port.h"
#include "nvme/nvme_controller.h"
#include "nvme/nvme_driver.h"

namespace perfbench {

namespace {

using spv::Kva;
using spv::Status;

constexpr uint64_t kMachineSeed = 1;
constexpr uint64_t kCapacityBlocks = spv::nvme::NvmeController::Config{}.capacity_blocks;
// Command sizes in blocks, weighted 4:3:2:1 towards small commands. Sim cost
// is flat within a size, so the weights also keep p50 inside the 8-block
// class and p99 inside the 144-block class for every seed.
constexpr uint16_t kShapes[] = {1, 1, 1, 1, 8, 8, 8, 24, 24, 144};
constexpr uint64_t kMaxBytes = 144 * spv::nvme::kLbaSize;
// The data buffer starts mid-page, so 8 blocks straddle two pages (PRP2),
// 24 need a PRP list and 144 a chained one.
constexpr uint64_t kDataPageOffset = 2048;
constexpr uint32_t kWarmupOps = 512;
constexpr uint64_t kPatternBytes = 256 * 1024;
constexpr uint64_t kPatternSalt = 0x5354'4f52'4147'4521ull;

// Forwards the doorbell interface to the controller; the service span covers
// everything one SQ doorbell makes the controller do (SQE fetch, PRP walk,
// data DMA, CQE post).
class TimedController : public spv::nvme::NvmeDeviceModel {
 public:
  TimedController(spv::nvme::NvmeController& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  void OnAdminQueueConfigured(const spv::nvme::QueuePair& queues) override {
    inner_.OnAdminQueueConfigured(queues);
  }
  void OnSqDoorbell(uint16_t qid, uint16_t tail) override {
    Span span(spans_, SpanName::kDeviceNvmeService);
    inner_.OnSqDoorbell(qid, tail);
  }
  void OnCqDoorbell(uint16_t qid, uint16_t head) override { inner_.OnCqDoorbell(qid, head); }
  void OnQueueDeleted(uint16_t qid) override { inner_.OnQueueDeleted(qid); }

 private:
  spv::nvme::NvmeController& inner_;
  SpanRecorder& spans_;
};

spv::core::MachineConfig StrictConfig() {
  spv::core::MachineConfig config;
  config.seed = kMachineSeed;
  config.iommu.mode = spv::iommu::InvalidationMode::kStrict;
  return config;
}

class StorageStrict : public OpWorkload {
 public:
  StorageStrict(uint64_t seed, SpanRecorder& spans)
      : spans_(spans),
        machine_(StrictConfig()),
        driver_(machine_.AddNvmeDriver({})),
        controller_(spv::device::DevicePort{machine_.iommu(), driver_.device_id()}),
        forwarder_(controller_, spans),
        rng_(seed),
        shadow_(kCapacityBlocks * spv::nvme::kLbaSize, 0),
        pattern_(kPatternBytes),
        scratch_(kMaxBytes) {
    spv::Xoshiro256 pattern_rng{seed ^ kPatternSalt};
    for (size_t i = 0; i < pattern_.size(); i += 8) {
      const uint64_t word = pattern_rng.Next();
      std::memcpy(pattern_.data() + i, &word, 8);
    }
  }

  Status Init() {
    driver_.AttachDevice(&forwarder_);
    SPV_RETURN_IF_ERROR(driver_.Init());
    spv::Result<Kva> buf = machine_.slab().Kmalloc(kMaxBytes + spv::kPageSize, "perfbench_io");
    if (!buf.ok()) {
      return buf.status();
    }
    buf_ = *buf;
    data_ = buf_ + (kDataPageOffset + spv::kPageSize - buf_.value % spv::kPageSize) %
                       spv::kPageSize;
    for (uint32_t i = 0; i < kWarmupOps; ++i) {
      SPV_RETURN_IF_ERROR(RunOp(i));
    }
    return spv::OkStatus();
  }

  Status RunOp(uint64_t op) override {
    const uint16_t blocks = kShapes[rng_.NextBelow(std::size(kShapes))];
    const uint64_t slba = rng_.NextBelow(kCapacityBlocks - blocks + 1);
    const bool write = rng_.NextBelow(10) < 3;
    const uint64_t bytes = uint64_t{blocks} * spv::nvme::kLbaSize;
    uint8_t* const media = shadow_.data() + slba * spv::nvme::kLbaSize;
    const std::span<uint8_t> payload(scratch_.data(), bytes);

    if (write) {
      {
        Span span(spans_, SpanName::kBenchGen);
        const uint64_t from = rng_.NextBelow(kPatternBytes - bytes + 1);
        std::memcpy(payload.data(), pattern_.data() + from, bytes);
        for (uint64_t block = 0; block < blocks; ++block) {
          std::memcpy(payload.data() + block * spv::nvme::kLbaSize, &op, sizeof(op));
        }
      }
      {
        Span span(spans_, SpanName::kDmaKmem);
        SPV_RETURN_IF_ERROR(machine_.kmem().Write(data_, payload));
      }
      const spv::Result<uint64_t> moved = [&] {
        Span span(spans_, SpanName::kNvmeSubmit);
        return driver_.WriteBlocks(slba, blocks, data_);
      }();
      SPV_RETURN_IF_ERROR(Moved(moved, bytes, "write"));
      Span span(spans_, SpanName::kBenchCheck);
      std::memcpy(media, payload.data(), bytes);
      return spv::OkStatus();
    }

    const spv::Result<uint64_t> moved = [&] {
      Span span(spans_, SpanName::kNvmeSubmit);
      return driver_.ReadBlocks(slba, blocks, data_);
    }();
    SPV_RETURN_IF_ERROR(Moved(moved, bytes, "read"));
    {
      Span span(spans_, SpanName::kDmaKmem);
      SPV_RETURN_IF_ERROR(machine_.kmem().Read(data_, payload));
    }
    Span span(spans_, SpanName::kBenchCheck);
    if (std::memcmp(payload.data(), media, bytes) != 0) {
      return spv::Internal("storage_strict: read-back of " + std::to_string(blocks) +
                           " blocks at LBA " + std::to_string(slba) +
                           " differs from the shadow media");
    }
    return spv::OkStatus();
  }

  const spv::SimClock& clock() override { return machine_.clock(); }

  LayerCounters Counters() override {
    LayerCounters c;
    FillMachineCounters(machine_, driver_.device_id(), c);
    c.prp_segments = driver_.prp_segments_built();
    c.nvme_failed =
        driver_.io_errors() + driver_.completion_errors() + driver_.poll_deadline_hits();
    c.device_bytes = controller_.stats().bytes_read + controller_.stats().bytes_written;
    return c;
  }

  Status Teardown() override {
    SPV_RETURN_IF_ERROR(machine_.slab().Kfree(buf_));
    SPV_RETURN_IF_ERROR(driver_.Shutdown());
    machine_.iommu().FlushNow();
    spv::Result<std::vector<uint8_t>> media = controller_.PeekMedia(0, kCapacityBlocks);
    if (!media.ok()) {
      return media.status();
    }
    if (*media != shadow_) {
      return spv::Internal("storage_strict: controller media differs from the shadow");
    }
    return machine_.CheckInvariants();
  }

 private:
  static Status Moved(const spv::Result<uint64_t>& moved, uint64_t bytes, const char* what) {
    if (!moved.ok()) {
      return moved.status();
    }
    if (*moved != bytes) {
      return spv::Internal(std::string("storage_strict: short ") + what + ": " +
                           std::to_string(*moved) + " of " + std::to_string(bytes) + " bytes");
    }
    return spv::OkStatus();
  }

  SpanRecorder& spans_;
  spv::core::Machine machine_;
  spv::nvme::NvmeDriver& driver_;
  spv::nvme::NvmeController controller_;
  TimedController forwarder_;
  spv::Xoshiro256 rng_;
  std::vector<uint8_t> shadow_;
  std::vector<uint8_t> pattern_;
  std::vector<uint8_t> scratch_;
  Kva buf_;
  Kva data_;
};

}  // namespace

spv::Result<std::unique_ptr<OpWorkload>> MakeStorageStrict(uint64_t seed, SpanRecorder& spans) {
  auto workload = std::make_unique<StorageStrict>(seed, spans);
  SPV_RETURN_IF_ERROR(workload->Init());
  return std::unique_ptr<OpWorkload>(std::move(workload));
}

}  // namespace perfbench
