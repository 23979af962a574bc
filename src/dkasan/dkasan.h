// D-KASAN: the DMA Kernel Address SANitizer (§4.2).
//
// KASAN extended to track DMA-map operations alongside allocations. Shadow
// state records, per physical page, whether it is currently DMA-mapped (and
// with what access), and per byte-range, which allocation owns it. D-KASAN is
// a plain telemetry::EventSink: the slab allocators and the DMA API publish
// alloc/free and map/unmap events on their Hub, and CPU accesses arrive as
// kCpuAccess events from the KernelMemory instrumentation. Four report
// classes:
//
//   1. alloc-after-map : an object is allocated from a page that is already
//                        DMA-mapped (random exposure, type (d));
//   2. map-after-alloc : a page holding a live unrelated object gets mapped;
//   3. access-after-map: the CPU touches a DMA-mapped page (CPU/device
//                        sharing — the racing ground of §5.2);
//   4. multiple-map    : a page mapped more than once, possibly with
//                        different permissions (type (c)).

#ifndef SPV_DKASAN_DKASAN_H_
#define SPV_DKASAN_DKASAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/types.h"
#include "dma/dma_api.h"
#include "iommu/access_rights.h"
#include "mem/kernel_layout.h"
#include "slab/page_frag.h"
#include "slab/slab_allocator.h"
#include "telemetry/telemetry.h"

namespace spv::dkasan {

enum class ReportKind : uint8_t {
  kAllocAfterMap,
  kMapAfterAlloc,
  kAccessAfterMap,
  kMultipleMap,
};

std::string ReportKindName(ReportKind kind);

struct Report {
  ReportKind kind;
  Kva kva;                      // address of the triggering object/access
  uint64_t size = 0;            // allocation/access size
  iommu::AccessRights rights =  // rights of the involved mapping(s)
      iommu::AccessRights::kNone;
  std::string site;             // allocating/mapping location
  std::string detail;

  // Figure-3 style line:
  //   "[k] size 512 [READ, WRITE] __alloc_skb+0xe0/0x3f0"
  std::string ToLine(int index) const;
};

class DKasan : public telemetry::EventSink {
 public:
  explicit DKasan(const mem::KernelLayout& layout) : layout_(layout) {}
  // Leaves every Hub it joined, so sources may outlive the sanitizer (the
  // Hubs themselves must, as for every sink).
  ~DKasan() override;

  DKasan(const DKasan&) = delete;
  DKasan& operator=(const DKasan&) = delete;

  // Publishes every report as a kDkasanReport event (critical severity) on
  // top of the local report list. Pass nullptr to detach.
  void set_telemetry(telemetry::Hub* hub) { hub_ = hub; }

  // Accepts the events `source` publishes, joining its Hub on first use.
  // Events from sources never attached are ignored even on a shared Hub, so
  // a page_frag pool attached late contributes only from then on.
  void Attach(slab::SlabAllocator& slab) { Attach(&slab, slab.telemetry()); }
  void Attach(slab::PageFragPool& pool) { Attach(&pool, pool.telemetry()); }
  void Attach(dma::DmaApi& dma) { Attach(&dma, dma.telemetry()); }

  void OnEvent(const telemetry::Event& event) override;
  // Allocations, frees, maps, unmaps and CPU accesses.
  telemetry::KindSet kinds() const override;

  // ---- Results ------------------------------------------------------------------

  const std::vector<Report>& reports() const { return reports_; }
  std::vector<Report> ReportsOfKind(ReportKind kind) const;
  uint64_t count(ReportKind kind) const;

  // Full report text (Figure 3 shape).
  std::string FormatReport(size_t max_lines = 32) const;

  void ClearReports() { reports_.clear(); }

  // Deduplicate by (kind, site): repeated identical findings are noise.
  void set_dedup(bool dedup) { dedup_ = dedup; }

 private:
  struct PageShadow {
    // Live mappings covering this page: device -> rights (merged).
    uint32_t map_count = 0;
    uint8_t merged_rights = 0;
    std::string first_map_site;
  };
  struct LiveObject {
    uint64_t size;
    std::string site;
  };

  void Attach(const void* origin, telemetry::Hub& hub);

  void OnAlloc(Kva kva, uint64_t size, std::string_view site);
  void OnFree(Kva kva);
  void OnMap(Kva kva, uint64_t len, iommu::AccessRights rights, std::string_view site);
  void OnUnmap(Kva kva, uint64_t len);
  void OnCpuAccess(Kva kva, uint64_t len, bool is_write);

  void AddReport(Report report);
  PageShadow* ShadowFor(Kva kva);

  const mem::KernelLayout& layout_;
  std::vector<const void*> origins_;     // attached sources (Event::origin)
  std::vector<telemetry::Hub*> joined_;  // hubs this sink was added to
  std::unordered_map<uint64_t, PageShadow> shadow_;       // pfn -> state
  std::map<uint64_t, LiveObject> live_objects_;           // kva -> object
  std::vector<Report> reports_;
  std::map<std::pair<uint8_t, std::string>, bool> seen_;  // dedup key
  bool dedup_ = true;
  telemetry::Hub* hub_ = nullptr;
};

}  // namespace spv::dkasan

#endif  // SPV_DKASAN_DKASAN_H_
