#include "dkasan/dkasan.h"

#include <algorithm>
#include <sstream>

namespace spv::dkasan {

std::string ReportKindName(ReportKind kind) {
  switch (kind) {
    case ReportKind::kAllocAfterMap:
      return "alloc-after-map";
    case ReportKind::kMapAfterAlloc:
      return "map-after-alloc";
    case ReportKind::kAccessAfterMap:
      return "access-after-map";
    case ReportKind::kMultipleMap:
      return "multiple-map";
  }
  return "?";
}

std::string Report::ToLine(int index) const {
  std::ostringstream out;
  out << "[" << index << "] size " << size << " [" << iommu::AccessRightsName(rights) << "] "
      << site;
  if (!detail.empty()) {
    out << "  (" << ReportKindName(kind) << ": " << detail << ")";
  } else {
    out << "  (" << ReportKindName(kind) << ")";
  }
  return out.str();
}

DKasan::~DKasan() {
  for (telemetry::Hub* hub : joined_) {
    hub->RemoveSink(this);
  }
}

void DKasan::Attach(const void* origin, telemetry::Hub& hub) {
  if (std::find(origins_.begin(), origins_.end(), origin) == origins_.end()) {
    origins_.push_back(origin);
  }
  if (std::find(joined_.begin(), joined_.end(), &hub) == joined_.end()) {
    joined_.push_back(&hub);
    hub.AddSink(this);
  }
}

telemetry::KindSet DKasan::kinds() const {
  using telemetry::EventKind;
  return {EventKind::kSlabAlloc, EventKind::kFragAlloc, EventKind::kSlabFree,
          EventKind::kFragFree,  EventKind::kDmaMap,    EventKind::kDmaUnmap,
          EventKind::kCpuAccess};
}

void DKasan::OnEvent(const telemetry::Event& event) {
  if (std::find(origins_.begin(), origins_.end(), event.origin) == origins_.end()) {
    return;
  }
  switch (event.kind) {
    case telemetry::EventKind::kSlabAlloc:
    case telemetry::EventKind::kFragAlloc:
      OnAlloc(Kva{event.addr}, event.len, event.site);
      break;
    case telemetry::EventKind::kSlabFree:
    case telemetry::EventKind::kFragFree:
      OnFree(Kva{event.addr});
      break;
    case telemetry::EventKind::kDmaMap:
      OnMap(Kva{event.addr}, event.len, static_cast<iommu::AccessRights>(event.aux),
            event.site);
      break;
    case telemetry::EventKind::kDmaUnmap:
      OnUnmap(Kva{event.addr}, event.len);
      break;
    case telemetry::EventKind::kCpuAccess:
      OnCpuAccess(Kva{event.addr}, event.len, event.flag);
      break;
    default:
      break;
  }
}

DKasan::PageShadow* DKasan::ShadowFor(Kva kva) {
  Result<PhysAddr> phys = layout_.DirectMapKvaToPhys(kva);
  if (!phys.ok()) {
    return nullptr;
  }
  return &shadow_[phys->pfn().value];
}

void DKasan::AddReport(Report report) {
  if (dedup_) {
    const auto key = std::make_pair(static_cast<uint8_t>(report.kind), report.site);
    if (seen_.contains(key)) {
      return;
    }
    seen_[key] = true;
  }
  if (hub_ != nullptr && hub_->active()) {
    telemetry::Event event;
    event.kind = telemetry::EventKind::kDkasanReport;
    event.severity = telemetry::Severity::kCritical;
    event.addr = report.kva.value;
    event.len = report.size;
    event.aux = static_cast<uint64_t>(report.kind);
    event.origin = this;
    event.site = ReportKindName(report.kind) + ": " + report.site;
    hub_->Publish(event);
    if (hub_->enabled()) {
      ++hub_->counter("dkasan.reports");
      ++hub_->counter("dkasan.reports." + ReportKindName(report.kind));
    }
  }
  reports_.push_back(std::move(report));
}

void DKasan::OnAlloc(Kva kva, uint64_t size, std::string_view site) {
  live_objects_[kva.value] = LiveObject{size, std::string(site)};
  // alloc-after-map: any page the object touches is currently mapped.
  const uint64_t first = kva.PageBase().value;
  const uint64_t last = (kva.value + size - 1) & ~kPageMask;
  for (uint64_t page = first; page <= last; page += kPageSize) {
    PageShadow* shadow = ShadowFor(Kva{page});
    if (shadow != nullptr && shadow->map_count > 0) {
      Report report;
      report.kind = ReportKind::kAllocAfterMap;
      report.kva = kva;
      report.size = size;
      report.rights = static_cast<iommu::AccessRights>(shadow->merged_rights);
      report.site = std::string(site);
      report.detail = "object allocated on a DMA-mapped page (mapped at " +
                      shadow->first_map_site + ")";
      AddReport(std::move(report));
      return;
    }
  }
}

void DKasan::OnFree(Kva kva) {
  live_objects_.erase(kva.value);
}

void DKasan::OnMap(Kva kva, uint64_t len, iommu::AccessRights rights,
                   std::string_view site) {
  const uint64_t first = kva.PageBase().value;
  const uint64_t last = (kva.value + len - 1) & ~kPageMask;
  for (uint64_t page = first; page <= last; page += kPageSize) {
    PageShadow* shadow = ShadowFor(Kva{page});
    if (shadow == nullptr) {
      continue;
    }
    if (shadow->map_count > 0) {
      Report report;
      report.kind = ReportKind::kMultipleMap;
      report.kva = Kva{page};
      report.size = len;
      report.rights =
          static_cast<iommu::AccessRights>(shadow->merged_rights |
                                           static_cast<uint8_t>(rights));
      report.site = std::string(site);
      report.detail = "page mapped " + std::to_string(shadow->map_count + 1) +
                      " times (first at " + shadow->first_map_site + ")";
      AddReport(std::move(report));
    }
    if (shadow->map_count == 0) {
      shadow->first_map_site = std::string(site);
    }
    ++shadow->map_count;
    shadow->merged_rights |= static_cast<uint8_t>(rights);

    // map-after-alloc: a live object that is NOT the mapped buffer shares
    // this page.
    auto it = live_objects_.lower_bound(page > kPageSize ? page - kPageSize + 1 : 0);
    for (; it != live_objects_.end() && it->first < page + kPageSize; ++it) {
      const uint64_t obj_start = it->first;
      const uint64_t obj_end = obj_start + it->second.size;
      if (obj_end <= page || obj_start >= page + kPageSize) {
        continue;  // does not intersect this page
      }
      if (obj_start >= kva.value && obj_end <= kva.value + len) {
        continue;  // the mapped buffer itself
      }
      Report report;
      report.kind = ReportKind::kMapAfterAlloc;
      report.kva = Kva{obj_start};
      report.size = it->second.size;
      report.rights = rights;
      report.site = it->second.site;
      report.detail = "containing page mapped after allocation (map at " +
                      std::string(site) + ")";
      AddReport(std::move(report));
    }
  }
}

void DKasan::OnUnmap(Kva kva, uint64_t len) {
  const uint64_t first = kva.PageBase().value;
  const uint64_t last = (kva.value + len - 1) & ~kPageMask;
  for (uint64_t page = first; page <= last; page += kPageSize) {
    PageShadow* shadow = ShadowFor(Kva{page});
    if (shadow != nullptr && shadow->map_count > 0) {
      --shadow->map_count;
      if (shadow->map_count == 0) {
        shadow->merged_rights = 0;
        shadow->first_map_site.clear();
      }
    }
  }
}

void DKasan::OnCpuAccess(Kva kva, uint64_t len, bool is_write) {
  const uint64_t first = kva.PageBase().value;
  const uint64_t last = len > 0 ? ((kva.value + len - 1) & ~kPageMask) : first;
  for (uint64_t page = first; page <= last; page += kPageSize) {
    PageShadow* shadow = ShadowFor(Kva{page});
    if (shadow != nullptr && shadow->map_count > 0) {
      Report report;
      report.kind = ReportKind::kAccessAfterMap;
      report.kva = kva;
      report.size = len;
      report.rights = static_cast<iommu::AccessRights>(shadow->merged_rights);
      report.site = std::string(is_write ? "cpu-write" : "cpu-read") + " on page mapped at " +
                    shadow->first_map_site;
      AddReport(std::move(report));
      return;
    }
  }
}

std::vector<Report> DKasan::ReportsOfKind(ReportKind kind) const {
  std::vector<Report> out;
  for (const Report& report : reports_) {
    if (report.kind == kind) {
      out.push_back(report);
    }
  }
  return out;
}

uint64_t DKasan::count(ReportKind kind) const {
  uint64_t n = 0;
  for (const Report& report : reports_) {
    n += report.kind == kind ? 1 : 0;
  }
  return n;
}

std::string DKasan::FormatReport(size_t max_lines) const {
  std::ostringstream out;
  out << "D-KASAN report (" << reports_.size() << " findings)\n";
  int index = 1;
  for (const Report& report : reports_) {
    if (static_cast<size_t>(index) > max_lines) {
      out << "  ... " << (reports_.size() - max_lines) << " more\n";
      break;
    }
    out << "  " << report.ToLine(index++) << "\n";
  }
  return out.str();
}

}  // namespace spv::dkasan
