#include "iommu/iova_allocator.h"

#include <bit>
#include <cassert>
#include <string>

namespace spv::iommu {

IovaAllocator::IovaAllocator(uint64_t window_start, uint64_t window_end,
                             const FastPathConfig& fast_path)
    : window_start_(window_start >> kPageShift),
      window_end_(window_end >> kPageShift),
      next_top_(window_end >> kPageShift),
      fast_path_(fast_path) {
  assert(window_start_ < window_end_);
  if (fast_path_.num_cpus == 0) {
    fast_path_.num_cpus = 1;
  }
  if (fast_path_.enabled) {
    rcaches_.resize(kNumSizeClasses);
    for (SizeClassCache& cache : rcaches_) {
      cache.cpus.resize(fast_path_.num_cpus);
      for (CpuCache& cpu : cache.cpus) {
        cpu.loaded.reserve(fast_path_.magazine_capacity);
        cpu.prev.reserve(fast_path_.magazine_capacity);
      }
    }
  }
}

void IovaAllocator::set_telemetry(telemetry::Hub* hub) {
  links_.clear();
  if (hub == nullptr) {
    return;
  }
  links_.push_back(hub->Link("iova.rcache.hits", stats_.rcache_hits));
  links_.push_back(hub->Link("iova.rcache.misses", stats_.rcache_misses));
  links_.push_back(hub->Link("iova.rcache.depot_refills", stats_.depot_refills));
  links_.push_back(hub->Link("iova.rcache.depot_spills", stats_.depot_spills));
  links_.push_back(hub->Link("iova.coalesces", stats_.coalesces));
}

int IovaAllocator::SizeClassFor(uint64_t pages) {
  if (pages == 0 || pages > kMaxCachedPages) {
    return -1;
  }
  return std::bit_width(pages - 1);  // ceil(log2(pages)); 1 page -> class 0
}

uint64_t IovaAllocator::EffectivePages(uint64_t pages) const {
  const int size_class = SizeClassFor(pages);
  if (!fast_path_.enabled || size_class < 0) {
    return pages;
  }
  return uint64_t{1} << size_class;
}

Result<Iova> IovaAllocator::Alloc(uint64_t pages, CpuId cpu) {
  if (pages == 0) {
    return InvalidArgument("IOVA alloc of zero pages");
  }
  const uint64_t effective = EffectivePages(pages);
  const int size_class = SizeClassFor(pages);
  uint64_t base_page = 0;
  if (fast_path_.enabled && !cache_bypass_ && size_class >= 0 &&
      MagazinePop(size_class, cpu, &base_page)) {
    ++stats_.rcache_hits;
    live_.emplace(base_page, effective);
  } else {
    if (fast_path_.enabled && !cache_bypass_ && size_class >= 0) {
      ++stats_.rcache_misses;
    }
    Result<uint64_t> range = AllocRange(effective);
    if (!range.ok()) {
      return range.status();
    }
    base_page = *range;
    live_.emplace(base_page, effective);
  }
  allocated_pages_ += effective;
  return Iova{base_page << kPageShift};
}

Status IovaAllocator::Free(Iova base, uint64_t pages, CpuId cpu) {
  if (pages == 0 || base.page_offset() != 0) {
    return InvalidArgument("IOVA free: bad base or count");
  }
  const uint64_t base_page = base.value >> kPageShift;
  if (base_page < window_start_ || base_page + pages > window_end_) {
    return InvalidArgument("IOVA free outside window");
  }
  const uint64_t effective = EffectivePages(pages);
  auto it = live_.find(base_page);
  if (it == live_.end()) {
    return FailedPrecondition("IOVA double free");
  }
  if (it->second != effective) {
    return InvalidArgument("IOVA free with mismatched page count");
  }
  live_.erase(it);
  assert(allocated_pages_ >= effective);
  allocated_pages_ -= effective;

  const int size_class = SizeClassFor(pages);
  if (fast_path_.enabled && !cache_bypass_ && size_class >= 0) {
    MagazinePush(size_class, cpu, base_page);
  } else {
    FreeRange(base_page, effective);
  }
  return OkStatus();
}

uint64_t IovaAllocator::cached_ranges() const {
  uint64_t total = 0;
  for (const SizeClassCache& cache : rcaches_) {
    for (const CpuCache& cpu : cache.cpus) {
      total += cpu.loaded.size() + cpu.prev.size();
    }
    for (const Magazine& magazine : cache.depot) {
      total += magazine.size();
    }
  }
  return total;
}

Status IovaAllocator::AuditCaches(std::span<const LiveRange> live) const {
  // Every cached base goes into one vector (per-thread scratch, so a warm
  // audit allocates nothing), checked against the window as it is collected
  // (the size class bounds the range). Sorted, a range cached twice sits
  // next to its twin, and one merge walk with `live` (also ascending) finds
  // a base that is both cached and live.
  thread_local std::vector<uint64_t> cached;
  cached.clear();
  for (size_t sc = 0; sc < rcaches_.size(); ++sc) {
    const SizeClassCache& cache = rcaches_[sc];
    const uint64_t size = uint64_t{1} << sc;
    auto collect = [&](const Magazine& magazine) -> Status {
      for (uint64_t base_page : magazine) {
        if (base_page < window_start_ || base_page + size > window_end_) {
          return Internal("cached IOVA range outside window: page " +
                          std::to_string(base_page));
        }
        cached.push_back(base_page);
      }
      return OkStatus();
    };
    for (const CpuCache& cpu : cache.cpus) {
      SPV_RETURN_IF_ERROR(collect(cpu.loaded));
      SPV_RETURN_IF_ERROR(collect(cpu.prev));
    }
    for (const Magazine& magazine : cache.depot) {
      SPV_RETURN_IF_ERROR(collect(magazine));
    }
  }
  std::sort(cached.begin(), cached.end());
  if (auto twin = std::adjacent_find(cached.begin(), cached.end()); twin != cached.end()) {
    return Internal("IOVA range cached twice: page " + std::to_string(*twin));
  }
  auto range = live.begin();
  for (uint64_t base_page : cached) {
    while (range != live.end() && range->base_page < base_page) {
      ++range;
    }
    if (range != live.end() && range->base_page == base_page) {
      return Internal("IOVA range both cached and live: page " + std::to_string(base_page));
    }
  }
  return OkStatus();
}

bool IovaAllocator::MagazinePop(int size_class, CpuId cpu, uint64_t* base_page) {
  SizeClassCache& cache = rcaches_[static_cast<size_t>(size_class)];
  CpuCache& cpu_cache = cache.cpus[cpu.value % fast_path_.num_cpus];
  if (cpu_cache.loaded.empty()) {
    if (!cpu_cache.prev.empty()) {
      std::swap(cpu_cache.loaded, cpu_cache.prev);
    } else if (cache.depot.empty()) {
      return false;
    } else {
      // The empty loaded magazine is recycled as the next depot slot's
      // backing storage by the swap (its reserved capacity is kept).
      std::swap(cpu_cache.loaded, cache.depot.back());
      cache.depot.pop_back();
      ++stats_.depot_refills;
    }
  }
  *base_page = cpu_cache.loaded.back();
  cpu_cache.loaded.pop_back();
  return true;
}

void IovaAllocator::MagazinePush(int size_class, CpuId cpu, uint64_t base_page) {
  SizeClassCache& cache = rcaches_[static_cast<size_t>(size_class)];
  CpuCache& cpu_cache = cache.cpus[cpu.value % fast_path_.num_cpus];
  if (cpu_cache.loaded.size() >= fast_path_.magazine_capacity) {
    if (cpu_cache.prev.size() < fast_path_.magazine_capacity) {
      std::swap(cpu_cache.loaded, cpu_cache.prev);
    } else if (cache.depot.size() < fast_path_.depot_capacity) {
      cache.depot.push_back(std::move(cpu_cache.loaded));
      cpu_cache.loaded = Magazine{};
      cpu_cache.loaded.reserve(fast_path_.magazine_capacity);
      ++stats_.depot_spills;
    } else {
      // Depot full: return the whole magazine to the range tree, like
      // iova_magazine_free_pfns.
      const uint64_t size = uint64_t{1} << size_class;
      for (uint64_t cached : cpu_cache.loaded) {
        FreeRange(cached, size);
      }
      cpu_cache.loaded.clear();
      ++stats_.depot_overflows;
    }
  }
  cpu_cache.loaded.push_back(base_page);
}

Result<uint64_t> IovaAllocator::AllocRange(uint64_t pages) {
  // First fit from the highest base: freed ranges near the top of the window
  // (the most recently carved in the common pattern) are reused first.
  for (auto it = free_ranges_.rbegin(); it != free_ranges_.rend(); ++it) {
    if (it->second < pages) {
      continue;
    }
    const uint64_t base = it->first;
    const uint64_t count = it->second;
    if (count == pages) {
      free_ranges_.erase(std::next(it).base());
      return base;
    }
    // Take the high end so the remainder keeps its base (no re-keying).
    it->second = count - pages;
    ++stats_.range_splits;
    return base + count - pages;
  }
  if (next_top_ - window_start_ < pages) {
    return ResourceExhausted("IOVA window exhausted");
  }
  next_top_ -= pages;
  return next_top_;
}

void IovaAllocator::FreeRange(uint64_t base_page, uint64_t pages) {
  auto [it, inserted] = free_ranges_.emplace(base_page, pages);
  assert(inserted);
  (void)inserted;
  // Coalesce with the successor, then the predecessor, so churn cannot
  // fragment the tree unboundedly.
  auto next = std::next(it);
  if (next != free_ranges_.end() && it->first + it->second == next->first) {
    it->second += next->second;
    free_ranges_.erase(next);
    ++stats_.coalesces;
  }
  if (it != free_ranges_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      free_ranges_.erase(it);
      it = prev;
      ++stats_.coalesces;
    }
  }
  // A block that reaches back down to the virgin frontier melts into it
  // (next_top_ climbs back up), keeping the tree small under top-down churn.
  if (it->first == next_top_) {
    next_top_ += it->second;
    free_ranges_.erase(it);
  }
}

}  // namespace spv::iommu
