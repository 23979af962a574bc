#include "iommu/io_page_table.h"

namespace spv::iommu {

void IoPageTable::set_telemetry(telemetry::Hub* hub) {
  links_.clear();
  if (hub == nullptr) {
    return;
  }
  links_.push_back(hub->Link("iommu.walk_cache.hits", walk_cache_stats_.hits));
  links_.push_back(hub->Link("iommu.walk_cache.misses", walk_cache_stats_.misses));
}

Status IoPageTable::Map(Iova iova, Pfn pfn, AccessRights rights) {
  if (rights == AccessRights::kNone) {
    return InvalidArgument("mapping with no access rights");
  }
  if (!root_) {
    root_ = std::make_unique<Root>();
  }
  Leaf& leaf = ChildFor(ChildFor(ChildFor(*root_, IndexAt(iova, 3)), IndexAt(iova, 2)),
                        IndexAt(iova, 1));
  const uint64_t index = IndexAt(iova, 0);
  if (leaf.present.Test(index)) {
    return AlreadyExists("IOVA page already mapped");
  }
  leaf.entries[index] = PteEntry{pfn, rights};
  leaf.present.Set(index);
  ++mapped_pages_;
  return OkStatus();
}

Result<PteEntry> IoPageTable::Unmap(Iova iova) {
  int levels = 0;
  Leaf* leaf = WalkToLeaf(iova, &levels);
  const uint64_t index = IndexAt(iova, 0);
  if (leaf == nullptr || !leaf->present.Test(index)) {
    return NotFound("IOVA page not mapped");
  }
  leaf->present.Clear(index);
  --mapped_pages_;
  if (walk_cache_enabled_) {
    const uint64_t region = RegionOf(iova);
    WalkCacheEntry& slot = walk_cache_[region % kWalkCacheSlots];
    if (slot.region == region) {
      slot = WalkCacheEntry{};
      ++walk_cache_stats_.invalidations;
    }
  }
  return leaf->entries[index];
}

IoPageTable::Leaf* IoPageTable::WalkToLeaf(Iova iova, int* levels) const {
  *levels = 0;
  if (!root_) {
    return nullptr;
  }
  *levels = 1;
  const Level2* level2 = root_->children[IndexAt(iova, 3)].get();
  if (level2 == nullptr) {
    return nullptr;
  }
  *levels = 2;
  const Level1* level1 = level2->children[IndexAt(iova, 2)].get();
  if (level1 == nullptr) {
    return nullptr;
  }
  *levels = 3;
  Leaf* leaf = level1->children[IndexAt(iova, 1)].get();
  if (leaf != nullptr) {
    *levels = 4;
  }
  return leaf;
}

std::optional<PteEntry> IoPageTable::Lookup(Iova iova, int* walk_levels) const {
  if (walk_cache_enabled_) {
    const uint64_t region = RegionOf(iova);
    const WalkCacheEntry& slot = walk_cache_[region % kWalkCacheSlots];
    if (slot.region == region) {
      ++walk_cache_stats_.hits;
      if (walk_levels != nullptr) {
        *walk_levels = 1;
      }
      return EntryAt(*slot.leaf, iova);
    }
    ++walk_cache_stats_.misses;
  }
  int levels = 0;
  const Leaf* leaf = WalkToLeaf(iova, &levels);
  if (walk_levels != nullptr) {
    *walk_levels = levels;
  }
  if (leaf == nullptr) {
    return std::nullopt;
  }
  if (walk_cache_enabled_) {
    const uint64_t region = RegionOf(iova);
    walk_cache_[region % kWalkCacheSlots] = WalkCacheEntry{region, leaf};
  }
  return EntryAt(*leaf, iova);
}

std::optional<PteEntry> IoPageTable::PeekTranslation(Iova iova) const {
  int levels = 0;
  const Leaf* leaf = WalkToLeaf(iova, &levels);
  if (leaf == nullptr) {
    return std::nullopt;
  }
  return EntryAt(*leaf, iova);
}

void IoPageTable::InvalidateWalkCache() {
  if (!walk_cache_enabled_) {
    return;
  }
  for (WalkCacheEntry& slot : walk_cache_) {
    if (slot.leaf != nullptr) {
      ++walk_cache_stats_.invalidations;
    }
    slot = WalkCacheEntry{};
  }
}

std::vector<Iova> IoPageTable::FindIovasForPfn(Pfn pfn) const {
  std::vector<Iova> out;
  ForEachMapping([&](Iova iova, const PteEntry& entry) {
    if (entry.pfn == pfn) {
      out.push_back(iova);
    }
  });
  return out;
}

}  // namespace spv::iommu
