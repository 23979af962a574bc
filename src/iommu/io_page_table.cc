#include "iommu/io_page_table.h"

#include <mutex>

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
  std::lock_guard<MaybeMutex> guard(mu_);
  if (!root_) {
    root_ = std::make_unique<Node>();
  }
  Node* node = root_.get();
  for (int level = kLevels - 1; level >= 1; --level) {
    const uint64_t index = IndexAt(iova, level);
    if (!node->children[index]) {
      node->children[index] = std::make_unique<Node>();
      node->SetPresent(index);
    }
    node = node->children[index].get();
  }
  const uint64_t index = IndexAt(iova, 0);
  if (node->entries[index].has_value()) {
    return AlreadyExists("IOVA page already mapped");
  }
  node->entries[index] = PteEntry{pfn, rights};
  node->SetPresent(index);
  ++mapped_pages_;
  return OkStatus();
}

Result<PteEntry> IoPageTable::Unmap(Iova iova) {
  std::lock_guard<MaybeMutex> guard(mu_);
  if (!root_) {
    return NotFound("IOVA page not mapped");
  }
  Node* node = root_.get();
  for (int level = kLevels - 1; level >= 1; --level) {
    const uint64_t index = IndexAt(iova, level);
    if (!node->children[index]) {
      return NotFound("IOVA page not mapped");
    }
    node = node->children[index].get();
  }
  const uint64_t index = IndexAt(iova, 0);
  if (!node->entries[index].has_value()) {
    return NotFound("IOVA page not mapped");
  }
  PteEntry entry = *node->entries[index];
  node->entries[index].reset();
  node->ClearPresent(index);
  --mapped_pages_;
  if (walk_cache_enabled_) {
    const uint64_t region = RegionOf(iova);
    WalkCacheEntry& slot = walk_cache_[region % kWalkCacheSlots];
    if (slot.region == region) {
      slot = WalkCacheEntry{};
      ++walk_cache_stats_.invalidations;
    }
  }
  return entry;
}

const IoPageTable::Node* IoPageTable::WalkToLeaf(Iova iova, int* levels) const {
  *levels = 0;
  if (!root_) {
    return nullptr;
  }
  const Node* node = root_.get();
  for (int level = kLevels - 1; level >= 1; --level) {
    ++*levels;
    const uint64_t index = IndexAt(iova, level);
    if (!node->children[index]) {
      return nullptr;
    }
    node = node->children[index].get();
  }
  ++*levels;
  return node;
}

std::optional<PteEntry> IoPageTable::Lookup(Iova iova, int* walk_levels) const {
  std::lock_guard<MaybeMutex> guard(mu_);
  if (walk_cache_enabled_) {
    const uint64_t region = RegionOf(iova);
    const WalkCacheEntry& slot = walk_cache_[region % kWalkCacheSlots];
    if (slot.region == region) {
      ++walk_cache_stats_.hits;
      if (walk_levels != nullptr) {
        *walk_levels = 1;
      }
      return slot.leaf->entries[IndexAt(iova, 0)];
    }
    ++walk_cache_stats_.misses;
  }
  int levels = 0;
  const Node* leaf = WalkToLeaf(iova, &levels);
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
  return leaf->entries[IndexAt(iova, 0)];
}

std::optional<PteEntry> IoPageTable::PeekTranslation(Iova iova) const {
  std::lock_guard<MaybeMutex> guard(mu_);
  int levels = 0;
  const Node* leaf = WalkToLeaf(iova, &levels);
  if (leaf == nullptr) {
    return std::nullopt;
  }
  return leaf->entries[IndexAt(iova, 0)];
}

void IoPageTable::InvalidateWalkCache() {
  if (!walk_cache_enabled_) {
    return;
  }
  std::lock_guard<MaybeMutex> guard(mu_);
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
