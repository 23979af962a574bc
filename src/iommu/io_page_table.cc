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
    }
    node = node->children[index].get();
  }
  const uint64_t index = IndexAt(iova, 0);
  if (node->entries[index].has_value()) {
    return AlreadyExists("IOVA page already mapped");
  }
  node->entries[index] = PteEntry{pfn, rights};
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
  std::lock_guard<MaybeMutex> guard(mu_);
  std::vector<Iova> out;
  if (root_) {
    Collect(*root_, kLevels - 1, 0, pfn, out);
  }
  return out;
}

std::vector<std::pair<Iova, PteEntry>> IoPageTable::AllMappings() const {
  std::lock_guard<MaybeMutex> guard(mu_);
  std::vector<std::pair<Iova, PteEntry>> out;
  if (!root_) {
    return out;
  }
  // Depth-first over present children yields ascending IOVA order.
  struct Frame {
    const Node* node;
    int level;
    uint64_t prefix;
  };
  std::vector<Frame> stack{{root_.get(), kLevels - 1, 0}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.level == 0) {
      for (uint64_t i = 0; i < kEntriesPerNode; ++i) {
        if (frame.node->entries[i].has_value()) {
          out.emplace_back(Iova{(frame.prefix | i) << kPageShift}, *frame.node->entries[i]);
        }
      }
      continue;
    }
    // Push in reverse so the lowest child is processed first.
    for (uint64_t i = kEntriesPerNode; i > 0; --i) {
      const uint64_t index = i - 1;
      if (frame.node->children[index]) {
        stack.push_back(Frame{frame.node->children[index].get(), frame.level - 1,
                              (frame.prefix | index) << kBitsPerLevel});
      }
    }
  }
  return out;
}

void IoPageTable::Collect(const Node& node, int level, uint64_t prefix, Pfn pfn,
                          std::vector<Iova>& out) const {
  if (level == 0) {
    for (uint64_t i = 0; i < kEntriesPerNode; ++i) {
      if (node.entries[i].has_value() && node.entries[i]->pfn == pfn) {
        out.push_back(Iova{(prefix | i) << kPageShift});
      }
    }
    return;
  }
  for (uint64_t i = 0; i < kEntriesPerNode; ++i) {
    if (node.children[i]) {
      Collect(*node.children[i], level - 1, (prefix | i) << kBitsPerLevel, pfn, out);
    }
  }
}

}  // namespace spv::iommu
