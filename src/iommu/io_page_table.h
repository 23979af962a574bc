// Four-level I/O page table (VT-d second-level translation style).
//
// A genuine radix table rather than a flat map: the page-walk cost model and
// the "one PTE per 4 KiB page" granularity — the root cause of sub-page
// vulnerabilities — fall out of the structure itself.

#ifndef SPV_IOMMU_IO_PAGE_TABLE_H_
#define SPV_IOMMU_IO_PAGE_TABLE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "base/stat_counter.h"
#include "base/status.h"
#include "base/types.h"
#include "iommu/access_rights.h"
#include "telemetry/telemetry.h"

namespace spv::iommu {

struct PteEntry {
  Pfn pfn;
  AccessRights rights = AccessRights::kNone;
};

class IoPageTable {
 public:
  static constexpr int kLevels = 4;
  static constexpr int kBitsPerLevel = 9;
  static constexpr uint64_t kEntriesPerNode = uint64_t{1} << kBitsPerLevel;  // 512

  // Direct-mapped last-level walk cache: tags a 2 MiB region (one leaf node)
  // per slot, so repeated translations of hot regions touch one level.
  static constexpr size_t kWalkCacheSlots = 64;

  struct WalkCacheStats {
    StatCounter hits;
    StatCounter misses;
    StatCounter invalidations;
  };

  explicit IoPageTable(bool walk_cache_enabled = true)
      : walk_cache_enabled_(walk_cache_enabled) {}

  // Installs a translation for the 4 KiB page containing `iova`. Fails if a
  // translation is already present (the DMA layer never remaps silently).
  Status Map(Iova iova, Pfn pfn, AccessRights rights);

  // Removes the translation; returns the entry that was present. The walk
  // cache entry covering `iova` is dropped, like hardware invalidating its
  // intermediate-structure caches on IOTLB invalidation — a *stale
  // translation* can only ever come from the IOTLB, never from here.
  Result<PteEntry> Unmap(Iova iova);

  // Page walk. Returns nullopt when not-present. `walk_levels` (if given)
  // receives the number of levels touched, for cycle accounting; a walk-cache
  // hit reports a single level.
  std::optional<PteEntry> Lookup(Iova iova, int* walk_levels = nullptr) const;

  // Walk without side effects: no walk-cache fill, no stats. For
  // ground-truth analyses (Iommu::Peek), not the translation path.
  std::optional<PteEntry> PeekTranslation(Iova iova) const;

  // Drops every walk cache entry (global IOTLB flush side effect).
  void InvalidateWalkCache();

  uint64_t mapped_pages() const { return mapped_pages_; }
  const WalkCacheStats& walk_cache_stats() const { return walk_cache_stats_; }

  // Links the walk-cache hit/miss tallies into `hub` (nullptr detaches).
  void set_telemetry(telemetry::Hub* hub);

  // All currently mapped IOVA pages translating to `pfn` (type (c) probe).
  std::vector<Iova> FindIovasForPfn(Pfn pfn) const;

  // Calls fn(iova page, entry) for every translation currently mapped, in
  // ascending IOVA order. The occupancy bitmaps steer the walk to present
  // slots only, so it costs in proportion to the mapped pages, not to the
  // 512 slots of every node. For audits and probes, not the translation path.
  template <typename Fn>
  void ForEachMapping(Fn&& fn) const {
    if (root_) {
      Visit(*root_, 0, fn);
    }
  }

 private:
  // One bit per slot of a node: set iff the slot holds a child or an entry.
  struct Bitmap {
    std::array<uint64_t, kEntriesPerNode / 64> words{};

    void Set(uint64_t index) { words[index / 64] |= uint64_t{1} << (index % 64); }
    void Clear(uint64_t index) { words[index / 64] &= ~(uint64_t{1} << (index % 64)); }
    bool Test(uint64_t index) const { return (words[index / 64] >> (index % 64)) & 1; }
  };

  // Each node has one role. A leaf (level 0) holds 512 PTE slots, and a slot
  // translates iff its bit is set; an interior node (levels 3..1) holds 512
  // child pointers.
  struct Leaf {
    std::array<PteEntry, kEntriesPerNode> entries{};
    Bitmap present;
  };
  template <typename Child>
  struct Interior {
    std::array<std::unique_ptr<Child>, kEntriesPerNode> children;
    Bitmap present;
  };
  using Level1 = Interior<Leaf>;
  using Level2 = Interior<Level1>;
  using Root = Interior<Level2>;  // level kLevels - 1

  static uint64_t IndexAt(Iova iova, int level) {
    return (iova.value >> (kPageShift + kBitsPerLevel * level)) & (kEntriesPerNode - 1);
  }

  // Calls fn(index) for every set bit of `present`, lowest index first.
  template <typename Fn>
  static void ForEachPresent(const Bitmap& present, Fn&& fn) {
    for (uint64_t word = 0; word < present.words.size(); ++word) {
      for (uint64_t bits = present.words[word]; bits != 0; bits &= bits - 1) {
        fn(word * 64 + static_cast<uint64_t>(std::countr_zero(bits)));
      }
    }
  }

  // Depth-first over the present slots, lowest index first, which yields
  // ascending IOVA order. `prefix` holds the index bits above the node.
  template <typename Fn>
  static void Visit(const Leaf& leaf, uint64_t prefix, Fn& fn) {
    ForEachPresent(leaf.present, [&](uint64_t index) {
      fn(Iova{(prefix | index) << kPageShift}, leaf.entries[index]);
    });
  }
  template <typename Child, typename Fn>
  static void Visit(const Interior<Child>& node, uint64_t prefix, Fn& fn) {
    ForEachPresent(node.present, [&](uint64_t index) {
      Visit(*node.children[index], (prefix | index) << kBitsPerLevel, fn);
    });
  }

  // The child at `index`, created (and marked present) if missing.
  template <typename Child>
  static Child& ChildFor(Interior<Child>& node, uint64_t index) {
    std::unique_ptr<Child>& child = node.children[index];
    if (!child) {
      child = std::make_unique<Child>();
      node.present.Set(index);
    }
    return *child;
  }

  // 2 MiB region number of `iova` (the span one leaf node covers).
  static uint64_t RegionOf(Iova iova) {
    return iova.value >> (kPageShift + kBitsPerLevel);
  }

  // Walks to the leaf covering `iova` without touching the cache; returns
  // nullptr when an intermediate node is missing. `levels` counts the nodes
  // visited. The leaf is mutable so that Unmap can clear through it.
  Leaf* WalkToLeaf(Iova iova, int* levels) const;

  // The translation in `leaf`'s slot for `iova`, if its bit is set.
  static std::optional<PteEntry> EntryAt(const Leaf& leaf, Iova iova) {
    const uint64_t index = IndexAt(iova, 0);
    return leaf.present.Test(index) ? std::optional<PteEntry>(leaf.entries[index])
                                    : std::nullopt;
  }

  struct WalkCacheEntry {
    uint64_t region = UINT64_MAX;
    const Leaf* leaf = nullptr;
  };

  std::unique_ptr<Root> root_;
  StatCounter mapped_pages_;
  bool walk_cache_enabled_;
  // Leaf nodes are never destroyed while the table lives (Unmap only clears
  // entries), so a cached pointer can never dangle; invalidation models the
  // hardware behaviour rather than guarding memory safety.
  mutable std::array<WalkCacheEntry, kWalkCacheSlots> walk_cache_{};
  mutable WalkCacheStats walk_cache_stats_;
  std::vector<telemetry::CounterLink> links_;  // after the tallies it reads
};

}  // namespace spv::iommu

#endif  // SPV_IOMMU_IO_PAGE_TABLE_H_
