// IOTLB: translation cache keyed by (device, IOVA page).
//
// The IOMMU does not keep the IOTLB coherent with the page tables (§5.2.1);
// the OS must invalidate explicitly. A stale entry after a deferred unmap is
// the paper's Figure-6 time window. LRU replacement; bounded capacity.

#ifndef SPV_IOMMU_IOTLB_H_
#define SPV_IOMMU_IOTLB_H_

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/stat_counter.h"
#include "base/types.h"
#include "iommu/access_rights.h"
#include "iommu/io_page_table.h"
#include "telemetry/telemetry.h"

namespace spv::iommu {

class Iotlb {
 public:
  explicit Iotlb(size_t capacity = 256) : capacity_(capacity) {}

  // Links the hit/miss/insert/eviction/invalidation tallies into `hub`
  // (pass nullptr to detach). The lookup path only bumps its own tallies.
  void set_telemetry(telemetry::Hub* hub);

  std::optional<PteEntry> Lookup(DeviceId device, Iova iova_page);
  void Insert(DeviceId device, Iova iova_page, PteEntry entry);

  // Targeted invalidation of `pages` pages from `base`: one page-selective
  // command, counted once however many pages it covers (strict mode issues
  // one per unmapped range; a single page is a range of one).
  void InvalidateRange(DeviceId device, Iova base, uint64_t pages);
  // Device-scope invalidation.
  void InvalidateDevice(DeviceId device);
  // Global invalidation (deferred mode periodic flush).
  void InvalidateAll();

  size_t size() const { return map_.size(); }

  // Visits every cached translation as (domain id, iova page base, entry).
  // Unordered; for audits (Machine::CheckInvariants), not the lookup path.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const auto& [key, slot] : map_) {
      fn(DeviceId{key.device}, Iova{key.iova_page}, slot.entry);
    }
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t invalidations() const { return invalidations_; }

 private:
  struct Key {
    uint32_t device;
    uint64_t iova_page;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>{}(k.iova_page * 0x9e3779b97f4a7c15ULL ^ k.device);
    }
  };
  struct Slot {
    PteEntry entry;
    std::list<Key>::iterator lru_it;
  };

  void Touch(const Key& key, Slot& slot);

  size_t capacity_;
  std::unordered_map<Key, Slot, KeyHash> map_;
  std::list<Key> lru_;  // front = most recent
  StatCounter hits_;
  StatCounter misses_;
  StatCounter invalidations_;
  StatCounter inserts_;    // read through the hub (iotlb.inserts)
  StatCounter evictions_;  // read through the hub (iotlb.evictions)
  std::vector<telemetry::CounterLink> links_;  // after the tallies it reads
};

}  // namespace spv::iommu

#endif  // SPV_IOMMU_IOTLB_H_
