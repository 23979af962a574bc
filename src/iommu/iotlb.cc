#include "iommu/iotlb.h"

namespace spv::iommu {

void Iotlb::set_telemetry(telemetry::Hub* hub) {
  links_.clear();
  if (hub == nullptr) {
    return;
  }
  links_.push_back(hub->Link("iotlb.hits", hits_));
  links_.push_back(hub->Link("iotlb.misses", misses_));
  links_.push_back(hub->Link("iotlb.inserts", inserts_));
  links_.push_back(hub->Link("iotlb.evictions", evictions_));
  links_.push_back(hub->Link("iotlb.invalidations", invalidations_));
}

std::optional<PteEntry> Iotlb::Lookup(DeviceId device, Iova iova_page) {
  const Key key{device.value, iova_page.PageBase().value};
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  Touch(key, it->second);
  return it->second.entry;
}

void Iotlb::Insert(DeviceId device, Iova iova_page, PteEntry entry) {
  const Key key{device.value, iova_page.PageBase().value};
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second.entry = entry;
    Touch(key, it->second);
    return;
  }
  if (map_.size() >= capacity_) {
    const Key victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    ++evictions_;
  }
  lru_.push_front(key);
  map_.emplace(key, Slot{entry, lru_.begin()});
  ++inserts_;
}

void Iotlb::InvalidateRange(DeviceId device, Iova base, uint64_t pages) {
  for (uint64_t i = 0; i < pages; ++i) {
    auto it = map_.find(Key{device.value, (base.PageBase() + (i << kPageShift)).value});
    if (it != map_.end()) {
      lru_.erase(it->second.lru_it);
      map_.erase(it);
    }
  }
  ++invalidations_;
}

void Iotlb::InvalidateDevice(DeviceId device) {
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.device == device.value) {
      lru_.erase(it->second.lru_it);
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
  ++invalidations_;
}

void Iotlb::InvalidateAll() {
  map_.clear();
  lru_.clear();
  ++invalidations_;
}

void Iotlb::Touch(const Key& key, Slot& slot) {
  lru_.erase(slot.lru_it);
  lru_.push_front(key);
  slot.lru_it = lru_.begin();
}

}  // namespace spv::iommu
