// IOMMU page access rights (§2.2).
//
// An IOVA mapping grants READ, WRITE, or BIDIRECTIONAL access. Note the
// asymmetry the paper calls out: WRITE does *not* imply READ — a device with
// WRITE access to a page cannot observe its contents, which is why attacks
// like Poisoned TX (§5.4) need a separate READ-mapped path to leak pointers.

#ifndef SPV_IOMMU_ACCESS_RIGHTS_H_
#define SPV_IOMMU_ACCESS_RIGHTS_H_

#include <cstdint>
#include <string>

namespace spv::iommu {

enum class AccessRights : uint8_t {
  kNone = 0,
  kRead = 1,
  kWrite = 2,
  kBidirectional = 3,  // kRead | kWrite
};

enum class AccessOp : uint8_t { kRead, kWrite };

constexpr AccessRights operator|(AccessRights a, AccessRights b) {
  return static_cast<AccessRights>(static_cast<uint8_t>(a) | static_cast<uint8_t>(b));
}

constexpr bool Permits(AccessRights rights, AccessOp op) {
  const uint8_t bits = static_cast<uint8_t>(rights);
  return op == AccessOp::kRead ? (bits & 1u) != 0 : (bits & 2u) != 0;
}

inline std::string AccessRightsName(AccessRights rights) {
  switch (rights) {
    case AccessRights::kNone:
      return "NONE";
    case AccessRights::kRead:
      return "READ";
    case AccessRights::kWrite:
      return "WRITE";
    case AccessRights::kBidirectional:
      return "READ, WRITE";
  }
  return "?";
}

}  // namespace spv::iommu

#endif  // SPV_IOMMU_ACCESS_RIGHTS_H_
