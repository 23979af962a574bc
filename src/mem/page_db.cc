#include "mem/page_db.h"

namespace spv::mem {

uint64_t PageDb::CountOwned(PageOwner owner) const {
  uint64_t count = 0;
  for (const auto& meta : pages_) {
    if (meta.owner == owner) {
      ++count;
    }
  }
  return count;
}

}  // namespace spv::mem
