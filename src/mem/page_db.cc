#include "mem/page_db.h"

namespace spv::mem {

uint64_t PageDb::CountOwned(PageOwner owner) const {
  // Runs every epoch (the page-accounting invariant), so it is written to
  // vectorize even at -O2: each full block has a constant trip count that is
  // a multiple of the 16-byte vector width, and sums its byte compares into
  // a uint8_t that cannot overflow; only the block totals widen.
  constexpr size_t kBlock = 240;
  const PageOwner* owners = owners_.data();
  const size_t size = owners_.size();
  const size_t full = size - size % kBlock;
  uint64_t count = 0;
  for (size_t begin = 0; begin < full; begin += kBlock) {
    uint8_t block = 0;
    for (size_t i = 0; i < kBlock; ++i) {
      block += owners[begin + i] == owner ? 1 : 0;
    }
    count += block;
  }
  for (size_t i = full; i < size; ++i) {
    count += owners[i] == owner ? 1 : 0;
  }
  return count;
}

}  // namespace spv::mem
