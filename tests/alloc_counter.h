// Replaces the global operator new with one that counts calls and bytes, so
// a test can assert that a path allocates nothing, or how much it allocates.
// Include this header in exactly one source file of an executable, and give
// that executable no other suite: every allocation in the process counts.

#ifndef SPV_TESTS_ALLOC_COUNTER_H_
#define SPV_TESTS_ALLOC_COUNTER_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace spv_alloc_counter {

inline uint64_t calls = 0;
inline uint64_t bytes = 0;

// The allocations made since construction.
class Allocations {
 public:
  Allocations() : calls_(calls), bytes_(bytes) {}

  uint64_t calls_since() const { return calls - calls_; }
  uint64_t bytes_since() const { return bytes - bytes_; }

 private:
  uint64_t calls_;
  uint64_t bytes_;
};

}  // namespace spv_alloc_counter

void* operator new(std::size_t size) {
  ++spv_alloc_counter::calls;
  spv_alloc_counter::bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms too, so every block the plain deletes free came from
// malloc (sanitizers check that allocation and release functions match).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++spv_alloc_counter::calls;
  spv_alloc_counter::bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

#endif  // SPV_TESTS_ALLOC_COUNTER_H_
