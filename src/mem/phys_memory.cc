#include "mem/phys_memory.h"

#include <cassert>
#include <new>

namespace spv::mem {

PhysicalMemory::PhysicalMemory(uint64_t num_pages)
    : num_pages_(num_pages),
      bytes_(static_cast<uint8_t*>(std::calloc(num_pages << kPageShift, 1))) {
  if (bytes_ == nullptr && num_pages != 0) {
    throw std::bad_alloc();
  }
}

Status PhysicalMemory::Read(PhysAddr addr, std::span<uint8_t> out) const {
  if (!Contains(addr, out.size())) {
    return OutOfRange("phys read beyond end of memory");
  }
  std::memcpy(out.data(), bytes_.get() + addr.value, out.size());
  return OkStatus();
}

Status PhysicalMemory::Write(PhysAddr addr, std::span<const uint8_t> data) {
  if (!Contains(addr, data.size())) {
    return OutOfRange("phys write beyond end of memory");
  }
  std::memcpy(bytes_.get() + addr.value, data.data(), data.size());
  return OkStatus();
}

template <typename T>
static Result<T> ReadScalar(const PhysicalMemory& pm, PhysAddr addr) {
  if (!pm.Contains(addr, sizeof(T))) {
    return OutOfRange("phys scalar read beyond end of memory");
  }
  T value;
  uint8_t buf[sizeof(T)];
  Status s = pm.Read(addr, std::span<uint8_t>(buf, sizeof(T)));
  if (!s.ok()) {
    return s;
  }
  std::memcpy(&value, buf, sizeof(T));
  return value;
}

Result<uint64_t> PhysicalMemory::ReadU64(PhysAddr addr) const {
  return ReadScalar<uint64_t>(*this, addr);
}
Result<uint32_t> PhysicalMemory::ReadU32(PhysAddr addr) const {
  return ReadScalar<uint32_t>(*this, addr);
}
Result<uint16_t> PhysicalMemory::ReadU16(PhysAddr addr) const {
  return ReadScalar<uint16_t>(*this, addr);
}
Result<uint8_t> PhysicalMemory::ReadU8(PhysAddr addr) const {
  return ReadScalar<uint8_t>(*this, addr);
}

template <typename T>
static Status WriteScalar(PhysicalMemory& pm, PhysAddr addr, T value) {
  uint8_t buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  return pm.Write(addr, std::span<const uint8_t>(buf, sizeof(T)));
}

Status PhysicalMemory::WriteU64(PhysAddr addr, uint64_t value) {
  return WriteScalar(*this, addr, value);
}
Status PhysicalMemory::WriteU32(PhysAddr addr, uint32_t value) {
  return WriteScalar(*this, addr, value);
}
Status PhysicalMemory::WriteU16(PhysAddr addr, uint16_t value) {
  return WriteScalar(*this, addr, value);
}
Status PhysicalMemory::WriteU8(PhysAddr addr, uint8_t value) {
  return WriteScalar(*this, addr, value);
}

Status PhysicalMemory::Fill(PhysAddr addr, uint64_t len, uint8_t byte) {
  if (!Contains(addr, len)) {
    return OutOfRange("phys fill beyond end of memory");
  }
  std::memset(bytes_.get() + addr.value, byte, len);
  return OkStatus();
}

std::span<uint8_t> PhysicalMemory::PageSpan(Pfn pfn) {
  assert(pfn.value < num_pages_);
  return std::span<uint8_t>(bytes_.get() + (pfn.value << kPageShift), kPageSize);
}

std::span<const uint8_t> PhysicalMemory::PageSpan(Pfn pfn) const {
  assert(pfn.value < num_pages_);
  return std::span<const uint8_t>(bytes_.get() + (pfn.value << kPageShift), kPageSize);
}

}  // namespace spv::mem
