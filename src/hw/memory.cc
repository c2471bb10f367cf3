#include "src/hw/memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

namespace flicker {

namespace {
// mmap rejects a zero length; a zero-size memory still maps one byte so
// data_ is only ever null in a moved-from object.
size_t MappedLength(size_t size) { return std::max<size_t>(size, 1); }
}  // namespace

PhysicalMemory::PhysicalMemory(size_t size_bytes) : size_(size_bytes) {
  void* mapped = mmap(nullptr, MappedLength(size_), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) {
    throw std::bad_alloc();
  }
  data_ = static_cast<uint8_t*>(mapped);
}

PhysicalMemory::~PhysicalMemory() {
  if (data_ != nullptr) {
    munmap(data_, MappedLength(size_));
  }
}

PhysicalMemory::PhysicalMemory(PhysicalMemory&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      watches_(std::move(other.watches_)) {}

PhysicalMemory& PhysicalMemory::operator=(PhysicalMemory&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      munmap(data_, MappedLength(size_));
    }
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    watches_ = std::move(other.watches_);
  }
  return *this;
}

Result<Bytes> PhysicalMemory::Read(uint64_t addr, size_t len) const {
  if (!InBounds(addr, len)) {
    return InvalidArgumentError("physical read out of bounds");
  }
  return Bytes(data_ + addr, data_ + addr + len);
}

Status PhysicalMemory::Write(uint64_t addr, const Bytes& bytes) {
  if (!InBounds(addr, bytes.size())) {
    return InvalidArgumentError("physical write out of bounds");
  }
  std::copy(bytes.begin(), bytes.end(), data_ + addr);
  MarkWatches(addr, bytes.size());
  return Status::Ok();
}

Status PhysicalMemory::Erase(uint64_t addr, size_t len) {
  if (!InBounds(addr, len)) {
    return InvalidArgumentError("physical erase out of bounds");
  }
  std::memset(data_ + addr, 0, len);
  MarkWatches(addr, len);
  return Status::Ok();
}

int PhysicalMemory::RegisterWatch(uint64_t base, size_t len) {
  watches_.push_back(Watch{base, len, false});
  return static_cast<int>(watches_.size()) - 1;
}

bool PhysicalMemory::IsWatchDirty(int id) const {
  return watches_[static_cast<size_t>(id)].dirty;
}

void PhysicalMemory::ClearWatchDirty(int id) {
  watches_[static_cast<size_t>(id)].dirty = false;
}

void PhysicalMemory::MarkWatches(uint64_t addr, size_t len) {
  for (Watch& w : watches_) {
    if (addr < w.base + w.len && w.base < addr + len) {
      w.dirty = true;
    }
  }
}

void DeviceExclusionVector::Protect(uint64_t base, size_t len) {
  ranges_.push_back(Range{base, len});
}

void DeviceExclusionVector::Unprotect(uint64_t base, size_t len) {
  for (auto it = ranges_.begin(); it != ranges_.end(); ++it) {
    if (it->base == base && it->len == len) {
      ranges_.erase(it);
      return;
    }
  }
}

void DeviceExclusionVector::Clear() {
  ranges_.clear();
}

bool DeviceExclusionVector::Blocks(uint64_t addr, size_t len) const {
  for (const Range& r : ranges_) {
    if (addr < r.base + r.len && r.base < addr + len) {
      return true;
    }
  }
  return false;
}

}  // namespace flicker
