#include "src/hw/memory.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

namespace flicker {

namespace {
// mmap rejects a zero length; a zero-size memory still maps one byte so
// data_ is only ever null in a moved-from object.
size_t MappedLength(size_t size) { return std::max<size_t>(size, 1); }

size_t PageSize() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

bool Overlaps(uint64_t a, size_t a_len, uint64_t b, size_t b_len) {
  return a < b + b_len && b < a + a_len;
}
}  // namespace

PhysicalMemory::PhysicalMemory(size_t size_bytes) : size_(size_bytes) {
  void* mapped = mmap(nullptr, MappedLength(size_), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) {
    throw std::bad_alloc();
  }
  data_ = static_cast<uint8_t*>(mapped);
}

PhysicalMemory::~PhysicalMemory() { munmap(data_, MappedLength(size_)); }

Result<Bytes> PhysicalMemory::Read(uint64_t addr, size_t len) const {
  if (!InBounds(addr, len)) {
    return InvalidArgumentError("physical read out of bounds");
  }
  CopyInPending(addr, len);
  return Bytes(data_ + addr, data_ + addr + len);
}

Status PhysicalMemory::Write(uint64_t addr, const Bytes& bytes) {
  if (!InBounds(addr, bytes.size())) {
    return InvalidArgumentError("physical write out of bounds");
  }
  CopyInPending(addr, bytes.size());
  std::copy(bytes.begin(), bytes.end(), data_ + addr);
  MarkWatches(addr, bytes.size());
  return Status::Ok();
}

Status PhysicalMemory::Erase(uint64_t addr, size_t len) {
  if (!InBounds(addr, len)) {
    return InvalidArgumentError("physical erase out of bounds");
  }
  DropPendingInside(addr, len);
  CopyInPending(addr, len);
  const auto [first, last] = ReleaseWholePages(addr, len);
  if (first < last) {
    std::memset(data_ + addr, 0, first - addr);
    std::memset(data_ + last, 0, addr + len - last);
  } else {
    std::memset(data_ + addr, 0, len);
  }
  MarkWatches(addr, len);
  return Status::Ok();
}

Status PhysicalMemory::WriteImage(uint64_t addr, const Bytes& image) {
  if (!InBounds(addr, image.size())) {
    return InvalidArgumentError("physical write out of bounds");
  }
  // The image overwrites every whole page under it when it is copied in, so
  // their current content can go now.
  ReleaseWholePages(addr, image.size());
  DropPendingInside(addr, image.size());
  pending_.push_back(PendingImage{addr, &image});
  MarkWatches(addr, image.size());
  return Status::Ok();
}

void PhysicalMemory::DropPendingInside(uint64_t addr, size_t len) {
  // Whatever overwrites a pending image whole leaves none of its bytes, so
  // dropping it is exact whatever else is pending.
  std::erase_if(pending_, [&](const PendingImage& p) {
    return addr <= p.addr && p.addr + p.image->size() <= addr + len;
  });
}

void PhysicalMemory::CopyInPending(uint64_t addr, size_t len) const {
  if (std::none_of(pending_.begin(), pending_.end(), [&](const PendingImage& p) {
        return Overlaps(addr, len, p.addr, p.image->size());
      })) {
    return;
  }
  for (const PendingImage& p : pending_) {
    std::copy(p.image->begin(), p.image->end(), data_ + p.addr);
  }
  pending_.clear();
}

std::pair<uint64_t, uint64_t> PhysicalMemory::ReleaseWholePages(uint64_t addr, size_t len) {
  // data_ is page-aligned, so simulated and host page boundaries agree.
  const size_t page = PageSize();
  const uint64_t first = (addr + page - 1) / page * page;
  const uint64_t last = (addr + len) / page * page;
  if (first < last) {
    // The mapping is anonymous and private, so released pages read as zeros.
    madvise(data_ + first, last - first, MADV_DONTNEED);
  }
  return {first, last};
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
    if (Overlaps(addr, len, w.base, w.len)) {
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
