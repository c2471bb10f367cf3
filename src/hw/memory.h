// Physical memory and the Device Exclusion Vector (DEV).
//
// The DEV is the SVM mechanism SKINIT programs to block DMA-capable devices
// from the Secure Loader Block's pages (paper §2.4). Here it is a list of
// protected physical ranges every simulated DMA transaction is checked
// against.

#ifndef FLICKER_SRC_HW_MEMORY_H_
#define FLICKER_SRC_HW_MEMORY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace flicker {

// Keeps resident only the pages whose content the simulator cannot
// regenerate. Backed by an anonymous private mapping, so memory reads as zero
// from the start and a page costs host RAM only once something writes it.
// Two calls hand pages back: Erase releases the whole pages it covers (the
// mapping reads them back as zeros), and WriteImage defers the copy of an
// immutable image until an access overlaps it, releasing the whole pages
// under it meanwhile. Everything seen through Read, Write, Erase and the
// dirty watches is as if WriteImage had copied at once.
//
// Not thread-safe, Read included (it may copy deferred images in): a
// PhysicalMemory belongs to one machine on one thread at a time.
class PhysicalMemory {
 public:
  explicit PhysicalMemory(size_t size_bytes);
  ~PhysicalMemory();
  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  size_t size() const { return size_; }

  Result<Bytes> Read(uint64_t addr, size_t len) const;
  Status Write(uint64_t addr, const Bytes& bytes);
  // Zero-fill, used by the SLB core cleanup phase to erase PAL secrets.
  Status Erase(uint64_t addr, size_t len);
  // Writes `image`'s bytes at `addr`, copying them in only when a Read,
  // Write or Erase first overlaps a pending image. `image` is not copied:
  // its bytes must stay unchanged for the life of this memory.
  Status WriteImage(uint64_t addr, const Bytes& image);

  bool InBounds(uint64_t addr, size_t len) const {
    return addr <= size_ && len <= size_ - addr;
  }

  // Host address of simulated byte `addr`: mincore on it tells whether the
  // page costs host RAM.
  const void* host_address(uint64_t addr) const { return data_ + addr; }

  // ---- Dirty watches ----
  //
  // A watch covers [base, base+len); every Write, Erase or WriteImage
  // overlapping it sets its dirty flag (a deferred copy-in does not: the
  // content it lands was already there in the watch's view). The SLB
  // measurement cache keys its entries on these, so a cached digest can
  // never outlive a memory mutation.
  int RegisterWatch(uint64_t base, size_t len);
  bool IsWatchDirty(int id) const;
  void ClearWatchDirty(int id);

 private:
  struct Watch {
    uint64_t base;
    size_t len;
    bool dirty;
  };
  // A WriteImage not yet copied in.
  struct PendingImage {
    uint64_t addr;
    const Bytes* image;
  };

  void MarkWatches(uint64_t addr, size_t len);
  // Copies every pending image in, in registration order, when [addr,
  // addr+len) overlaps any of them. Marks no watch: the content is what
  // WriteImage already reported.
  void CopyInPending(uint64_t addr, size_t len) const;
  // Forgets the pending images that lie wholly inside [addr, addr+len),
  // which the caller is about to overwrite.
  void DropPendingInside(uint64_t addr, size_t len);
  // Hands the whole pages inside [addr, addr+len) back to the host and
  // returns them as [first, last); first >= last when none fits.
  std::pair<uint64_t, uint64_t> ReleaseWholePages(uint64_t addr, size_t len);

  uint8_t* data_;  // mmap'd for the object's whole life.
  size_t size_ = 0;
  std::vector<Watch> watches_;
  // Images written but not yet copied in, in registration order: at most
  // one per kernel region, since a newer image drops any it covers, and
  // emptied by the first overlapping access. Mutable because Read copies in.
  mutable std::vector<PendingImage> pending_;
};

// How a measurement was produced, so callers can charge the right simulated
// cost: a full hash, a memcmp against the cached snapshot, or nothing.
enum class MeasureOutcome {
  kHashed,
  kVerifiedHit,
  kCleanHit,
};

// Hook the chipset/SLB-core measurement paths call instead of hashing
// directly. Implemented by the SLB measurement cache (src/slb); a null
// engine means "hash every time".
class MeasurementEngine {
 public:
  virtual ~MeasurementEngine() = default;

  // SHA-1 of memory [base, base+len), possibly served from cache. `outcome`
  // may be null.
  virtual Result<Bytes> Measure(PhysicalMemory* memory, uint64_t base, size_t len,
                                MeasureOutcome* outcome) = 0;
};

// Nested-page-protection hook: when a core runs in guest mode under the
// minimal hypervisor, every memory access the OS model issues through
// Machine::GuestRead/GuestWrite is checked against this guard. Implemented
// by the hypervisor (src/hv); a null guard means "identity-mapped, nothing
// faults" - exactly the pre-hypervisor machine.
class GuestAccessGuard {
 public:
  virtual ~GuestAccessGuard() = default;

  // True when the guest access [addr, addr+len) from `core` must take a
  // nested page fault (i.e. it touches hypervisor- or PAL-owned frames).
  virtual bool FaultsGuestAccess(int core, uint64_t addr, size_t len, bool is_write) = 0;
};

class DeviceExclusionVector {
 public:
  // Marks [base, base+len) as DMA-protected.
  void Protect(uint64_t base, size_t len);
  // Removes protection for ranges exactly matching a prior Protect call.
  void Unprotect(uint64_t base, size_t len);
  void Clear();

  // True when [addr, addr+len) overlaps any protected range.
  bool Blocks(uint64_t addr, size_t len) const;

 private:
  struct Range {
    uint64_t base;
    size_t len;
  };
  std::vector<Range> ranges_;
};

}  // namespace flicker

#endif  // FLICKER_SRC_HW_MEMORY_H_
