// Physical memory and the Device Exclusion Vector (DEV).
//
// The DEV is the SVM mechanism SKINIT programs to block DMA-capable devices
// from the Secure Loader Block's pages (paper §2.4). Here it is a list of
// protected physical ranges every simulated DMA transaction is checked
// against.

#ifndef FLICKER_SRC_HW_MEMORY_H_
#define FLICKER_SRC_HW_MEMORY_H_

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace flicker {

// Backed by an anonymous private mapping, so memory reads as zero from the
// start and a page costs host RAM only once something writes it: a machine
// that touches a few hundred KB of its image never pays for the rest.
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

  bool InBounds(uint64_t addr, size_t len) const {
    return addr <= size_ && len <= size_ - addr;
  }

  // ---- Dirty watches ----
  //
  // A watch covers [base, base+len); every Write or Erase overlapping it
  // sets its dirty flag. The SLB measurement cache keys its entries on
  // these, so a cached digest can never outlive a memory mutation.
  int RegisterWatch(uint64_t base, size_t len);
  bool IsWatchDirty(int id) const;
  void ClearWatchDirty(int id);

 private:
  struct Watch {
    uint64_t base;
    size_t len;
    bool dirty;
  };

  void MarkWatches(uint64_t addr, size_t len);

  uint8_t* data_;  // mmap'd for the object's whole life.
  size_t size_ = 0;
  std::vector<Watch> watches_;
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

  size_t protected_range_count() const { return ranges_.size(); }

 private:
  struct Range {
    uint64_t base;
    size_t len;
  };
  std::vector<Range> ranges_;
};

}  // namespace flicker

#endif  // FLICKER_SRC_HW_MEMORY_H_
