// DMA-capable device models.
//
// Two roles from the paper:
//   * the adversarial role (§3.1): a compromised expansion card issuing DMA
//     at arbitrary physical addresses - the DEV must stop it touching the
//     SLB during a session;
//   * the availability role (§7.5): block-device transfers continuing while
//     the OS is suspended; descriptor rings absorb the gap and no data is
//     lost, only delayed.

#ifndef FLICKER_SRC_OS_DEVICES_H_
#define FLICKER_SRC_OS_DEVICES_H_

#include <functional>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/hw/machine.h"

namespace flicker {

// A DMA-capable NIC (or any PCI bus master). All accesses go through the
// machine's DMA port and are subject to the DEV.
class DmaDevice {
 public:
  DmaDevice(Machine* machine, std::string name) : machine_(machine), name_(std::move(name)) {}

  Status WriteTo(uint64_t addr, const Bytes& payload) { return machine_->DmaWrite(addr, payload); }
  Result<Bytes> ReadFrom(uint64_t addr, size_t len) { return machine_->DmaRead(addr, len); }

  const std::string& name() const { return name_; }

 private:
  Machine* machine_;
  std::string name_;
};

// Parameters for the §7.5 experiment: a bulk copy running while Flicker
// sessions repeatedly suspend the OS.
struct BlockCopyParams {
  uint64_t total_bytes = 1ULL << 30;      // 1 GB file, as in the paper.
  double device_mb_per_s = 30.0;          // CD-ROM/USB-era throughput.
  // Session pattern: `session_ms` of suspended OS, then `os_window_ms` of
  // normal operation, repeating (paper: 8.3 s sessions, 37 ms windows).
  double session_ms = 8300.0;
  double os_window_ms = 37.0;
  // Flicker-aware driver support (§7.5 discussion): the OS quiesces the
  // device before each session, so the device idles cleanly instead of
  // filling its ring and asserting flow control mid-transfer. Kept settable
  // because it is the paper's proposed fix, which a test switches on to
  // show the stalls go away; the §7.5 bench runs the unmodified driver.
  bool flicker_aware_quiesce = false;
};

struct BlockCopyReport {
  uint64_t bytes_delivered = 0;
  uint64_t io_errors = 0;       // Chunks lost (ring overrun with no flow control).
  uint64_t stall_events = 0;    // Device had to pause for ring space.
  double elapsed_ms = 0;
  double stall_ms = 0;
  Bytes source_digest;          // SHA-1 of the source stream.
  Bytes delivered_digest;       // SHA-1 of what reached the OS buffer, in order.
  int sessions_run = 0;
};

// Simulates the copy. The device streams chunks at its line rate; while a
// session has the OS suspended, completed chunks sit in its 4 MB descriptor
// ring. When the ring is full the device stalls (block devices have flow control), so data
// is delayed but never lost - the md5sum-equal result of §7.5.
BlockCopyReport SimulateBlockCopyDuringSessions(const BlockCopyParams& params);

}  // namespace flicker

#endif  // FLICKER_SRC_OS_DEVICES_H_
