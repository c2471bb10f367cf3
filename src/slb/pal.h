// The PAL (Piece of Application Logic) interface and its execution context.
//
// A PAL in the real system is at most ~60 KB of x86 code linked against the
// SLB Core. In the simulator a PAL is a C++ object whose *identity* is a
// deterministic synthetic code image (what gets placed in the SLB, measured
// by SKINIT, and attested) and whose *behaviour* is the Execute() body run
// under the platform's protection checks.

#ifndef FLICKER_SRC_SLB_PAL_H_
#define FLICKER_SRC_SLB_PAL_H_

#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/hw/cpu.h"
#include "src/hw/machine.h"
#include "src/tpm/transport.h"

namespace flicker {

// Execution context handed to Pal::Execute by the SLB core. All interaction
// with the platform goes through this object so the OS Protection module can
// interpose on memory accesses and so simulated compute time is charged.
class PalContext {
 public:
  // `deadline_micros` of 0 means no execution budget; otherwise, once the
  // platform clock passes it, every further context operation fails with
  // kResourceExhausted - the timer-interrupt PAL preemption sketched in
  // §5.1.2 ("we are also investigating techniques to limit a PAL's
  // execution time using timer interrupts in the SLB Core").
  PalContext(Machine* machine, uint64_t slb_base, Bytes inputs, bool os_protection_enabled,
             SegmentState pal_segment, uint64_t deadline_micros = 0);

  const Bytes& inputs() const { return inputs_; }

  // Output parameters, written to the well-known page above the SLB
  // (PAL_OUT, §5.1.1). Limited to the 4 KB output page.
  Status SetOutputs(const Bytes& outputs);
  const Bytes& outputs() const { return outputs_; }

  // TPM access (the PAL links the TPM Driver / TPM Utilities modules); all
  // commands cross the byte-marshalled transport at the session's locality.
  TpmClient* tpm() { return machine_->tpm(); }

  // Physical memory reads. With the OS Protection module linked, a read
  // outside the PAL's allocated segment faults with kPermissionDenied - this
  // is the ring-3 + segment-limit enforcement of §5.1.2.
  Result<Bytes> ReadMemory(uint64_t addr, size_t len);

  // Simulated-compute charging: PAL bodies call these so their work shows up
  // on the platform clock with the paper's calibrated costs.
  void ChargeSha1(size_t bytes);
  void ChargeRsaKeygen1024();
  void ChargeRsaDecrypt1024();
  void ChargeRsaSign1024();
  void ChargeMd5Crypt();
  void ChargeDivisorTests(uint64_t count);

  const SimClock* clock() const { return machine_->clock(); }
  uint64_t slb_base() const { return slb_base_; }
  bool os_protection_enabled() const { return os_protection_enabled_; }

  // Count of faulted (blocked) memory accesses, for tests and the OS's
  // misbehaving-PAL diagnostics.
  uint64_t fault_count() const { return fault_count_; }

  // True once the execution budget has been exhausted.
  bool deadline_exceeded() const;

 private:
  // Returns an error when the deadline has passed; called by every
  // context operation.
  Status CheckDeadline() const;

  Machine* machine_;
  uint64_t slb_base_;
  Bytes inputs_;
  Bytes outputs_;
  bool os_protection_enabled_;
  SegmentState pal_segment_;
  uint64_t deadline_micros_;
  uint64_t fault_count_ = 0;
};

// Application-supplied PAL logic.
class Pal {
 public:
  virtual ~Pal() = default;

  // Stable name; part of the PAL's code identity.
  virtual std::string name() const = 0;
  // Bump to change the PAL's measurement when its logic changes.
  virtual std::string code_version() const { return "1"; }

  // Library modules (beyond the mandatory SLB Core) this PAL links.
  virtual std::vector<std::string> required_modules() const = 0;
  // Symbols the application code references; the builder verifies each is
  // exported by a linked module (the §5.2 extraction-tool check).
  virtual std::vector<std::string> required_symbols() const { return {}; }

  // Size/LOC of the application-specific code, contributing to the SLB image
  // and the TCB accounting.
  virtual size_t app_code_bytes() const = 0;
  virtual int app_lines_of_code() const { return 0; }

  // The PAL body, run inside the Flicker session.
  virtual Status Execute(PalContext* context) = 0;
};

}  // namespace flicker

#endif  // FLICKER_SRC_SLB_PAL_H_
