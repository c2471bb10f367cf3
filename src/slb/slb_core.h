// The SLB Core: the ~250 trusted lines that run between SKINIT and the
// resumption of the untrusted OS (paper §4.2, Fig. 2).
//
// Responsibilities, in session order:
//   1. (stub builds) hash the full 64 KB region on the main CPU and extend
//      it into PCR 17 (§7.2 optimization);
//   2. load the GDT / segment registers based at slb_base;
//   3. call the PAL - in ring 3 behind a segment limit when the OS
//      Protection module is linked;
//   4. erase all sensitive memory the PAL touched;
//   5. extend PCR 17 with the input/output measurements, the attestation
//      nonce, and finally the fixed public termination constant (§4.4.1);
//   6. restore segments/paging and return control to the OS.

#ifndef FLICKER_SRC_SLB_SLB_CORE_H_
#define FLICKER_SRC_SLB_SLB_CORE_H_

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/hw/machine.h"
#include "src/slb/slb_layout.h"

namespace flicker {

// The fixed public constant extended into PCR 17 at session end. Extending
// it (a) prevents later software from attributing its own extends to the
// PAL and (b) revokes access to PAL-bound sealed secrets (§4.4.1).
Bytes FlickerTerminationConstant();

struct SlbCoreOptions {
  // Attestation nonce from a remote verifier; extended into PCR 17 when
  // nonempty (freshness, §4.4.1).
  Bytes nonce;
  // Execution budget for the PAL in milliseconds; 0 = unlimited. When the
  // budget expires the SLB core's timer terminates the PAL (the §5.1.2
  // timing restriction), the session cleans up and the OS resumes - a
  // malfunctioning PAL cannot keep the platform suspended forever. Choose
  // generously: TPM operations alone can take ~1 s (§5.1.2's caveat).
  // Kept settable: it is the §5.1.2 watchdog, which the adversary tests
  // arm against a runaway PAL; the paper's PALs run without it.
  double max_pal_ms = 0;
};

// What the session produced. Timing fields cover only the in-session part;
// the caller (flicker-module / platform) wraps SKINIT and teardown around it.
struct SessionRecord {
  Status pal_status;
  Bytes outputs;
  Bytes inputs_digest;
  Bytes outputs_digest;
  // PCR 17 while the PAL executed (what sealed storage binds to).
  Bytes pcr17_during_execution;
  // PCR 17 after the closing extends (what a quote will show).
  Bytes pcr17_final;
  double pal_execute_ms = 0;
  double stub_hash_ms = 0;
  double extend_ms = 0;
  uint64_t pal_fault_count = 0;
};

// The environment a session runs in. The SLB core's trusted body is
// identical whether SKINIT suspended the whole machine (classic mode) or
// the minimal hypervisor pinned the PAL to one core (concurrent mode);
// what differs is which core executes, where PCR 17 lives, and how control
// returns to the OS. Implementations: the classic env in slb_core.cc and
// HvSessionEnv in src/hv.
class SessionEnv {
 public:
  virtual ~SessionEnv() = default;

  // The core the session executes on (BSP classically, the pinned core
  // under the hypervisor).
  virtual Cpu* session_cpu() = 0;
  // Checks the launch descriptor matches this environment's active session.
  virtual Status CheckEntry(const SkinitLaunch& launch) = 0;
  // Extend the session's PCR 17 (hardware register classically; the
  // hypervisor's µPCR - mirrored to hardware when configured - otherwise).
  virtual Status ExtendPcr(const Bytes& measurement) = 0;
  virtual Result<Bytes> ReadPcr() = 0;
  // Return control to the OS: restore the core, drop protections.
  virtual Status Exit(uint64_t restored_cr3) = 0;
};

class SlbCore {
 public:
  // Runs the in-session flow on the BSP. `launch` must come from a
  // successful Machine::Skinit of `binary`'s patched image.
  static Result<SessionRecord> Run(Machine* machine, const SkinitLaunch& launch,
                                   const PalBinary& binary, const SlbCoreOptions& options);

  // The same trusted body against an explicit session environment; Run()
  // delegates here with the classic (SKINIT/hardware-TPM) environment.
  static Result<SessionRecord> RunWith(Machine* machine, SessionEnv* env,
                                       const SkinitLaunch& launch, const PalBinary& binary,
                                       const SlbCoreOptions& options);
};

// I/O page codec shared with the flicker-module: a page holds a 32-bit
// length followed by the payload.
Status WriteIoPage(PhysicalMemory* memory, uint64_t page_addr, const Bytes& data);
Result<Bytes> ReadIoPage(const PhysicalMemory& memory, uint64_t page_addr);

}  // namespace flicker

#endif  // FLICKER_SRC_SLB_SLB_CORE_H_
