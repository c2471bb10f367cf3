// The flicker-module: the untrusted Linux kernel module that stages Flicker
// sessions (paper §4.1-4.2).
//
// It exposes the slb / inputs / control sysfs entries (callers take the
// outputs from the session result, not the outputs entry), allocates and
// patches the SLB, saves kernel state, performs the multiprocessor suspend
// dance, and issues SKINIT. It is deliberately NOT
// in the TCB: everything it does is either measured (the patched SLB) or
// verified (PCR 17 contents), and tests exercise malicious variants.

#ifndef FLICKER_SRC_OS_FLICKER_MODULE_H_
#define FLICKER_SRC_OS_FLICKER_MODULE_H_

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/hw/machine.h"
#include "src/os/kernel.h"
#include "src/os/scheduler.h"
#include "src/slb/slb_layout.h"

namespace flicker {

class FlickerModule {
 public:
  FlickerModule(Machine* machine, OsKernel* kernel, Scheduler* scheduler);

  // sysfs "slb": stage an uninitialized SLB image (64 KB).
  Status WriteSlb(const Bytes& image);
  // sysfs "inputs": stage PAL input parameters (up to one 4 KB page).
  Status WriteInputs(const Bytes& inputs);

  // sysfs "control": run the untrusted pre-launch sequence - patch the SLB
  // for its load address, copy it and the inputs into the reserved region,
  // save kernel state, deschedule + park the APs, and execute SKINIT.
  // Returns the launch descriptor the (trusted) SLB core runs from.
  Result<SkinitLaunch> StartSession();

  // Post-session teardown: check the well-known output page, wake the APs,
  // resume scheduling.
  Status FinishSession();

  uint64_t slb_base() const { return kSlbFixedBase; }

  // ---- Concurrent (hypervisor) mode ----
  //
  // Stages the SLB + inputs + saved kernel state at `base` (a hypervisor
  // PAL slot) without any suspend dance: the OS keeps running, and the
  // writes go through the guest-access path, so staging into a frame the
  // hypervisor protects takes a nested page fault instead of succeeding.
  Status StageForHypervisorAt(uint64_t base);
  // Reads the session outputs back from `base`'s output page (also via the
  // guest-access path), failing on a corrupt page.
  Status CollectOutputsAt(uint64_t base);

  // ---- Adversary hook ----
  // When set, the module corrupts the staged SLB image before launch (flips
  // a byte in the PAL code region). The session still runs, but PCR 17 will
  // hold a different measurement - attestation must catch this.
  void set_corrupt_slb_before_launch(bool corrupt) { corrupt_slb_before_launch_ = corrupt; }

 private:
  Machine* machine_;
  OsKernel* kernel_;
  Scheduler* scheduler_;

  Bytes staged_slb_;
  Bytes staged_inputs_;
  bool session_prepared_ = false;
  bool corrupt_slb_before_launch_ = false;
};

}  // namespace flicker

#endif  // FLICKER_SRC_OS_FLICKER_MODULE_H_
