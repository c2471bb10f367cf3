// The TPM's Platform Configuration Register bank with v1.2 static/dynamic
// semantics (paper §2.3):
//   * a reboot resets static PCRs 0-16 to zero and dynamic PCRs 17-23 to -1
//     (all 0xff), so a verifier can distinguish reboot from dynamic reset;
//   * only the CPU's SKINIT handshake may reset the dynamic PCRs to zero;
//   * software can only ever extend.

#ifndef FLICKER_SRC_TPM_PCR_BANK_H_
#define FLICKER_SRC_TPM_PCR_BANK_H_

#include <array>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/tpm/structures.h"

namespace flicker {

class PcrBank {
 public:
  PcrBank() { PowerCycleReset(); }

  // Reboot semantics: static PCRs to 0^20, dynamic PCRs to 0xff^20.
  void PowerCycleReset();

  // The SKINIT-initiated hardware reset: dynamic PCRs (17-23) to 0^20.
  // Reached only through Tpm::SkinitReset, which software cannot call.
  void DynamicReset();

  // PCR_i <- SHA1(PCR_i || measurement). Measurement must be 20 bytes.
  Status Extend(int index, const Bytes& measurement);

  Result<Bytes> Read(int index) const;

  // TPM_COMPOSITE_HASH over the selected registers:
  // SHA1(serialized selection || 4-byte value-blob length || values).
  Result<Bytes> ComputeComposite(const PcrSelection& selection) const;

  static bool ValidIndex(int index) { return index >= 0 && index < kNumPcrs; }
  static bool IsDynamic(int index) { return index >= kFirstDynamicPcr && index < kNumPcrs; }

 private:
  std::array<Bytes, kNumPcrs> values_;
};

// Computes the value PCR 17 takes after SKINIT measures an SLB and software
// extends nothing else: SHA1(0^20 || SHA1(slb)). Shared by the CPU model and
// the verifier ("V <- H(0x00^20 || H(P))", paper §4.3.1).
Bytes ExpectedPcr17AfterSkinit(const Bytes& slb_measurement);

}  // namespace flicker

#endif  // FLICKER_SRC_TPM_PCR_BANK_H_
