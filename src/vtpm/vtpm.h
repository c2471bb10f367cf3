// One resident virtual TPM: the in-RAM working copy of a tenant's VtpmState.
//
// A VirtualTpm is pure software state - extends, reads and key derivation
// touch no hardware. Durability comes from the manager snapshotting the
// state back through the crash-consistent store; a power cut simply loses
// whatever extends happened after the last snapshot, exactly like a real
// vTPM whose backing write had not landed yet.

#ifndef FLICKER_SRC_VTPM_VTPM_H_
#define FLICKER_SRC_VTPM_VTPM_H_

#include <string>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/vtpm/vtpm_state.h"

namespace flicker {
namespace vtpm {

class VirtualTpm {
 public:
  explicit VirtualTpm(VtpmState state) : state_(std::move(state)) {}

  const VtpmState& state() const { return state_; }
  VtpmState* mutable_state() { return &state_; }
  const std::string& tenant() const { return state_.tenant; }

  // vPCR extend with hardware semantics: new = SHA1(old || measurement).
  Status Extend(int index, const Bytes& measurement);

  // SHA-1 over the concatenated vPCR bank: what a tenant quote covers.
  Bytes CompositeDigest() const;

  // Constant-time owner-auth gate for tenant operations.
  bool CheckOwnerAuth(const Bytes& auth) const;

 private:
  VtpmState state_;
};

}  // namespace vtpm
}  // namespace flicker

#endif  // FLICKER_SRC_VTPM_VTPM_H_
