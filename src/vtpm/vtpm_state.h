// Durable per-tenant vTPM state: the wire formats the multiplexer seals.
//
// A virtual TPM's whole identity - its virtual PCR bank, owner secret, key
// seed and generation - lives in one VtpmState blob that the manager group-
// seals through a per-tenant CrashConsistentSealedStore. The blob embeds a
// VtpmCounterBinding naming the hardware NV monotonic counter that versions
// it: a snapshot is only live while the counter reads exactly the bound
// value, so an attacker who power-cuts the host and restores an older sealed
// snapshot is detected (kRollbackDetected) instead of attesting stale state.
//
// Both formats are parsed from bytes the untrusted OS stores, so
// Deserialize is hardened the way the PR 4 batteries expect: magic tags,
// bounded lengths, exact digest sizes, no trailing bytes, and a trailing
// FNV-1a checksum that makes every single-byte flip detectable.

#ifndef FLICKER_SRC_VTPM_VTPM_STATE_H_
#define FLICKER_SRC_VTPM_VTPM_STATE_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace flicker {
namespace vtpm {

// A virtual TPM exposes a small dynamic-PCR bank; eight is enough for every
// tenant workload the campaign models and keeps snapshots compact.
inline constexpr int kNumVtpmPcrs = 8;
// vPCRs, owner auth and tenant tags are all SHA-1 sized.
inline constexpr size_t kVtpmDigestSize = 20;
// Tenant names come from the untrusted control plane; bound their length.
inline constexpr size_t kMaxTenantNameLen = 64;

// Binds a state blob to the hardware NV monotonic counter that versions it.
struct VtpmCounterBinding {
  uint32_t counter_id = 0;     // Hardware counter handle.
  uint64_t counter_value = 0;  // The counter reading this snapshot is live at.
  Bytes tenant_tag;            // SHA-1 of the tenant name: no cross-tenant swaps.

  Bytes Serialize() const;
  static Result<VtpmCounterBinding> Deserialize(const Bytes& wire);

  bool operator==(const VtpmCounterBinding& other) const {
    return counter_id == other.counter_id && counter_value == other.counter_value &&
           tenant_tag == other.tenant_tag;
  }
};

// The whole durable identity of one tenant's virtual TPM.
struct VtpmState {
  std::string tenant;
  uint64_t generation = 0;  // Bumped by every snapshot.
  Bytes owner_auth;         // 20 bytes; gates tenant operations.
  std::array<Bytes, kNumVtpmPcrs> pcrs;  // 20 bytes each.
  VtpmCounterBinding binding;
  uint64_t extends = 0;  // Total vPCR extends ever applied (diagnostics).

  // Fresh state for a new tenant: all vPCRs zero, generation 0.
  static VtpmState Fresh(const std::string& tenant, const Bytes& owner_auth);

  Bytes Serialize() const;
  static Result<VtpmState> Deserialize(const Bytes& wire);
};

// SHA-1 of the tenant name: the stable 20-byte tenant identifier used in
// counter bindings and quote nonce derivation.
Bytes TenantTag(const std::string& tenant);

}  // namespace vtpm
}  // namespace flicker

#endif  // FLICKER_SRC_VTPM_VTPM_STATE_H_
