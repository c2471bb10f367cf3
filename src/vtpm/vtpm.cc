#include "src/vtpm/vtpm.h"

#include "src/crypto/sha1.h"

namespace flicker {
namespace vtpm {

Status VirtualTpm::Extend(int index, const Bytes& measurement) {
  if (index < 0 || index >= kNumVtpmPcrs) {
    return InvalidArgumentError("vPCR index out of range");
  }
  if (measurement.size() != kVtpmDigestSize) {
    return InvalidArgumentError("vPCR extend measurement must be 20 bytes");
  }
  Bytes& pcr = state_.pcrs[static_cast<size_t>(index)];
  pcr = Sha1::Digest(Concat(pcr, measurement));
  ++state_.extends;
  return Status::Ok();
}

Bytes VirtualTpm::CompositeDigest() const {
  Sha1 hash;
  for (const Bytes& pcr : state_.pcrs) {
    hash.Update(pcr);
  }
  return hash.Finish();
}

bool VirtualTpm::CheckOwnerAuth(const Bytes& auth) const {
  return ConstantTimeEquals(auth, state_.owner_auth);
}

}  // namespace vtpm
}  // namespace flicker
