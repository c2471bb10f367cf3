// HMAC (RFC 2104) over any of the hash classes in this directory.
//
// Flicker's distributed-computing application (paper §6.2) MACs its
// checkpointed state with a TPM-sealed symmetric key before yielding to the
// untrusted OS; this is that primitive.

#ifndef FLICKER_SRC_CRYPTO_HMAC_H_
#define FLICKER_SRC_CRYPTO_HMAC_H_

#include "src/common/bytes.h"

namespace flicker {

// Generic HMAC over a hash type exposing kDigestSize/kBlockSize/Update/Finish.
template <typename Hash>
Bytes HmacDigest(const Bytes& key, const Bytes& message) {
  Bytes k = key;
  if (k.size() > Hash::kBlockSize) {
    k = Hash::Digest(k);
  }
  k.resize(Hash::kBlockSize, 0);

  Bytes inner_pad(Hash::kBlockSize);
  Bytes outer_pad(Hash::kBlockSize);
  for (size_t i = 0; i < Hash::kBlockSize; ++i) {
    inner_pad[i] = static_cast<uint8_t>(k[i] ^ 0x36);
    outer_pad[i] = static_cast<uint8_t>(k[i] ^ 0x5c);
  }

  Hash inner;
  inner.Update(inner_pad);
  inner.Update(message);
  Bytes inner_digest = inner.Finish();

  Hash outer;
  outer.Update(outer_pad);
  outer.Update(inner_digest);
  return outer.Finish();
}

// The concrete instantiation used across the tree.
Bytes HmacSha1(const Bytes& key, const Bytes& message);

// Verifies in constant time.
bool HmacSha1Verify(const Bytes& key, const Bytes& message, const Bytes& tag);

}  // namespace flicker

#endif  // FLICKER_SRC_CRYPTO_HMAC_H_
