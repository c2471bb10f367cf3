#include "src/crypto/hmac.h"

#include "src/crypto/sha1.h"

namespace flicker {

Bytes HmacSha1(const Bytes& key, const Bytes& message) {
  return HmacDigest<Sha1>(key, message);
}

bool HmacSha1Verify(const Bytes& key, const Bytes& message, const Bytes& tag) {
  return ConstantTimeEquals(HmacSha1(key, message), tag);
}

}  // namespace flicker
