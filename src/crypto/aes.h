// AES-128/AES-256 (FIPS 197) with ECB block primitives and CBC/CTR modes,
// implemented from scratch.
//
// TPM sealed storage in this codebase follows the paper's §2.2 advice:
// bulk data is encrypted with a fast symmetric cipher on the main CPU and
// only the symmetric key lives inside the (slow, asymmetric) TPM seal.
// The S-box is synthesized from its GF(2^8) definition at startup so the
// table cannot be mistyped; FIPS vectors pin it in the tests.

#ifndef FLICKER_SRC_CRYPTO_AES_H_
#define FLICKER_SRC_CRYPTO_AES_H_

#include <cstddef>
#include <cstdint>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace flicker {

class Aes {
 public:
  static constexpr size_t kBlockSize = 16;

  // Key must be 16 (AES-128) or 32 (AES-256) bytes; asserts otherwise.
  explicit Aes(const Bytes& key);

  // Single-block ECB primitives; in/out are exactly 16 bytes.
  void EncryptBlock(const uint8_t* in, uint8_t* out) const;
  void DecryptBlock(const uint8_t* in, uint8_t* out) const;

  // CBC with PKCS#7 padding. `iv` must be 16 bytes.
  Bytes EncryptCbc(const Bytes& plaintext, const Bytes& iv) const;
  // Fails with kIntegrityFailure on bad padding and kInvalidArgument on a
  // ciphertext that is not a positive multiple of the block size.
  Result<Bytes> DecryptCbc(const Bytes& ciphertext, const Bytes& iv) const;

 private:
  int rounds_;
  uint32_t round_keys_[60];  // Up to 14 rounds + 1, 4 words each.
};

}  // namespace flicker

#endif  // FLICKER_SRC_CRYPTO_AES_H_
