// AES-128/AES-256 (FIPS 197) with ECB block primitives and CBC mode,
// implemented from scratch.
//
// TPM sealed storage in this codebase follows the paper's §2.2 advice:
// bulk data is encrypted with a fast symmetric cipher on the main CPU and
// only the symmetric key lives inside the (slow, asymmetric) TPM seal.
// The S-box is synthesized from its GF(2^8) definition at startup so the
// table cannot be mistyped; FIPS vectors pin it in the tests.
//
// The constructor runs the FIPS-197 key expansion once and keeps the round
// keys in the state's byte order. On x86-64 hosts with AES-NI it also keeps
// their InvMixColumns images, and the block primitives run aesenc/
// aesenclast and aesdec/aesdeclast; other hosts and -DFLICKER_SIMD=OFF
// builds run the byte-wise scalar rounds, the reference AES-NI must match.

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
  // Round keys 0..rounds_ in state byte order (up to 14 rounds + 1).
  uint8_t round_keys_[15][16];
  // The AES-NI decryption schedule: round_keys_ reversed, the inner ones
  // through InvMixColumns. Filled only when the AES-NI kernel runs.
  uint8_t dec_round_keys_[15][16];
};

}  // namespace flicker

#endif  // FLICKER_SRC_CRYPTO_AES_H_
