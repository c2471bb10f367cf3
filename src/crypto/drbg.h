// Deterministic random bit generator: a SHA-256 counter construction in the
// style of Hash_DRBG (SP 800-90A, simplified).
//
// The TPM's GetRandom and RSA key generation draw from an instance of this.
// Determinism given a seed is a feature for the simulator: tests and
// benchmarks reproduce bit-exact runs.

#ifndef FLICKER_SRC_CRYPTO_DRBG_H_
#define FLICKER_SRC_CRYPTO_DRBG_H_

#include <cstdint>

#include "src/common/bytes.h"
#include "src/crypto/sha256.h"

namespace flicker {

class Drbg {
 public:
  // Seeds from arbitrary entropy input (hashed into the state).
  explicit Drbg(const Bytes& seed);
  explicit Drbg(uint64_t seed);

  // Generates `len` pseudorandom bytes and ratchets the state forward.
  Bytes Generate(size_t len);

  // Uniform value in [0, bound) via rejection sampling; bound must be > 0.
  uint64_t UniformUint64(uint64_t bound);

 private:
  void Ratchet();

  uint8_t state_[Sha256::kDigestSize];  // Working state V.
  uint64_t counter_;                    // Monotonic block counter.
};

}  // namespace flicker

#endif  // FLICKER_SRC_CRYPTO_DRBG_H_
