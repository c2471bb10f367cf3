// SHA-256 (FIPS 180-2), implemented from scratch.
//
// Not required by the TPM v1.2 model itself, but offered by the Crypto PAL
// module for application use (e.g., integrity tags over distributed-computing
// state where an application prefers a stronger hash than SHA-1), and the
// hash behind the simulator's Drbg.
//
// Whole blocks go to one compression kernel that takes a block count. On
// x86-64 hosts with the SHA extensions it runs sha256rnds2/sha256msg1/
// sha256msg2 with the chaining value in registers across the run; other
// hosts and -DFLICKER_SIMD=OFF builds run the scalar FIPS loop, which is the
// reference the SHA-NI kernel must match bit for bit.

#ifndef FLICKER_SRC_CRYPTO_SHA256_H_
#define FLICKER_SRC_CRYPTO_SHA256_H_

#include <cstddef>
#include <cstdint>

#include "src/common/bytes.h"

namespace flicker {

class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256() { Reset(); }

  void Reset();
  void Update(const void* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  Bytes Finish();
  // Writes the digest into `digest` instead of a new vector.
  void Finish(uint8_t digest[kDigestSize]);

  static Bytes Digest(const Bytes& data);
  static Bytes Digest(const void* data, size_t len);

 private:
  // Compresses `count` whole blocks into state_: the SHA-NI kernel when the
  // host has it (see the .cc), ProcessBlock's scalar FIPS rounds otherwise.
  void ProcessBlocks(const uint8_t* blocks, size_t count);
  void ProcessBlock(const uint8_t* block);

  uint32_t state_[8];
  uint64_t total_len_;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_;
};

}  // namespace flicker

#endif  // FLICKER_SRC_CRYPTO_SHA256_H_
