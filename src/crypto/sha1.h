// SHA-1 (FIPS 180-1), implemented from scratch.
//
// SHA-1 is the measurement hash mandated by the TPM v1.2 specification: PCR
// extends, quotes, seal composites, and SKINIT's SLB measurement all use it,
// so this implementation sits at the bottom of the entire attestation chain.
//
// Whole blocks go to one compression kernel that takes a block count. On
// x86-64 hosts with the SHA extensions it runs sha1rnds4/sha1nexte/
// sha1msg1/sha1msg2 with the chaining value in registers across the run;
// other hosts and -DFLICKER_SIMD=OFF builds run the scalar FIPS loop, which
// is the reference the SHA-NI kernel must match bit for bit.

#ifndef FLICKER_SRC_CRYPTO_SHA1_H_
#define FLICKER_SRC_CRYPTO_SHA1_H_

#include <cstddef>
#include <cstdint>

#include "src/common/bytes.h"

namespace flicker {

class Sha1 {
 public:
  static constexpr size_t kDigestSize = 20;
  static constexpr size_t kBlockSize = 64;

  Sha1() { Reset(); }

  // Restores the initial chaining state, discarding buffered input.
  void Reset();

  // Absorbs `len` bytes.
  void Update(const void* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }

  // Appends padding and returns the 20-byte digest. The object is Reset()
  // automatically, ready for the next message.
  Bytes Finish();

  // One-shot convenience.
  static Bytes Digest(const Bytes& data);
  static Bytes Digest(const void* data, size_t len);

 private:
  // Compresses `count` whole blocks into state_: the SHA-NI kernel when the
  // host has it (see the .cc), ProcessBlock's scalar FIPS rounds otherwise.
  void ProcessBlocks(const uint8_t* blocks, size_t count);
  void ProcessBlock(const uint8_t* block);

  uint32_t state_[5];
  uint64_t total_len_;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_;
};

}  // namespace flicker

#endif  // FLICKER_SRC_CRYPTO_SHA1_H_
