// MD5 (RFC 1321), implemented from scratch.
//
// Needed by the SSH password application: *nix password files store
// md5crypt ("$1$") hashes, whose core is iterated MD5 (see md5crypt.h).
// The sine-derived constant table is computed at startup from the RFC's
// defining formula rather than transcribed.

#ifndef FLICKER_SRC_CRYPTO_MD5_H_
#define FLICKER_SRC_CRYPTO_MD5_H_

#include <cstddef>
#include <cstdint>

#include "src/common/bytes.h"

namespace flicker {

class Md5 {
 public:
  static constexpr size_t kDigestSize = 16;
  static constexpr size_t kBlockSize = 64;

  Md5() { Reset(); }

  void Reset();
  void Update(const void* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  Bytes Finish();

 private:
  void ProcessBlock(const uint8_t* block);

  uint32_t state_[4];
  uint64_t total_len_;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_;
};

}  // namespace flicker

#endif  // FLICKER_SRC_CRYPTO_MD5_H_
