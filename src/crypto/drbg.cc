#include "src/crypto/drbg.h"

#include <cassert>

#include "src/crypto/sha256.h"

namespace flicker {

Drbg::Drbg(const Bytes& seed) : counter_(0) {
  Bytes tagged = BytesOf("flicker-drbg-init");
  tagged.insert(tagged.end(), seed.begin(), seed.end());
  state_ = Sha256::Digest(tagged);
}

Drbg::Drbg(uint64_t seed) : counter_(0) {
  Bytes b;
  PutUint64(&b, seed);
  Bytes tagged = BytesOf("flicker-drbg-init");
  tagged.insert(tagged.end(), b.begin(), b.end());
  state_ = Sha256::Digest(tagged);
}

void Drbg::Ratchet() {
  Bytes input = BytesOf("flicker-drbg-ratchet");
  input.insert(input.end(), state_.begin(), state_.end());
  state_ = Sha256::Digest(input);
}

Bytes Drbg::Generate(size_t len) {
  Bytes out;
  out.reserve(len);
  while (out.size() < len) {
    Bytes block_input = state_;
    PutUint64(&block_input, counter_++);
    Bytes block = Sha256::Digest(block_input);
    size_t take = len - out.size();
    if (take > block.size()) {
      take = block.size();
    }
    out.insert(out.end(), block.begin(), block.begin() + take);
  }
  Ratchet();
  return out;
}

uint64_t Drbg::UniformUint64(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling over the largest multiple of bound below 2^64.
  uint64_t limit = bound == 1 ? 0 : (~0ULL - (~0ULL % bound) - 1);
  for (;;) {
    Bytes b = Generate(8);
    uint64_t v = GetUint64(b, 0);
    if (bound == 1) {
      return 0;
    }
    if (v <= limit) {
      return v % bound;
    }
  }
}

}  // namespace flicker
