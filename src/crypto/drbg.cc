#include "src/crypto/drbg.h"

#include <cassert>
#include <cstring>

namespace flicker {

namespace {

constexpr char kInitTag[] = "flicker-drbg-init";
constexpr char kRatchetTag[] = "flicker-drbg-ratchet";

void StoreBigEndian64(uint8_t* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<uint8_t>(v >> (56 - 8 * i));
  }
}

}  // namespace

Drbg::Drbg(const Bytes& seed) : counter_(0) {
  Sha256 hash;
  hash.Update(kInitTag, sizeof(kInitTag) - 1);
  hash.Update(seed);
  hash.Finish(state_);
}

Drbg::Drbg(uint64_t seed) : counter_(0) {
  uint8_t encoded[8];
  StoreBigEndian64(encoded, seed);
  Sha256 hash;
  hash.Update(kInitTag, sizeof(kInitTag) - 1);
  hash.Update(encoded, sizeof(encoded));
  hash.Finish(state_);
}

void Drbg::Ratchet() {
  Sha256 hash;
  hash.Update(kRatchetTag, sizeof(kRatchetTag) - 1);
  hash.Update(state_, sizeof(state_));
  hash.Finish(state_);
}

Bytes Drbg::Generate(size_t len) {
  // Block i is SHA-256(V || counter), hashed from one stack buffer and
  // written straight into `out`; only a short last block goes via `digest`.
  Bytes out(len);
  uint8_t block_input[sizeof(state_) + 8];
  std::memcpy(block_input, state_, sizeof(state_));
  Sha256 hash;
  for (size_t pos = 0; pos < len; pos += Sha256::kDigestSize) {
    StoreBigEndian64(block_input + sizeof(state_), counter_++);
    hash.Update(block_input, sizeof(block_input));
    if (len - pos >= Sha256::kDigestSize) {
      hash.Finish(out.data() + pos);
    } else {
      uint8_t digest[Sha256::kDigestSize];
      hash.Finish(digest);
      std::memcpy(out.data() + pos, digest, len - pos);
    }
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
