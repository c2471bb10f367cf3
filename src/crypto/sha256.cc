#include "src/crypto/sha256.h"

#include <cstring>
#include <utility>

#include "src/crypto/cpu_features.h"

namespace flicker {

namespace {

inline uint32_t Rotr(uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

#ifdef FLICKER_CRYPTO_SIMD

// Rounds 4G..4G+3 on the two state vectors sha256rnds2 works on: `abef`
// (a, b, e, f from lane 3 down) and `cdgh`. w[G % 4] receives message words
// W[4G..4G+3] with the first in lane 0, derived from the four groups before
// it: sha256msg1 adds sigma0(W[t-15]) to W[t-16], the alignr picks W[t-7],
// and sha256msg2 adds sigma1(W[t-2]).
template <int G>
__attribute__((target("sha,sse4.1"))) inline void Sha256Rounds4(__m128i& abef, __m128i& cdgh,
                                                                __m128i* w) {
  __m128i& wg = w[G % 4];
  if constexpr (G >= 4) {
    const __m128i w_t7 = _mm_alignr_epi8(w[(G + 3) % 4], w[(G + 2) % 4], 4);
    wg = _mm_sha256msg2_epu32(_mm_add_epi32(_mm_sha256msg1_epu32(wg, w[(G + 1) % 4]), w_t7),
                              w[(G + 3) % 4]);
  }
  const __m128i wk = _mm_add_epi32(
      wg, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * G])));
  // Each sha256rnds2 runs two rounds on the low two lanes of wk; after two
  // rounds the old a, b, e, f are the new c, d, g, h.
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

template <size_t... G>
__attribute__((target("sha,sse4.1"))) inline void Sha256Rounds(__m128i& abef, __m128i& cdgh,
                                                               __m128i* w,
                                                               std::index_sequence<G...>) {
  (Sha256Rounds4<G>(abef, cdgh, w), ...);
}

// The same compression on the SHA extensions. The chaining value stays in
// two registers across all `count` blocks.
__attribute__((target("sha,sse4.1"))) void CompressShaNi(uint32_t* state, const uint8_t* block,
                                                         size_t count) {
  // Big-endian message words, first word in lane 0.
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0b, 0x0405060700010203);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  for (; count > 0; --count, block += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)), byte_swap);
    }
    Sha256Rounds(abef, cdgh, w, std::make_index_sequence<16>());
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // FLICKER_CRYPTO_SIMD

}  // namespace

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::ProcessBlock(const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) | static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state_[0];
  uint32_t b = state_[1];
  uint32_t c = state_[2];
  uint32_t d = state_[3];
  uint32_t e = state_[4];
  uint32_t f = state_[5];
  uint32_t g = state_[6];
  uint32_t h = state_[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::ProcessBlocks(const uint8_t* blocks, size_t count) {
#ifdef FLICKER_CRYPTO_SIMD
  if (HasShaNi()) {
    CompressShaNi(state_, blocks, count);
    return;
  }
#endif
  for (; count > 0; --count, blocks += kBlockSize) {
    ProcessBlock(blocks);
  }
}

void Sha256::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_len_ += len;
  if (buffer_len_ > 0) {
    size_t take = kBlockSize - buffer_len_;
    if (take > len) {
      take = len;
    }
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == kBlockSize) {
      ProcessBlocks(buffer_, 1);
      buffer_len_ = 0;
    }
  }
  const size_t whole = len / kBlockSize;
  if (whole > 0) {
    ProcessBlocks(p, whole);
    p += whole * kBlockSize;
    len -= whole * kBlockSize;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Bytes Sha256::Finish() {
  // Pad in place: 0x80, zeros up to byte 56 of the last block (spilling
  // into a second block when fewer than 9 bytes are free), then the 64-bit
  // big-endian bit length.
  const uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    ProcessBlocks(buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  ProcessBlocks(buffer_, 1);

  Bytes digest(kDigestSize);
  for (int i = 0; i < 8; ++i) {
    digest[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  Reset();  // Finish leaves the object ready for the next message.
  return digest;
}

Bytes Sha256::Digest(const void* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}

Bytes Sha256::Digest(const Bytes& data) {
  return Digest(data.data(), data.size());
}

}  // namespace flicker
