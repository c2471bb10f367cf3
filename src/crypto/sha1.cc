#include "src/crypto/sha1.h"

#include <cstring>
#include <utility>

#include "src/crypto/cpu_features.h"

namespace flicker {

namespace {

inline uint32_t Rotl(uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

#ifdef FLICKER_CRYPTO_SIMD

// Rounds 4G..4G+3. Lane 3 is the first word of every vector: `abcd` holds
// a..d, and w[G % 4] receives message words W[4G..4G+3], derived from the
// four groups before it (sha1msg1, xor, sha1msg2 give W[t] = rotl1(W[t-3] ^
// W[t-8] ^ W[t-14] ^ W[t-16])). `prev` is the abcd of the group before;
// sha1nexte turns its a into this group's e (rotl30) plus W. Before group 0
// `prev` holds e itself in lane 3, which is only added.
template <int G>
__attribute__((target("sha,sse4.1"))) inline void Sha1Rounds4(__m128i& abcd, __m128i& prev,
                                                              __m128i* w) {
  __m128i& wg = w[G % 4];
  if constexpr (G >= 4) {
    wg = _mm_sha1msg2_epu32(
        _mm_xor_si128(_mm_sha1msg1_epu32(wg, w[(G + 1) % 4]), w[(G + 2) % 4]), w[(G + 3) % 4]);
  }
  __m128i e;
  if constexpr (G == 0) {
    e = _mm_add_epi32(prev, wg);
  } else {
    e = _mm_sha1nexte_epu32(prev, wg);
  }
  prev = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e, G / 5);  // f and K change every 20 rounds.
}

template <size_t... G>
__attribute__((target("sha,sse4.1"))) inline void Sha1Rounds(__m128i& abcd, __m128i& prev,
                                                             __m128i* w,
                                                             std::index_sequence<G...>) {
  (Sha1Rounds4<G>(abcd, prev, w), ...);
}

// The same compression on the SHA extensions. The chaining value stays in
// two registers across all `count` blocks.
__attribute__((target("sha,sse4.1"))) void CompressShaNi(uint32_t* state, const uint8_t* block,
                                                         size_t count) {
  // Big-endian message words, first word in lane 3.
  const __m128i byte_swap = _mm_set_epi64x(0x0001020304050607, 0x08090a0b0c0d0e0f);
  __m128i abcd =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1b);
  __m128i e = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; count > 0; --count, block += Sha1::kBlockSize) {
    const __m128i abcd_in = abcd;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)), byte_swap);
    }
    __m128i prev = e;
    Sha1Rounds(abcd, prev, w, std::make_index_sequence<20>());
    // The a of round 76 is e after round 79 (rotl30); add it to the block's
    // input e.
    e = _mm_sha1nexte_epu32(prev, e);
    abcd = _mm_add_epi32(abcd, abcd_in);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_shuffle_epi32(abcd, 0x1b));
  state[4] = static_cast<uint32_t>(_mm_extract_epi32(e, 3));
}

#endif  // FLICKER_CRYPTO_SIMD

}  // namespace

void Sha1::Reset() {
  state_[0] = 0x67452301;
  state_[1] = 0xefcdab89;
  state_[2] = 0x98badcfe;
  state_[3] = 0x10325476;
  state_[4] = 0xc3d2e1f0;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha1::ProcessBlock(const uint8_t* block) {
  uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) | static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = Rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  uint32_t a = state_[0];
  uint32_t b = state_[1];
  uint32_t c = state_[2];
  uint32_t d = state_[3];
  uint32_t e = state_[4];

  for (int i = 0; i < 80; ++i) {
    uint32_t f;
    uint32_t k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5a827999;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ed9eba1;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8f1bbcdc;
    } else {
      f = b ^ c ^ d;
      k = 0xca62c1d6;
    }
    uint32_t tmp = Rotl(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = Rotl(b, 30);
    b = a;
    a = tmp;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

void Sha1::ProcessBlocks(const uint8_t* blocks, size_t count) {
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

void Sha1::Update(const void* data, size_t len) {
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

Bytes Sha1::Finish() {
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
  for (int i = 0; i < 5; ++i) {
    digest[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  Reset();  // Finish leaves the object ready for the next message.
  return digest;
}

Bytes Sha1::Digest(const void* data, size_t len) {
  Sha1 h;
  h.Update(data, len);
  return h.Finish();
}

Bytes Sha1::Digest(const Bytes& data) {
  return Digest(data.data(), data.size());
}

}  // namespace flicker
