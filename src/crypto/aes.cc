#include "src/crypto/aes.h"

#include <cassert>
#include <cstring>

namespace flicker {

namespace {

// GF(2^8) multiply modulo the AES polynomial x^8 + x^4 + x^3 + x + 1.
uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) {
      p ^= a;
    }
    bool hi = (a & 0x80) != 0;
    a = static_cast<uint8_t>(a << 1);
    if (hi) {
      a ^= 0x1b;
    }
    b >>= 1;
  }
  return p;
}

// The S-box from its definition: multiplicative inverse in GF(2^8) followed
// by the affine transform b ^ rot(b,1) ^ rot(b,2) ^ rot(b,3) ^ rot(b,4) ^ 0x63.
struct AesTables {
  uint8_t sbox[256];
  uint8_t inv_sbox[256];
  AesTables() {
    // Build inverses via a log/antilog walk over the generator 3.
    uint8_t inverse[256] = {0};
    uint8_t pow_table[256];
    uint8_t value = 1;
    for (int i = 0; i < 255; ++i) {
      pow_table[i] = value;
      value = GfMul(value, 3);
    }
    uint8_t log_table[256] = {0};
    for (int i = 0; i < 255; ++i) {
      log_table[pow_table[i]] = static_cast<uint8_t>(i);
    }
    for (int i = 1; i < 256; ++i) {
      inverse[i] = pow_table[(255 - log_table[i]) % 255];
    }

    for (int i = 0; i < 256; ++i) {
      uint8_t b = inverse[i];
      uint8_t x = static_cast<uint8_t>(b ^ ((b << 1) | (b >> 7)) ^ ((b << 2) | (b >> 6)) ^
                                       ((b << 3) | (b >> 5)) ^ ((b << 4) | (b >> 4)) ^ 0x63);
      sbox[i] = x;
      inv_sbox[x] = static_cast<uint8_t>(i);
    }
  }
};

const AesTables& Tables() {
  static const AesTables tables;
  return tables;
}

uint32_t SubWord(uint32_t w) {
  const AesTables& t = Tables();
  return (static_cast<uint32_t>(t.sbox[(w >> 24) & 0xff]) << 24) |
         (static_cast<uint32_t>(t.sbox[(w >> 16) & 0xff]) << 16) |
         (static_cast<uint32_t>(t.sbox[(w >> 8) & 0xff]) << 8) |
         static_cast<uint32_t>(t.sbox[w & 0xff]);
}

uint32_t RotWord(uint32_t w) {
  return (w << 8) | (w >> 24);
}

}  // namespace

Aes::Aes(const Bytes& key) {
  assert((key.size() == 16 || key.size() == 32) && "AES key must be 128 or 256 bits");
  int nk = static_cast<int>(key.size() / 4);
  rounds_ = nk + 6;
  int total_words = 4 * (rounds_ + 1);

  for (int i = 0; i < nk; ++i) {
    round_keys_[i] = (static_cast<uint32_t>(key[4 * i]) << 24) |
                     (static_cast<uint32_t>(key[4 * i + 1]) << 16) |
                     (static_cast<uint32_t>(key[4 * i + 2]) << 8) |
                     static_cast<uint32_t>(key[4 * i + 3]);
  }
  uint8_t rcon = 1;
  for (int i = nk; i < total_words; ++i) {
    uint32_t temp = round_keys_[i - 1];
    if (i % nk == 0) {
      temp = SubWord(RotWord(temp)) ^ (static_cast<uint32_t>(rcon) << 24);
      rcon = GfMul(rcon, 2);
    } else if (nk > 6 && i % nk == 4) {
      temp = SubWord(temp);
    }
    round_keys_[i] = round_keys_[i - nk] ^ temp;
  }
}

void Aes::EncryptBlock(const uint8_t* in, uint8_t* out) const {
  const AesTables& tables = Tables();
  uint8_t state[16];
  std::memcpy(state, in, 16);

  auto add_round_key = [&](int round) {
    for (int c = 0; c < 4; ++c) {
      uint32_t w = round_keys_[round * 4 + c];
      state[4 * c] ^= static_cast<uint8_t>(w >> 24);
      state[4 * c + 1] ^= static_cast<uint8_t>(w >> 16);
      state[4 * c + 2] ^= static_cast<uint8_t>(w >> 8);
      state[4 * c + 3] ^= static_cast<uint8_t>(w);
    }
  };

  add_round_key(0);
  for (int round = 1; round <= rounds_; ++round) {
    // SubBytes.
    for (int i = 0; i < 16; ++i) {
      state[i] = tables.sbox[state[i]];
    }
    // ShiftRows: row r rotates left by r (state is column-major).
    uint8_t t[16];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) {
        t[4 * c + r] = state[4 * ((c + r) % 4) + r];
      }
    }
    std::memcpy(state, t, 16);
    // MixColumns (skipped in the final round).
    if (round != rounds_) {
      for (int c = 0; c < 4; ++c) {
        uint8_t* col = state + 4 * c;
        uint8_t a0 = col[0];
        uint8_t a1 = col[1];
        uint8_t a2 = col[2];
        uint8_t a3 = col[3];
        col[0] = static_cast<uint8_t>(GfMul(a0, 2) ^ GfMul(a1, 3) ^ a2 ^ a3);
        col[1] = static_cast<uint8_t>(a0 ^ GfMul(a1, 2) ^ GfMul(a2, 3) ^ a3);
        col[2] = static_cast<uint8_t>(a0 ^ a1 ^ GfMul(a2, 2) ^ GfMul(a3, 3));
        col[3] = static_cast<uint8_t>(GfMul(a0, 3) ^ a1 ^ a2 ^ GfMul(a3, 2));
      }
    }
    add_round_key(round);
  }
  std::memcpy(out, state, 16);
}

void Aes::DecryptBlock(const uint8_t* in, uint8_t* out) const {
  const AesTables& tables = Tables();
  uint8_t state[16];
  std::memcpy(state, in, 16);

  auto add_round_key = [&](int round) {
    for (int c = 0; c < 4; ++c) {
      uint32_t w = round_keys_[round * 4 + c];
      state[4 * c] ^= static_cast<uint8_t>(w >> 24);
      state[4 * c + 1] ^= static_cast<uint8_t>(w >> 16);
      state[4 * c + 2] ^= static_cast<uint8_t>(w >> 8);
      state[4 * c + 3] ^= static_cast<uint8_t>(w);
    }
  };

  add_round_key(rounds_);
  for (int round = rounds_ - 1; round >= 0; --round) {
    // InvShiftRows: row r rotates right by r.
    uint8_t t[16];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) {
        t[4 * c + r] = state[4 * ((c - r + 4) % 4) + r];
      }
    }
    std::memcpy(state, t, 16);
    // InvSubBytes.
    for (int i = 0; i < 16; ++i) {
      state[i] = tables.inv_sbox[state[i]];
    }
    add_round_key(round);
    // InvMixColumns (skipped after the last AddRoundKey).
    if (round != 0) {
      for (int c = 0; c < 4; ++c) {
        uint8_t* col = state + 4 * c;
        uint8_t a0 = col[0];
        uint8_t a1 = col[1];
        uint8_t a2 = col[2];
        uint8_t a3 = col[3];
        col[0] = static_cast<uint8_t>(GfMul(a0, 14) ^ GfMul(a1, 11) ^ GfMul(a2, 13) ^ GfMul(a3, 9));
        col[1] = static_cast<uint8_t>(GfMul(a0, 9) ^ GfMul(a1, 14) ^ GfMul(a2, 11) ^ GfMul(a3, 13));
        col[2] = static_cast<uint8_t>(GfMul(a0, 13) ^ GfMul(a1, 9) ^ GfMul(a2, 14) ^ GfMul(a3, 11));
        col[3] = static_cast<uint8_t>(GfMul(a0, 11) ^ GfMul(a1, 13) ^ GfMul(a2, 9) ^ GfMul(a3, 14));
      }
    }
  }
  std::memcpy(out, state, 16);
}

Bytes Aes::EncryptCbc(const Bytes& plaintext, const Bytes& iv) const {
  assert(iv.size() == kBlockSize);
  size_t pad = kBlockSize - (plaintext.size() % kBlockSize);
  Bytes padded = plaintext;
  padded.insert(padded.end(), pad, static_cast<uint8_t>(pad));

  Bytes out(padded.size());
  uint8_t chain[kBlockSize];
  std::memcpy(chain, iv.data(), kBlockSize);
  for (size_t off = 0; off < padded.size(); off += kBlockSize) {
    uint8_t block[kBlockSize];
    for (size_t i = 0; i < kBlockSize; ++i) {
      block[i] = static_cast<uint8_t>(padded[off + i] ^ chain[i]);
    }
    EncryptBlock(block, out.data() + off);
    std::memcpy(chain, out.data() + off, kBlockSize);
  }
  return out;
}

Result<Bytes> Aes::DecryptCbc(const Bytes& ciphertext, const Bytes& iv) const {
  assert(iv.size() == kBlockSize);
  if (ciphertext.empty() || ciphertext.size() % kBlockSize != 0) {
    return InvalidArgumentError("CBC ciphertext length must be a positive multiple of 16");
  }
  Bytes out(ciphertext.size());
  uint8_t chain[kBlockSize];
  std::memcpy(chain, iv.data(), kBlockSize);
  for (size_t off = 0; off < ciphertext.size(); off += kBlockSize) {
    uint8_t block[kBlockSize];
    DecryptBlock(ciphertext.data() + off, block);
    for (size_t i = 0; i < kBlockSize; ++i) {
      out[off + i] = static_cast<uint8_t>(block[i] ^ chain[i]);
    }
    std::memcpy(chain, ciphertext.data() + off, kBlockSize);
  }
  uint8_t pad = out.back();
  if (pad == 0 || pad > kBlockSize) {
    return IntegrityFailureError("bad CBC padding");
  }
  for (size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) {
      return IntegrityFailureError("bad CBC padding");
    }
  }
  out.resize(out.size() - pad);
  return out;
}

}  // namespace flicker
