// FIPS-197 / SP 800-38A vectors plus mode-level round-trip and failure tests.

#include "src/crypto/aes.h"

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/crypto/drbg.h"

namespace flicker {
namespace {

Bytes Hex(const char* s) {
  bool ok = false;
  Bytes b = FromHex(s, &ok);
  EXPECT_TRUE(ok);
  return b;
}

TEST(AesTest, Fips197Aes128) {
  Aes aes(Hex("000102030405060708090a0b0c0d0e0f"));
  Bytes pt = Hex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(ToHex(Bytes(ct, ct + 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");

  uint8_t back[16];
  aes.DecryptBlock(ct, back);
  EXPECT_EQ(Bytes(back, back + 16), pt);
}

TEST(AesTest, Fips197Aes256) {
  Aes aes(Hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  Bytes pt = Hex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(ToHex(Bytes(ct, ct + 16)), "8ea2b7ca516745bfeafc49904b496089");

  uint8_t back[16];
  aes.DecryptBlock(ct, back);
  EXPECT_EQ(Bytes(back, back + 16), pt);
}

TEST(AesTest, Sp80038aEcbVector) {
  Aes aes(Hex("2b7e151628aed2a6abf7158809cf4f3c"));
  Bytes pt = Hex("6bc1bee22e409f96e93d7e117393172a");
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(ToHex(Bytes(ct, ct + 16)), "3ad77bb40d7a3660a89ecaf32466ef97");
}

// SP 800-38A F.2.1/F.2.2 (AES-128) and F.2.5/F.2.6 (AES-256): four chained
// CBC blocks under the IV 00..0f. Encryption goes through EncryptCbc (whose
// fifth block is the PKCS#7 pad), decryption block by block against the
// vector, then the whole ciphertext back through DecryptCbc.
void ExpectSp80038aCbc(const char* key_hex, const char* ciphertext_hex) {
  Aes aes(Hex(key_hex));
  const Bytes iv = Hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = Hex(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
  const Bytes expected = Hex(ciphertext_hex);

  const Bytes ct = aes.EncryptCbc(pt, iv);
  ASSERT_EQ(ct.size(), pt.size() + Aes::kBlockSize);
  EXPECT_EQ(ToHex(Bytes(ct.begin(), ct.begin() + pt.size())), ToHex(expected));

  Bytes chain = iv;
  for (size_t off = 0; off < expected.size(); off += Aes::kBlockSize) {
    uint8_t block[Aes::kBlockSize];
    aes.DecryptBlock(expected.data() + off, block);
    for (size_t i = 0; i < Aes::kBlockSize; ++i) {
      EXPECT_EQ(block[i] ^ chain[i], pt[off + i]) << "block " << off / Aes::kBlockSize;
    }
    chain.assign(expected.begin() + off, expected.begin() + off + Aes::kBlockSize);
  }

  Result<Bytes> back = aes.DecryptCbc(ct, iv);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pt);
}

TEST(AesTest, Sp80038aCbcAes128) {
  ExpectSp80038aCbc("2b7e151628aed2a6abf7158809cf4f3c",
                    "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2"
                    "73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7");
}

TEST(AesTest, Sp80038aCbcAes256) {
  ExpectSp80038aCbc("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
                    "f58c4c04d6e5f1ba779eabfb5f7bfbd69cfc4e967edb808d679f777bc6702c7d"
                    "39f23369a9d9bacfa530e26304231461b2eb05e2c39be9fcda6c19078c6a9d1b");
}

TEST(AesTest, CbcRoundTripVariousLengths) {
  Aes aes(Hex("2b7e151628aed2a6abf7158809cf4f3c"));
  Bytes iv(16, 0x42);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 100u}) {
    Bytes pt(len);
    for (size_t i = 0; i < len; ++i) {
      pt[i] = static_cast<uint8_t>(i);
    }
    Bytes ct = aes.EncryptCbc(pt, iv);
    EXPECT_EQ(ct.size() % Aes::kBlockSize, 0u);
    EXPECT_GT(ct.size(), pt.size());  // Always at least one padding byte.
    Result<Bytes> back = aes.DecryptCbc(ct, iv);
    ASSERT_TRUE(back.ok()) << "len " << len;
    EXPECT_EQ(back.value(), pt);
  }
}

TEST(AesTest, CbcTamperedCiphertextFailsPaddingOrChangesPlaintext) {
  Aes aes(Hex("2b7e151628aed2a6abf7158809cf4f3c"));
  Bytes iv(16, 0);
  Bytes pt(48, 0xab);
  Bytes ct = aes.EncryptCbc(pt, iv);
  ct[5] ^= 0xff;
  Result<Bytes> back = aes.DecryptCbc(ct, iv);
  if (back.ok()) {
    EXPECT_NE(back.value(), pt);
  }
}

TEST(AesTest, CbcRejectsBadLength) {
  Aes aes(Hex("2b7e151628aed2a6abf7158809cf4f3c"));
  Bytes iv(16, 0);
  Result<Bytes> r = aes.DecryptCbc(Bytes(17, 0), iv);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  Result<Bytes> r2 = aes.DecryptCbc(Bytes(), iv);
  EXPECT_FALSE(r2.ok());
}

TEST(AesTest, CbcDifferentIvDifferentCiphertext) {
  Aes aes(Hex("2b7e151628aed2a6abf7158809cf4f3c"));
  Bytes pt(32, 0x33);
  Bytes iv1(16, 0x01);
  Bytes iv2(16, 0x02);
  EXPECT_NE(aes.EncryptCbc(pt, iv1), aes.EncryptCbc(pt, iv2));
}

TEST(AesTest, RandomizedRoundTripSweep) {
  Drbg rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes key = rng.Generate(trial % 2 == 0 ? 16 : 32);
    Aes aes(key);
    Bytes iv = rng.Generate(16);
    Bytes pt = rng.Generate(rng.UniformUint64(200));
    Result<Bytes> back = aes.DecryptCbc(aes.EncryptCbc(pt, iv), iv);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), pt);
  }
}

}  // namespace
}  // namespace flicker
