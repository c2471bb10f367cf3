// Parameterized property sweeps over the crypto substrate.

#include <tuple>

#include <gtest/gtest.h>

#include "src/crypto/aes.h"
#include "src/crypto/drbg.h"
#include "src/crypto/hmac.h"
#include "src/crypto/md5.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"

namespace flicker {
namespace {

// ---- Hash incremental == one-shot across lengths and chunkings ----

class HashChunkingTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HashChunkingTest, AllHashesChunkIndependent) {
  size_t len = GetParam();
  Drbg rng(len);
  Bytes msg = rng.Generate(len);

  auto check = [&](auto make_hash, auto one_shot) {
    auto h = make_hash();
    size_t pos = 0;
    size_t step = 1;
    while (pos < msg.size()) {
      size_t n = step < msg.size() - pos ? step : msg.size() - pos;
      h.Update(msg.data() + pos, n);
      pos += n;
      step = step * 2 + 1;  // Irregular chunk sizes.
    }
    EXPECT_EQ(h.Finish(), one_shot(msg));
  };
  check([] { return Sha1(); }, [](const Bytes& m) { return Sha1::Digest(m); });
  check([] { return Sha256(); }, [](const Bytes& m) { return Sha256::Digest(m); });
  check([] { return Md5(); }, [](const Bytes& m) {
    Md5 h;
    h.Update(m);
    return h.Finish();
  });
}

INSTANTIATE_TEST_SUITE_P(Lengths, HashChunkingTest,
                         ::testing::Values(0, 1, 55, 56, 63, 64, 65, 111, 112, 119, 127, 128,
                                           129, 1000, 10000));

// ---- Single-bit avalanche: flipping any input bit changes the digest ----

class AvalancheTest : public ::testing::TestWithParam<int> {};

TEST_P(AvalancheTest, BitFlipChangesDigest) {
  Drbg rng(99);
  Bytes msg = rng.Generate(64);
  Bytes base = Sha1::Digest(msg);
  int bit = GetParam();
  msg[static_cast<size_t>(bit) / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  EXPECT_NE(Sha1::Digest(msg), base);
}

INSTANTIATE_TEST_SUITE_P(Bits, AvalancheTest, ::testing::Values(0, 7, 64, 255, 511));

// ---- AES roundtrips across key sizes and payload lengths ----

class AesSweepTest : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(AesSweepTest, CbcRoundTrip) {
  auto [key_bytes, payload_len] = GetParam();
  Drbg rng(key_bytes * 1000 + payload_len);
  Aes aes(rng.Generate(key_bytes));
  Bytes iv = rng.Generate(16);
  Bytes payload = rng.Generate(payload_len);

  Result<Bytes> cbc = aes.DecryptCbc(aes.EncryptCbc(payload, iv), iv);
  ASSERT_TRUE(cbc.ok());
  EXPECT_EQ(cbc.value(), payload);
}

INSTANTIATE_TEST_SUITE_P(KeysAndLengths, AesSweepTest,
                         ::testing::Combine(::testing::Values(16, 32),
                                            ::testing::Values(0, 1, 15, 16, 17, 255, 4096)));

// ---- RSA roundtrips across key sizes ----

class RsaSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RsaSweepTest, EncryptSignRoundTrip) {
  size_t bits = GetParam();
  Drbg rng(bits);
  RsaPrivateKey key = RsaGenerateKey(bits, &rng);
  EXPECT_EQ(key.pub.n.BitLength(), bits);

  Bytes msg = BytesOf("sweep message");
  Result<Bytes> ct = RsaEncryptPkcs1(key.pub, msg, &rng);
  ASSERT_TRUE(ct.ok());
  Result<Bytes> pt = RsaDecryptPkcs1(key, ct.value());
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(pt.value(), msg);

  Bytes sig = RsaSignSha1(key, msg);
  EXPECT_TRUE(RsaVerifySha1(key.pub, msg, sig));
  EXPECT_FALSE(RsaVerifySha1(key.pub, BytesOf("other"), sig));
}

INSTANTIATE_TEST_SUITE_P(KeySizes, RsaSweepTest, ::testing::Values(512, 768, 1024));

// ---- HMAC key-size sweep ----

class HmacKeySweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HmacKeySweepTest, VerifiesAcrossKeySizes) {
  Drbg rng(GetParam() + 7);
  Bytes key = rng.Generate(GetParam());
  Bytes msg = BytesOf("message under test");
  Bytes tag = HmacSha1(key, msg);
  EXPECT_EQ(tag.size(), 20u);
  EXPECT_TRUE(HmacSha1Verify(key, msg, tag));
  Bytes other_key = key;
  if (other_key.empty()) {
    other_key.push_back(1);
  } else {
    other_key[0] ^= 1;
  }
  EXPECT_FALSE(HmacSha1Verify(other_key, msg, tag));
}

INSTANTIATE_TEST_SUITE_P(KeySizes, HmacKeySweepTest,
                         ::testing::Values(1, 20, 63, 64, 65, 128, 200));

}  // namespace
}  // namespace flicker
