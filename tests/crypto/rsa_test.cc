// RSA key generation, PKCS#1 v1.5 encryption and signatures.
//
// Key generation is the slowest primitive in the suite, so the fixture
// generates one 1024-bit key (the paper's PAL key size) and shares it.

#include "src/crypto/rsa.h"

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/crypto/drbg.h"
#include "src/crypto/sha1.h"

namespace flicker {
namespace {

class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Drbg(0xf11cce5);
    key_ = new RsaPrivateKey(RsaGenerateKey(1024, rng_));
  }
  static void TearDownTestSuite() {
    delete key_;
    delete rng_;
    key_ = nullptr;
    rng_ = nullptr;
  }

  static Drbg* rng_;
  static RsaPrivateKey* key_;
};

Drbg* RsaTest::rng_ = nullptr;
RsaPrivateKey* RsaTest::key_ = nullptr;

TEST_F(RsaTest, KeyHasExpectedShape) {
  EXPECT_EQ(key_->pub.n.BitLength(), 1024u);
  EXPECT_EQ(key_->pub.e, BigInt(65537));
  EXPECT_EQ(key_->p * key_->q, key_->pub.n);
  EXPECT_NE(key_->p, key_->q);
}

TEST_F(RsaTest, PrimesAreActuallyPrime) {
  Drbg rng(1);
  EXPECT_TRUE(IsProbablePrime(key_->p, &rng));
  EXPECT_TRUE(IsProbablePrime(key_->q, &rng));
}

TEST_F(RsaTest, CrtParametersConsistent) {
  EXPECT_EQ(key_->dp, key_->d % (key_->p - BigInt(1)));
  EXPECT_EQ(key_->dq, key_->d % (key_->q - BigInt(1)));
  EXPECT_EQ((key_->qinv * key_->q) % key_->p, BigInt(1));
}

TEST_F(RsaTest, RawRoundTrip) {
  BigInt m(123456789);
  BigInt c = RsaPublicOp(key_->pub, m);
  EXPECT_NE(c, m);
  EXPECT_EQ(RsaPrivateOp(*key_, c), m);
}

TEST_F(RsaTest, PrivateThenPublicRoundTrip) {
  BigInt m(987654321);
  BigInt s = RsaPrivateOp(*key_, m);
  EXPECT_EQ(RsaPublicOp(key_->pub, s), m);
}

TEST_F(RsaTest, EncryptDecryptRoundTrip) {
  Bytes msg = BytesOf("user password: correct horse battery staple");
  Result<Bytes> ct = RsaEncryptPkcs1(key_->pub, msg, rng_);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(ct.value().size(), key_->pub.ModulusBytes());
  Result<Bytes> pt = RsaDecryptPkcs1(*key_, ct.value());
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(pt.value(), msg);
}

TEST_F(RsaTest, EncryptionIsRandomized) {
  Bytes msg = BytesOf("same message");
  Result<Bytes> c1 = RsaEncryptPkcs1(key_->pub, msg, rng_);
  Result<Bytes> c2 = RsaEncryptPkcs1(key_->pub, msg, rng_);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_NE(c1.value(), c2.value());
}

TEST_F(RsaTest, MessageTooLongRejected) {
  Bytes msg(key_->pub.ModulusBytes() - 10, 0x41);
  Result<Bytes> ct = RsaEncryptPkcs1(key_->pub, msg, rng_);
  ASSERT_FALSE(ct.ok());
  EXPECT_EQ(ct.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RsaTest, MaximumLengthMessageAccepted) {
  Bytes msg(key_->pub.ModulusBytes() - 11, 0x41);
  Result<Bytes> ct = RsaEncryptPkcs1(key_->pub, msg, rng_);
  ASSERT_TRUE(ct.ok());
  Result<Bytes> pt = RsaDecryptPkcs1(*key_, ct.value());
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(pt.value(), msg);
}

TEST_F(RsaTest, TamperedCiphertextFails) {
  Bytes msg = BytesOf("secret");
  Result<Bytes> ct = RsaEncryptPkcs1(key_->pub, msg, rng_);
  ASSERT_TRUE(ct.ok());
  Bytes tampered = ct.value();
  tampered[tampered.size() / 2] ^= 0x01;
  Result<Bytes> pt = RsaDecryptPkcs1(*key_, tampered);
  if (pt.ok()) {
    EXPECT_NE(pt.value(), msg);  // Astronomically unlikely to still parse.
  }
}

TEST_F(RsaTest, WrongLengthCiphertextRejected) {
  Result<Bytes> pt = RsaDecryptPkcs1(*key_, Bytes(10, 0));
  ASSERT_FALSE(pt.ok());
  EXPECT_EQ(pt.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RsaTest, SignVerifyRoundTrip) {
  Bytes msg = BytesOf("certificate signing request for example.com");
  Bytes sig = RsaSignSha1(*key_, msg);
  EXPECT_EQ(sig.size(), key_->pub.ModulusBytes());
  EXPECT_TRUE(RsaVerifySha1(key_->pub, msg, sig));
}

TEST_F(RsaTest, SignatureRejectsModifiedMessage) {
  Bytes msg = BytesOf("issue cert for example.com");
  Bytes sig = RsaSignSha1(*key_, msg);
  EXPECT_FALSE(RsaVerifySha1(key_->pub, BytesOf("issue cert for evil.com"), sig));
}

TEST_F(RsaTest, SignatureRejectsModifiedSignature) {
  Bytes msg = BytesOf("message");
  Bytes sig = RsaSignSha1(*key_, msg);
  sig[0] ^= 0x80;
  EXPECT_FALSE(RsaVerifySha1(key_->pub, msg, sig));
}

TEST_F(RsaTest, SignatureRejectsWrongKey) {
  Drbg rng(42);
  RsaPrivateKey other = RsaGenerateKey(1024, &rng);
  Bytes msg = BytesOf("message");
  Bytes sig = RsaSignSha1(other, msg);
  EXPECT_FALSE(RsaVerifySha1(key_->pub, msg, sig));
}

TEST_F(RsaTest, SignatureRejectsWrongLength) {
  Bytes msg = BytesOf("message");
  EXPECT_FALSE(RsaVerifySha1(key_->pub, msg, Bytes(5, 1)));
}

TEST_F(RsaTest, PublicKeySerializationRoundTrip) {
  Bytes wire = key_->pub.Serialize();
  Result<RsaPublicKey> back = RsaPublicKey::Deserialize(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().n, key_->pub.n);
  EXPECT_EQ(back.value().e, key_->pub.e);
}

TEST_F(RsaTest, PrivateKeySerializationRoundTrip) {
  Bytes wire = key_->Serialize();
  Result<RsaPrivateKey> back = RsaPrivateKey::Deserialize(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().d, key_->d);
  EXPECT_EQ(back.value().qinv, key_->qinv);
  // The deserialized key must still decrypt.
  Bytes msg = BytesOf("round trip");
  Drbg rng(3);
  Result<Bytes> ct = RsaEncryptPkcs1(key_->pub, msg, &rng);
  ASSERT_TRUE(ct.ok());
  Result<Bytes> pt = RsaDecryptPkcs1(back.value(), ct.value());
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(pt.value(), msg);
}

TEST_F(RsaTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(RsaPublicKey::Deserialize(BytesOf("nonsense")).ok());
  EXPECT_FALSE(RsaPrivateKey::Deserialize(Bytes(3, 0)).ok());
  EXPECT_FALSE(RsaPublicKey::Deserialize(Bytes()).ok());
}

TEST(RsaPrimality, KnownPrimesAndComposites) {
  Drbg rng(5);
  EXPECT_TRUE(IsProbablePrime(BigInt(2), &rng));
  EXPECT_TRUE(IsProbablePrime(BigInt(3), &rng));
  EXPECT_TRUE(IsProbablePrime(BigInt(65537), &rng));
  EXPECT_TRUE(IsProbablePrime(BigInt(1000003), &rng));
  EXPECT_TRUE(IsProbablePrime(BigInt::FromHex("ffffffffffffffc5"), &rng));  // 2^64 - 59
  EXPECT_FALSE(IsProbablePrime(BigInt(1), &rng));
  EXPECT_FALSE(IsProbablePrime(BigInt(0), &rng));
  EXPECT_FALSE(IsProbablePrime(BigInt(1000004), &rng));
  EXPECT_FALSE(IsProbablePrime(BigInt(65537ULL * 65539ULL), &rng));
  // Carmichael number 561 = 3 * 11 * 17 must be caught.
  EXPECT_FALSE(IsProbablePrime(BigInt(561), &rng));
}

TEST(RsaKeygen, Key512StillWorks) {
  Drbg rng(77);
  RsaPrivateKey key = RsaGenerateKey(512, &rng);
  EXPECT_EQ(key.pub.n.BitLength(), 512u);
  Bytes msg = BytesOf("small key");
  Result<Bytes> ct = RsaEncryptPkcs1(key.pub, msg, &rng);
  ASSERT_TRUE(ct.ok());
  Result<Bytes> pt = RsaDecryptPkcs1(key, ct.value());
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(pt.value(), msg);
}

// The AIK width: every fleet quote is an RSA-512 signature whose two CRT
// halves run the 4-limb Montgomery kernel. The bytes were recorded from the
// generic CIOS kernel, and s^65537 mod n reproduces the PKCS#1 v1.5 SHA-1
// encoding of the message (checked offline with Python), so any slip in
// the kernel or in key generation shows up as a byte diff.
TEST(RsaKeygen, Rsa512SignKnownAnswer) {
  Drbg rng(512);
  const RsaPrivateKey key = RsaGenerateKey(512, &rng);
  EXPECT_EQ(key.pub.n.ToHex(),
            "8e69e82ebddf2993cf393441f9c7e4809142222f04a1072d6e929b4ca1f7acae357ae1157b63e73f6fc50a"
            "67408d4ade73a8b9f6bfcc52b0d676f7eabadb0a4d");
  const Bytes message = BytesOf("flicker rsa-512 known-answer test");
  const Bytes signature = RsaSignSha1(key, message);
  EXPECT_EQ(ToHex(signature),
            "6383dec4589a3cce74f19ad03a8409f2890d27fa19a43b12e3558f852faaf39ab7ff03b85565c979b66b796"
            "1b4e647ca9428c1665fe34705bc11ab03710453c2");
  EXPECT_TRUE(RsaVerifySha1(key.pub, message, signature));
}

TEST(RsaKeygen, DeterministicGivenSeed) {
  Drbg rng1(1234);
  Drbg rng2(1234);
  RsaPrivateKey k1 = RsaGenerateKey(512, &rng1);
  RsaPrivateKey k2 = RsaGenerateKey(512, &rng2);
  EXPECT_EQ(k1.pub.n, k2.pub.n);
  EXPECT_EQ(k1.d, k2.d);
}

}  // namespace
}  // namespace flicker
