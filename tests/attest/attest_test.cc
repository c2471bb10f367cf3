// Attestation: Privacy CA certificates, the verified-AIK cache and full quote
// verification, including the attacks the verifier must catch.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/apps/hello.h"
#include "src/attest/privacy_ca.h"
#include "src/attest/verifier.h"
#include "src/core/flicker_platform.h"
#include "src/crypto/sha1.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {
namespace {

TEST(PrivacyCaTest, CertifyAndVerify) {
  PrivacyCa ca;
  Drbg rng(1);
  RsaPrivateKey aik = RsaGenerateKey(1024, &rng);
  AikCertificate cert = ca.Certify(aik.pub, "hp-dc5750");
  EXPECT_TRUE(PrivacyCa::Verify(ca.public_key(), cert));
}

TEST(PrivacyCaTest, RejectsTamperedCertificate) {
  PrivacyCa ca;
  Drbg rng(1);
  RsaPrivateKey aik = RsaGenerateKey(1024, &rng);
  AikCertificate cert = ca.Certify(aik.pub, "hp-dc5750");

  AikCertificate bad_label = cert;
  bad_label.tpm_label = "evil-machine";
  EXPECT_FALSE(PrivacyCa::Verify(ca.public_key(), bad_label));

  AikCertificate bad_key = cert;
  RsaPrivateKey other = RsaGenerateKey(1024, &rng);
  bad_key.aik_public = other.pub.Serialize();
  EXPECT_FALSE(PrivacyCa::Verify(ca.public_key(), bad_key));

  PrivacyCa other_ca(0xbad);
  EXPECT_FALSE(PrivacyCa::Verify(other_ca.public_key(), cert));
}

class AttestationTest : public ::testing::Test {
 protected:
  AttestationTest() {
    binary_ = std::make_unique<PalBinary>(BuildPal(std::make_shared<HelloWorldPal>()).take());
    cert_ = ca_.Certify(platform_.tpm()->aik_public(), "test-host");
    nonce_ = Sha1::Digest(BytesOf("challenge nonce"));
  }

  // Runs a session and collects the attestation.
  void RunSession() {
    SlbCoreOptions options;
    options.nonce = nonce_;
    Result<FlickerSessionResult> session = platform_.ExecuteSession(*binary_, Bytes(), options);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.value().ok());
    outputs_ = session.value().outputs();

    Result<AttestationResponse> response =
        platform_.tqd()->HandleChallenge(nonce_, PcrSelection({kSkinitPcr}));
    ASSERT_TRUE(response.ok());
    response_ = response.take();
  }

  SessionExpectation Expectation() {
    SessionExpectation expectation;
    expectation.binary = binary_.get();
    expectation.inputs = Bytes();
    expectation.outputs = outputs_;
    expectation.nonce = nonce_;
    return expectation;
  }

  FlickerPlatform platform_;
  PrivacyCa ca_;
  std::unique_ptr<PalBinary> binary_;
  AikCertificate cert_;
  Bytes nonce_;
  Bytes outputs_;
  AttestationResponse response_;
};

TEST_F(AttestationTest, ValidAttestationAccepted) {
  RunSession();
  EXPECT_TRUE(VerifyAttestation(Expectation(), response_, cert_, ca_.public_key(), nonce_).ok());
}

TEST_F(AttestationTest, WrongNonceRejected) {
  RunSession();
  Bytes other_nonce = Sha1::Digest(BytesOf("different"));
  Status st = VerifyAttestation(Expectation(), response_, cert_, ca_.public_key(), other_nonce);
  EXPECT_EQ(st.code(), StatusCode::kReplayDetected);
}

TEST_F(AttestationTest, ForgedOutputsRejected) {
  RunSession();
  SessionExpectation expectation = Expectation();
  expectation.outputs = BytesOf("Hello, forgery");
  Status st = VerifyAttestation(expectation, response_, cert_, ca_.public_key(), nonce_);
  EXPECT_EQ(st.code(), StatusCode::kIntegrityFailure);
}

TEST_F(AttestationTest, WrongPalRejected) {
  RunSession();
  class OtherPal : public HelloWorldPal {
   public:
    std::string code_version() const override { return "evil"; }
  };
  PalBinary other = BuildPal(std::make_shared<OtherPal>()).take();
  SessionExpectation expectation = Expectation();
  expectation.binary = &other;
  Status st = VerifyAttestation(expectation, response_, cert_, ca_.public_key(), nonce_);
  EXPECT_EQ(st.code(), StatusCode::kIntegrityFailure);
}

TEST_F(AttestationTest, TamperedSignatureRejected) {
  RunSession();
  response_.quote.signature[10] ^= 1;
  Status st = VerifyAttestation(Expectation(), response_, cert_, ca_.public_key(), nonce_);
  EXPECT_EQ(st.code(), StatusCode::kIntegrityFailure);
}

TEST_F(AttestationTest, SubstitutedAikRejected) {
  RunSession();
  // Attacker swaps in their own AIK (and even "certifies" it... with the
  // wrong CA).
  Drbg rng(3);
  RsaPrivateKey fake_aik = RsaGenerateKey(1024, &rng);
  response_.aik_public = fake_aik.pub.Serialize();
  Status st = VerifyAttestation(Expectation(), response_, cert_, ca_.public_key(), nonce_);
  EXPECT_EQ(st.code(), StatusCode::kIntegrityFailure);
}

TEST_F(AttestationTest, LiedAboutPcrValuesRejected) {
  RunSession();
  // The OS forges the reported PCR value; the signature no longer matches.
  response_.quote.pcr_values[0] = Bytes(kPcrSize, 0x42);
  Status st = VerifyAttestation(Expectation(), response_, cert_, ca_.public_key(), nonce_);
  EXPECT_EQ(st.code(), StatusCode::kIntegrityFailure);
}

TEST_F(AttestationTest, PostSessionExtendCannotImpersonatePal) {
  RunSession();
  // After the session the malicious OS extends PCR 17 with junk and
  // re-quotes: the chain no longer matches.
  ASSERT_TRUE(platform_.tpm()->PcrExtend(kSkinitPcr, Bytes(kPcrSize, 0x66)).ok());
  Result<AttestationResponse> re_quote =
      platform_.tqd()->HandleChallenge(nonce_, PcrSelection({kSkinitPcr}));
  ASSERT_TRUE(re_quote.ok());
  Status st =
      VerifyAttestation(Expectation(), re_quote.value(), cert_, ca_.public_key(), nonce_);
  EXPECT_EQ(st.code(), StatusCode::kIntegrityFailure);
}

TEST_F(AttestationTest, QuoteWithoutSkinitRejected) {
  // No session ever ran: PCR 17 is -1 (reboot value). The verifier's chain
  // can never match.
  Result<AttestationResponse> response =
      platform_.tqd()->HandleChallenge(nonce_, PcrSelection({kSkinitPcr}));
  ASSERT_TRUE(response.ok());
  outputs_ = BytesOf("Hello, world");
  Status st = VerifyAttestation(Expectation(), response.value(), cert_, ca_.public_key(), nonce_);
  EXPECT_EQ(st.code(), StatusCode::kIntegrityFailure);
}

TEST_F(AttestationTest, QuoteMissingPcr17Rejected) {
  RunSession();
  Result<AttestationResponse> response =
      platform_.tqd()->HandleChallenge(nonce_, PcrSelection({18}));
  ASSERT_TRUE(response.ok());
  Status st = VerifyAttestation(Expectation(), response.value(), cert_, ca_.public_key(), nonce_);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(AttestationTest, CorruptAikSerializationRejected) {
  RunSession();
  response_.aik_public = BytesOf("not a key");
  cert_.aik_public = response_.aik_public;
  // Re-sign the cert so the chain check passes and deserialization is what
  // fails: use a fresh CA to certify garbage.
  PrivacyCa ca2(0x77);
  AikCertificate cert2;
  cert2.aik_public = response_.aik_public;
  cert2.tpm_label = "x";
  cert2 = ca2.Certify(platform_.tpm()->aik_public(), "x");
  cert2.aik_public = response_.aik_public;
  // Signature now invalid -> integrity failure path also acceptable.
  Status st = VerifyAttestation(Expectation(), response_, cert2, ca2.public_key(), nonce_);
  EXPECT_FALSE(st.ok());
}

// Verification is step 1 (certificate) then step 2 (quote); the five-argument
// entry point and the two steps run by hand must agree.
TEST_F(AttestationTest, TwoStepVerificationMatchesFullChain) {
  RunSession();
  Result<CertifiedAik> aik = VerifyAikCertificate(cert_, ca_.public_key());
  ASSERT_TRUE(aik.ok());
  EXPECT_EQ(cert_.aik_public, aik.value().serialized);
  EXPECT_TRUE(VerifyAttestation(Expectation(), response_, aik.value(), nonce_).ok());

  AttestationResponse tampered = response_;
  tampered.quote.signature[10] ^= 1;
  EXPECT_EQ(StatusCode::kIntegrityFailure,
            VerifyAttestation(Expectation(), tampered, aik.value(), nonce_).code());
}

// Once the genuine certificate is cached, each forgery is still checked -
// and rejected - on every call, and no rejected certificate enters the cache.
TEST_F(AttestationTest, AikCacheRejectsForgedCertificatesOnEveryCall) {
  RunSession();
  VerifiedAikCache cache;
  Result<const CertifiedAik*> genuine = cache.Certify(cert_, ca_.public_key());
  ASSERT_TRUE(genuine.ok());
  EXPECT_EQ(1u, cache.size());
  EXPECT_TRUE(VerifyAttestation(Expectation(), response_, *genuine.value(), nonce_).ok());

  AikCertificate relabelled = cert_;  // Keeps the genuine signature.
  relabelled.tpm_label = "evil-machine";
  AikCertificate flipped = cert_;
  flipped.signature[7] ^= 0x01;
  PrivacyCa other_ca(0xbad);
  AikCertificate other_signed = other_ca.Certify(platform_.tpm()->aik_public(), "test-host");

  for (int call = 0; call < 3; ++call) {
    for (const AikCertificate* forged : {&relabelled, &flipped, &other_signed}) {
      EXPECT_EQ(StatusCode::kIntegrityFailure,
                cache.Certify(*forged, ca_.public_key()).status().code())
          << "label " << forged->tpm_label << ", call " << call;
    }
    EXPECT_EQ(1u, cache.size()) << "a rejected certificate entered the cache";
    EXPECT_TRUE(cache.Certify(cert_, ca_.public_key()).ok());
  }

  // The same certificate bytes under the CA that did sign them are a
  // separate, genuine entry.
  EXPECT_TRUE(cache.Certify(other_signed, other_ca.public_key()).ok());
  EXPECT_EQ(2u, cache.size());
}

TEST(VerifiedAikCacheTest, EntryCountNeverExceedsCapacity) {
  // A 512-bit CA key keeps minting kCapacity + 8 certificates cheap.
  Drbg rng(0xcace);
  const RsaPrivateKey ca_key = RsaGenerateKey(512, &rng);
  const RsaPrivateKey aik = RsaGenerateKey(512, &rng);
  auto certify = [&](size_t machine) {
    AikCertificate cert;
    cert.aik_public = aik.pub.Serialize();
    cert.tpm_label = "machine-" + std::to_string(machine);
    cert.signature = RsaSignSha1(ca_key, cert.SignedPayload());
    return cert;
  };

  VerifiedAikCache cache;
  for (size_t machine = 0; machine < VerifiedAikCache::kCapacity + 8; ++machine) {
    ASSERT_TRUE(cache.Certify(certify(machine), ca_key.pub).ok());
    ASSERT_LE(cache.size(), VerifiedAikCache::kCapacity);
  }
  EXPECT_EQ(VerifiedAikCache::kCapacity, cache.size());

  // The oldest entries were evicted: certifying one again re-verifies it,
  // still succeeds, and evicts another to stay within the bound.
  Result<const CertifiedAik*> evicted = cache.Certify(certify(0), ca_key.pub);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(aik.pub.n, evicted.value()->key.n);
  EXPECT_EQ(VerifiedAikCache::kCapacity, cache.size());
}

}  // namespace
}  // namespace flicker
