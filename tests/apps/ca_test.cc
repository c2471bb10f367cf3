// The certificate-authority application (§6.3.2): key protection, policy
// enforcement, database continuity and rollback detection.

#include <memory>

#include <gtest/gtest.h>

#include "src/apps/ca.h"
#include "src/crypto/sha1.h"

namespace flicker {
namespace {

class CaTest : public ::testing::Test {
 protected:
  CaTest()
      : binary_(MakeBinary()), host_(&platform_, &binary_, "Flicker Test CA") {
    owner_auth_ = Sha1::Digest(BytesOf("owner"));
    EXPECT_TRUE(platform_.tpm()->TakeOwnership(owner_auth_).ok());
  }

  static PalBinary MakeBinary() {
    PalBuildOptions options;
    options.measurement_stub = true;
    return BuildPal(std::make_shared<CaPal>(), options).take();
  }

  CertificateSigningRequest MakeCsr(const std::string& subject) {
    CertificateSigningRequest csr;
    csr.subject = subject;
    Drbg rng(BytesOf("subject-key:" + subject));
    csr.subject_public_key = RsaGenerateKey(512, &rng).pub.Serialize();
    return csr;
  }

  CaPolicy CorpPolicy() {
    CaPolicy policy;
    policy.allowed_suffixes = {".corp.example.com", ".example.org"};
    return policy;
  }

  FlickerPlatform platform_;
  PalBinary binary_;
  CertificateAuthorityHost host_;
  Bytes owner_auth_;
};

TEST_F(CaTest, InitializeProducesPublicKey) {
  Result<Bytes> pub = host_.Initialize(owner_auth_);
  ASSERT_TRUE(pub.ok()) << pub.status().ToString();
  EXPECT_TRUE(RsaPublicKey::Deserialize(pub.value()).ok());
  EXPECT_FALSE(host_.sealed_state().empty());
}

TEST_F(CaTest, SignsApprovedCsr) {
  ASSERT_TRUE(host_.Initialize(owner_auth_).ok());
  CertificateAuthorityHost::SignReport report =
      host_.SignCertificate(MakeCsr("www.corp.example.com"), CorpPolicy());
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.certificate.serial, 1u);
  EXPECT_EQ(report.certificate.subject, "www.corp.example.com");
  EXPECT_EQ(report.certificate.issuer, "Flicker Test CA");
  EXPECT_TRUE(
      CertificateAuthorityHost::VerifyCertificate(host_.ca_public_key(), report.certificate));
}

TEST_F(CaTest, PolicyRejectsOutOfScopeSubject) {
  ASSERT_TRUE(host_.Initialize(owner_auth_).ok());
  CertificateAuthorityHost::SignReport report =
      host_.SignCertificate(MakeCsr("www.evil.com"), CorpPolicy());
  ASSERT_FALSE(report.status.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kPermissionDenied);
}

TEST_F(CaTest, SerialNumbersAdvanceAcrossSessions) {
  ASSERT_TRUE(host_.Initialize(owner_auth_).ok());
  for (uint64_t i = 1; i <= 3; ++i) {
    CertificateAuthorityHost::SignReport report = host_.SignCertificate(
        MakeCsr("host" + std::to_string(i) + ".corp.example.com"), CorpPolicy());
    ASSERT_TRUE(report.status.ok());
    EXPECT_EQ(report.certificate.serial, i);
  }
}

TEST_F(CaTest, RollbackOfCertDatabaseDetected) {
  ASSERT_TRUE(host_.Initialize(owner_auth_).ok());
  Bytes old_state = host_.sealed_state();
  ASSERT_TRUE(host_.SignCertificate(MakeCsr("a.corp.example.com"), CorpPolicy()).status.ok());

  // Malicious OS rolls the database back to before the first signature
  // (e.g. to reuse a serial or erase an issued cert from the log).
  host_.set_sealed_state(old_state);
  CertificateAuthorityHost::SignReport report =
      host_.SignCertificate(MakeCsr("b.corp.example.com"), CorpPolicy());
  ASSERT_FALSE(report.status.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kReplayDetected);
}

TEST_F(CaTest, SignatureBindsAllFields) {
  ASSERT_TRUE(host_.Initialize(owner_auth_).ok());
  CertificateAuthorityHost::SignReport report =
      host_.SignCertificate(MakeCsr("www.corp.example.com"), CorpPolicy());
  ASSERT_TRUE(report.status.ok());

  Certificate tampered = report.certificate;
  tampered.subject = "www.evil.com";
  EXPECT_FALSE(CertificateAuthorityHost::VerifyCertificate(host_.ca_public_key(), tampered));

  tampered = report.certificate;
  tampered.serial = 999;
  EXPECT_FALSE(CertificateAuthorityHost::VerifyCertificate(host_.ca_public_key(), tampered));

  tampered = report.certificate;
  tampered.issuer = "Another CA";
  EXPECT_FALSE(CertificateAuthorityHost::VerifyCertificate(host_.ca_public_key(), tampered));
}

TEST_F(CaTest, SignBeforeInitializeRejected) {
  CertificateAuthorityHost::SignReport report =
      host_.SignCertificate(MakeCsr("x.corp.example.com"), CorpPolicy());
  EXPECT_EQ(report.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(CaTest, SigningLatencyMatchesSection742) {
  ASSERT_TRUE(host_.Initialize(owner_auth_).ok());
  CertificateAuthorityHost::SignReport report =
      host_.SignCertificate(MakeCsr("www.corp.example.com"), CorpPolicy());
  ASSERT_TRUE(report.status.ok());
  // §7.4.2: 906.2 ms average (unseal-dominated). Allow 10%.
  EXPECT_NEAR(report.session_ms, 906.2, 91.0);
}

TEST(CaPolicyTest, SuffixMatching) {
  CaPolicy policy;
  policy.allowed_suffixes = {".corp.example.com"};
  EXPECT_TRUE(policy.Approves("www.corp.example.com"));
  EXPECT_TRUE(policy.Approves("a.b.corp.example.com"));
  EXPECT_FALSE(policy.Approves("corp.example.com.evil.com"));
  EXPECT_FALSE(policy.Approves("example.com"));
  EXPECT_FALSE(policy.Approves(""));
  EXPECT_FALSE(CaPolicy{}.Approves("anything"));
}

TEST(CaPolicyTest, SerializationRoundTrip) {
  CaPolicy policy;
  policy.allowed_suffixes = {".a.com", ".b.org"};
  Result<CaPolicy> back = CaPolicy::Deserialize(policy.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().allowed_suffixes, policy.allowed_suffixes);
  EXPECT_FALSE(CaPolicy::Deserialize(Bytes(2, 9)).ok());
}

TEST(CaPolicyTest, SuffixCountIsCapped) {
  CaPolicy policy;
  policy.allowed_suffixes.assign(kMaxCaPolicySuffixes, ".example.org");
  EXPECT_TRUE(CaPolicy::Deserialize(policy.Serialize()).ok());
  policy.allowed_suffixes.push_back(".example.net");
  EXPECT_EQ(CaPolicy::Deserialize(policy.Serialize()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CertificateTest, SerializationRoundTrip) {
  Certificate cert;
  cert.serial = 42;
  cert.subject = "host.example.org";
  cert.subject_public_key = BytesOf("keybytes");
  cert.issuer = "Issuer";
  cert.signature = BytesOf("sig");
  Result<Certificate> back = Certificate::Deserialize(cert.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().serial, 42u);
  EXPECT_EQ(back.value().subject, cert.subject);
  EXPECT_EQ(back.value().signature, cert.signature);
  EXPECT_FALSE(Certificate::Deserialize(BytesOf("x")).ok());
}

TEST(CsrTest, SerializationRoundTrip) {
  CertificateSigningRequest csr;
  csr.subject = "www.example.org";
  csr.subject_public_key = BytesOf("pk");
  Result<CertificateSigningRequest> back =
      CertificateSigningRequest::Deserialize(csr.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().subject, csr.subject);
  EXPECT_FALSE(CertificateSigningRequest::Deserialize(Bytes(1, 0)).ok());
}

}  // namespace
}  // namespace flicker
