// The IMA-style trusted-boot baseline and its comparison properties against
// Flicker's fine-grained attestation.

#include "src/attest/ima.h"

#include <gtest/gtest.h>

#include "src/crypto/sha1.h"

namespace flicker {
namespace {

class ImaTest : public ::testing::Test {
 protected:
  ImaTest() : machine_(MachineConfig{}), ima_(&machine_) {}

  // Boots a stack and records the known-good database as it goes.
  void BootCleanStack() {
    for (const char* component :
         {"bios", "bootloader", "kernel-2.6.20", "libc-2.5", "sshd-4.3p2", "apache-2.2"}) {
      Bytes content = BytesOf(std::string("content-of-") + component);
      ASSERT_TRUE(ima_.MeasureEvent(component, content).ok());
      known_good_.insert(ToHex(Sha1::Digest(content)));
    }
  }

  Machine machine_;
  ImaSystem ima_;
  std::set<std::string> known_good_;
  Bytes nonce_ = Sha1::Digest(BytesOf("ima-nonce"));
};

TEST_F(ImaTest, CleanBootVerifies) {
  BootCleanStack();
  Result<ImaAttestation> attestation = ima_.Attest(nonce_);
  ASSERT_TRUE(attestation.ok());
  ImaVerdict verdict =
      VerifyImaAttestation(attestation.value(), machine_.tpm()->aik_public(), known_good_, nonce_);
  EXPECT_TRUE(verdict.quote_signature_valid);
  EXPECT_TRUE(verdict.log_matches_pcr);
  EXPECT_EQ(verdict.entries_unknown, 0u);
  EXPECT_TRUE(verdict.Trustworthy());
  EXPECT_EQ(verdict.entries_total, 6u);
}

TEST_F(ImaTest, SingleUnknownEntrySpoilsTheVerdict) {
  BootCleanStack();
  // The user updates one application the verifier has no digest for: the
  // whole attestation becomes unverifiable - Flicker's core criticism of
  // coarse attestation (§8).
  ASSERT_TRUE(ima_.MeasureEvent("firefox-2.0-nightly", BytesOf("new build")).ok());
  Result<ImaAttestation> attestation = ima_.Attest(nonce_);
  ASSERT_TRUE(attestation.ok());
  ImaVerdict verdict =
      VerifyImaAttestation(attestation.value(), machine_.tpm()->aik_public(), known_good_, nonce_);
  EXPECT_TRUE(verdict.quote_signature_valid);
  EXPECT_TRUE(verdict.log_matches_pcr);
  EXPECT_EQ(verdict.entries_unknown, 1u);
  EXPECT_FALSE(verdict.Trustworthy());
  EXPECT_EQ(verdict.unknown_entries, std::vector<std::string>{"firefox-2.0-nightly"});
}

TEST_F(ImaTest, TamperedLogDetected) {
  BootCleanStack();
  Result<ImaAttestation> attestation = ima_.Attest(nonce_);
  ASSERT_TRUE(attestation.ok());
  // The OS doctors the log to hide a measured rootkit module.
  ImaAttestation doctored = attestation.value();
  doctored.log.pop_back();
  ImaVerdict verdict =
      VerifyImaAttestation(doctored, machine_.tpm()->aik_public(), known_good_, nonce_);
  EXPECT_TRUE(verdict.quote_signature_valid);
  EXPECT_FALSE(verdict.log_matches_pcr);
  EXPECT_FALSE(verdict.Trustworthy());
}

TEST_F(ImaTest, CompromisedEarlyComponentTaintsEverything) {
  // A subverted bootloader: its own entry is unknown, and nothing measured
  // afterwards can be trusted even if it matches (the lack-of-isolation
  // critique: "a single compromised piece of code may compromise all
  // subsequent code").
  Bytes evil = BytesOf("evil bootloader");
  ASSERT_TRUE(ima_.MeasureEvent("bootloader", evil).ok());
  BootCleanStack();
  Result<ImaAttestation> attestation = ima_.Attest(nonce_);
  ASSERT_TRUE(attestation.ok());
  ImaVerdict verdict =
      VerifyImaAttestation(attestation.value(), machine_.tpm()->aik_public(), known_good_, nonce_);
  EXPECT_EQ(verdict.entries_unknown, 1u);
  EXPECT_FALSE(verdict.Trustworthy());
}

TEST_F(ImaTest, WrongNonceFailsClosed) {
  BootCleanStack();
  Result<ImaAttestation> attestation = ima_.Attest(nonce_);
  ASSERT_TRUE(attestation.ok());
  ImaVerdict verdict = VerifyImaAttestation(attestation.value(), machine_.tpm()->aik_public(),
                                            known_good_, Sha1::Digest(BytesOf("other")));
  EXPECT_FALSE(verdict.quote_signature_valid);
  EXPECT_FALSE(verdict.Trustworthy());
}

TEST_F(ImaTest, LogLeaksSoftwareInventory) {
  // The privacy half of the critique: the attestation necessarily reveals
  // the platform's full software list to any verifier.
  BootCleanStack();
  Result<ImaAttestation> attestation = ima_.Attest(nonce_);
  ASSERT_TRUE(attestation.ok());
  std::vector<std::string> revealed;
  for (const ImaEvent& event : attestation.value().log) {
    revealed.push_back(event.description);
  }
  EXPECT_NE(std::find(revealed.begin(), revealed.end(), "apache-2.2"), revealed.end());
  EXPECT_NE(std::find(revealed.begin(), revealed.end(), "sshd-4.3p2"), revealed.end());
}

TEST_F(ImaTest, StaticPcrSurvivesDynamicReset) {
  // SKINIT resets only PCRs 17-23; the IMA aggregate in PCR 10 is intact
  // afterwards, so trusted boot and Flicker coexist.
  BootCleanStack();
  Bytes before = machine_.tpm()->PcrRead(10).value();
  machine_.tpm_transport()->hardware()->SkinitReset(Sha1::Digest(BytesOf("pal")));
  EXPECT_EQ(machine_.tpm()->PcrRead(10).value(), before);
}

}  // namespace
}  // namespace flicker
