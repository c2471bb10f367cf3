// The wire-level challenge/response protocol: serialization, end-to-end
// verification over a LossyChannel, and wire-tampering attacks.

#include "src/core/remote_attestation.h"

#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/hello.h"
#include "src/crypto/sha1.h"

namespace flicker {
namespace {

class RemoteAttestationTest : public ::testing::Test {
 protected:
  RemoteAttestationTest()
      : binary_(BuildPal(std::make_shared<HelloWorldPal>()).take()),
        cert_(ca_.Certify(platform_.tpm()->aik_public(), "remote-host")),
        service_(&platform_, cert_),
        verifier_(&binary_, ca_.public_key()),
        channel_(platform_.clock()) {}

  // Carries one frame across the wire and returns what arrived.
  Bytes Carry(NetEndpoint from, const Bytes& frame) {
    channel_.Send(from, frame);
    Bytes arrived;
    EXPECT_TRUE(channel_.Receive(
        from == NetEndpoint::kClient ? NetEndpoint::kServer : NetEndpoint::kClient, &arrived));
    return arrived;
  }

  FlickerPlatform platform_;
  PalBinary binary_;
  PrivacyCa ca_;
  AikCertificate cert_;
  AttestationService service_;
  AttestationVerifier verifier_;
  LossyChannel channel_;
};

TEST_F(RemoteAttestationTest, EndToEndOverTheWire) {
  Bytes challenge = Carry(NetEndpoint::kClient, verifier_.MakeChallenge());
  Result<Bytes> reply = service_.HandleChallenge(challenge, binary_, BytesOf("input"));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();

  AttestationVerifier::Outcome outcome =
      verifier_.CheckReply(Carry(NetEndpoint::kServer, reply.value()));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.log.outputs, BytesOf("Hello, world"));
  EXPECT_EQ(outcome.log.inputs, BytesOf("input"));
  EXPECT_EQ(outcome.log.pal_name, "hello-world");
}

TEST_F(RemoteAttestationTest, NonceIsSingleUse) {
  Bytes challenge = verifier_.MakeChallenge();
  Result<Bytes> reply = service_.HandleChallenge(challenge, binary_, Bytes());
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(verifier_.CheckReply(reply.value()).status.ok());
  // Replaying the same reply fails: the nonce was consumed.
  EXPECT_EQ(verifier_.CheckReply(reply.value()).status.code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(RemoteAttestationTest, StaleReplyRejected) {
  // Capture a reply for challenge 1, deliver it against challenge 2.
  Bytes challenge1 = verifier_.MakeChallenge();
  Result<Bytes> reply1 = service_.HandleChallenge(challenge1, binary_, Bytes());
  ASSERT_TRUE(reply1.ok());
  Bytes challenge2 = verifier_.MakeChallenge();  // Supersedes challenge 1.
  AttestationVerifier::Outcome outcome = verifier_.CheckReply(reply1.value());
  EXPECT_EQ(outcome.status.code(), StatusCode::kReplayDetected);
}

TEST_F(RemoteAttestationTest, TamperedWireRejected) {
  Bytes challenge = verifier_.MakeChallenge();
  Result<Bytes> reply = service_.HandleChallenge(challenge, binary_, Bytes());
  ASSERT_TRUE(reply.ok());
  Bytes tampered = reply.value();
  // Flip a byte deep in the payload (somewhere in the quote signature).
  tampered[tampered.size() - 10] ^= 0x80;
  AttestationVerifier::Outcome outcome = verifier_.CheckReply(tampered);
  EXPECT_FALSE(outcome.status.ok());
}

TEST_F(RemoteAttestationTest, OutputForgeryInLogRejected) {
  Bytes challenge = verifier_.MakeChallenge();
  Result<Bytes> reply_wire = service_.HandleChallenge(challenge, binary_, Bytes());
  ASSERT_TRUE(reply_wire.ok());
  Result<AttestationReply> reply = AttestationReply::Deserialize(reply_wire.value());
  ASSERT_TRUE(reply.ok());
  AttestationReply forged = reply.take();
  forged.log.outputs = BytesOf("Hello, forgery");
  AttestationVerifier::Outcome outcome = verifier_.CheckReply(forged.Serialize());
  EXPECT_EQ(outcome.status.code(), StatusCode::kIntegrityFailure);
}

TEST_F(RemoteAttestationTest, MalformedChallengeRejectedByService) {
  Result<Bytes> reply = service_.HandleChallenge(BytesOf("junk"), binary_, Bytes());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
}

TEST(RemoteAttestationWireTest, QuoteSerializationRoundTrip) {
  TpmQuote quote;
  quote.selection.Select(17);
  quote.selection.Select(18);
  quote.pcr_values = {Bytes(20, 1), Bytes(20, 2)};
  quote.nonce = Bytes(20, 3);
  quote.signature = Bytes(128, 4);

  Result<TpmQuote> back = DeserializeQuote(SerializeQuote(quote));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().selection.mask(), quote.selection.mask());
  EXPECT_EQ(back.value().pcr_values, quote.pcr_values);
  EXPECT_EQ(back.value().nonce, quote.nonce);
  EXPECT_EQ(back.value().signature, quote.signature);
  EXPECT_FALSE(DeserializeQuote(Bytes(5, 9)).ok());
}

TEST(RemoteAttestationWireTest, CertificateSerializationRoundTrip) {
  AikCertificate certificate;
  certificate.aik_public = BytesOf("aik bytes");
  certificate.tpm_label = "host-7";
  certificate.signature = BytesOf("ca sig");
  Result<AikCertificate> back =
      DeserializeAikCertificate(SerializeAikCertificate(certificate));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().aik_public, certificate.aik_public);
  EXPECT_EQ(back.value().tpm_label, certificate.tpm_label);
  EXPECT_EQ(back.value().signature, certificate.signature);
  EXPECT_FALSE(DeserializeAikCertificate(Bytes(2, 1)).ok());
}

TEST_F(RemoteAttestationTest, DuplicatedChallengeFrameRejectedExactlyOnce) {
  // A wire-duplicated (or attacker-replayed) challenge frame must not buy a
  // second PAL session: the service's nonce cache answers the twin with
  // kReplayDetected.
  Bytes challenge = verifier_.MakeChallenge();
  Result<Bytes> first = service_.HandleChallenge(challenge, binary_, Bytes());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(service_.replays_rejected(), 0u);

  Result<Bytes> duplicate = service_.HandleChallenge(challenge, binary_, Bytes());
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kReplayDetected);
  EXPECT_EQ(service_.replays_rejected(), 1u);
}

TEST_F(RemoteAttestationTest, RecordedReplyReplayedForFreshChallengeRejected) {
  // Attacker records a genuine reply, then re-sends it when the verifier
  // issues a fresh challenge: the nonce mismatch must reject it, exactly
  // once (the verifier's pending nonce survives for the real reply).
  Bytes challenge1 = verifier_.MakeChallenge();
  Result<Bytes> recorded = service_.HandleChallenge(challenge1, binary_, Bytes());
  ASSERT_TRUE(recorded.ok());
  ASSERT_TRUE(verifier_.CheckReply(recorded.value()).status.ok());

  Bytes challenge2 = verifier_.MakeChallenge();
  AttestationVerifier::Outcome replayed = verifier_.CheckReply(recorded.value());
  EXPECT_EQ(replayed.status.code(), StatusCode::kReplayDetected);

  // The genuine answer to challenge 2 fails too: CheckReply consumed the
  // pending nonce on the replay attempt (single-use, fail closed).
  Result<Bytes> genuine = service_.HandleChallenge(challenge2, binary_, Bytes());
  ASSERT_TRUE(genuine.ok());
  EXPECT_EQ(verifier_.CheckReply(genuine.value()).status.code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(RemoteAttestationTest, TrustWireNonceModeAcceptsStaleReply) {
  // The deliberately vulnerable verifier mode: trusting the nonce the reply
  // itself claims makes a recorded genuine reply verify against any fresh
  // challenge. This is the accepted-but-wrong failure the hardened path
  // (and the chaos matrix) must catch.
  Bytes challenge1 = verifier_.MakeChallenge();
  Result<Bytes> recorded = service_.HandleChallenge(challenge1, binary_, Bytes());
  ASSERT_TRUE(recorded.ok());
  ASSERT_TRUE(verifier_.CheckReply(recorded.value()).status.ok());

  verifier_.MakeChallenge();  // Fresh outstanding challenge.
  verifier_.set_trust_wire_nonce_for_testing(true);
  AttestationVerifier::Outcome replayed = verifier_.CheckReply(recorded.value());
  EXPECT_TRUE(replayed.status.ok()) << "vulnerable mode should accept the replay";
}

TEST_F(RemoteAttestationTest, OversizedChallengeRejectedBeforeParsing) {
  Result<Bytes> reply =
      service_.HandleChallenge(Bytes(kMaxChallengeWireBytes + 1, 0x41), binary_, Bytes());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RemoteAttestationTest, OutOfBoundsNonceRejected) {
  AttestationChallenge oversized;
  oversized.nonce = Bytes(kMaxNonceBytes + 1, 0x42);
  oversized.selection.Select(kSkinitPcr);
  Result<Bytes> reply = service_.HandleChallenge(oversized.Serialize(), binary_, Bytes());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);

  AttestationChallenge empty_nonce;
  empty_nonce.selection.Select(kSkinitPcr);
  reply = service_.HandleChallenge(empty_nonce.Serialize(), binary_, Bytes());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
}

// Table-driven hostile-input battery: every wire deserializer in this module
// must return a Status (never crash) on truncated, garbled, oversized and
// zero-length input.
TEST_F(RemoteAttestationTest, EveryDeserializerSurvivesHostileBytes) {
  Bytes challenge_wire = verifier_.MakeChallenge();
  Result<Bytes> reply_wire = service_.HandleChallenge(challenge_wire, binary_, BytesOf("in"));
  ASSERT_TRUE(reply_wire.ok());
  Result<AttestationReply> reply = AttestationReply::Deserialize(reply_wire.value());
  ASSERT_TRUE(reply.ok());
  AttestationResponse response;
  response.quote = reply.value().quote;
  response.aik_public = reply.value().aik_public;

  struct Case {
    const char* name;
    Bytes valid;
    std::function<Status(const Bytes&)> parse;
    // Offset of the frame's big-endian PCR-selection mask; -1 when none.
    long mask_at = -1;
  };
  const long challenge_mask_at =
      4 + static_cast<long>(AttestationChallenge::Deserialize(challenge_wire).value().nonce.size());
  const std::vector<Case> cases = {
      {"quote", SerializeQuote(reply.value().quote),
       [](const Bytes& b) { return DeserializeQuote(b).status(); }, 0},
      {"aik_certificate", SerializeAikCertificate(reply.value().aik_certificate),
       [](const Bytes& b) { return DeserializeAikCertificate(b).status(); }},
      {"attestation_response", SerializeAttestationResponse(response),
       [](const Bytes& b) { return DeserializeAttestationResponse(b).status(); }},
      {"challenge", challenge_wire,
       [](const Bytes& b) { return AttestationChallenge::Deserialize(b).status(); },
       challenge_mask_at},
      {"reply", reply_wire.value(),
       [](const Bytes& b) { return AttestationReply::Deserialize(b).status(); }},
  };

  for (const Case& c : cases) {
    // Sanity: the untouched wire parses.
    EXPECT_TRUE(c.parse(c.valid).ok()) << c.name;
    // Zero-length.
    EXPECT_FALSE(c.parse(Bytes()).ok()) << c.name << " empty";
    // Truncated at every prefix length (capped for the large reply wire).
    size_t step = c.valid.size() > 256 ? 17 : 1;
    for (size_t cut = 0; cut < c.valid.size(); cut += step) {
      Bytes truncated(c.valid.begin(), c.valid.begin() + static_cast<long>(cut));
      Status verdict = c.parse(truncated);
      EXPECT_FALSE(verdict.ok()) << c.name << " cut=" << cut;
    }
    // Garbled: flip a byte at several positions; either a parse error or a
    // changed-but-parsed value is fine, crashing is not.
    for (size_t pos = 0; pos < c.valid.size(); pos += (c.valid.size() / 16) + 1) {
      Bytes garbled = c.valid;
      garbled[pos] ^= 0xA5;
      (void)c.parse(garbled);
    }
    // Mask bits at or above kNumPcrs name no PCR: refused with a type,
    // never narrowed to the bits that happen to be valid.
    if (c.mask_at >= 0) {
      Bytes high_mask = c.valid;
      high_mask[static_cast<size_t>(c.mask_at)] = 0x5a;
      EXPECT_EQ(c.parse(high_mask).code(), StatusCode::kInvalidArgument) << c.name << " high mask";
    }
    // Oversized frame of zeros.
    EXPECT_FALSE(c.parse(Bytes(kMaxReplyWireBytes + 1, 0)).ok()) << c.name << " oversized";
  }
}

TEST(RemoteAttestationWireTest, QuoteRefusesAbsurdPcrCount) {
  // A quote claiming more PCR values than PCRs exist is hostile: the count
  // is bounded before the allocation loop runs.
  Bytes wire;
  auto put_u32 = [&wire](uint32_t v) {
    wire.push_back(static_cast<uint8_t>(v >> 24));
    wire.push_back(static_cast<uint8_t>(v >> 16));
    wire.push_back(static_cast<uint8_t>(v >> 8));
    wire.push_back(static_cast<uint8_t>(v));
  };
  put_u32(0);           // Empty selection mask.
  put_u32(0xFFFFFFFF);  // Claimed PCR value count.
  EXPECT_FALSE(DeserializeQuote(wire).ok());
}

TEST(RemoteAttestationWireTest, ChallengeSerializationRoundTrip) {
  AttestationChallenge challenge;
  challenge.nonce = Bytes(20, 0x5e);
  challenge.selection.Select(17);
  Result<AttestationChallenge> back =
      AttestationChallenge::Deserialize(challenge.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().nonce, challenge.nonce);
  EXPECT_TRUE(back.value().selection.IsSelected(17));
  EXPECT_FALSE(AttestationChallenge::Deserialize(Bytes(1, 1)).ok());
}

}  // namespace
}  // namespace flicker
