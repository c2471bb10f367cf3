// Merkle-aggregated batch quotes end to end: K challengers, one TPM quote,
// every challenger convinced by its own auth path - plus the attacks the
// verifier must catch (foreign slices, tampered paths, cross-batch replay).

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/hello.h"
#include "src/attest/privacy_ca.h"
#include "src/attest/verifier.h"
#include "src/core/flicker_platform.h"
#include "src/core/remote_attestation.h"
#include "src/crypto/merkle.h"
#include "src/crypto/sha1.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {
namespace {

class BatchQuoteTest : public ::testing::Test {
 protected:
  BatchQuoteTest() {
    binary_ = std::make_unique<PalBinary>(BuildPal(std::make_shared<HelloWorldPal>()).take());
    cert_ = ca_.Certify(platform_.tpm()->aik_public(), "test-host");
    session_nonce_ = Sha1::Digest(BytesOf("session nonce"));
  }

  // One Flicker session whose PCR 17 chain every challenger expects.
  void RunSession() {
    SlbCoreOptions options;
    options.nonce = session_nonce_;
    Result<FlickerSessionResult> session = platform_.ExecuteSession(*binary_, Bytes(), options);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.value().ok());
    outputs_ = session.value().outputs();
  }

  // K distinct challenge nonces coalesced into one flushed batch.
  std::vector<BatchQuoteResponse> QuoteBatch(size_t challengers, const std::string& tag) {
    nonces_.clear();
    for (size_t i = 0; i < challengers; ++i) {
      nonces_.push_back(Sha1::Digest(BytesOf("challenge-" + tag + "-" + std::to_string(i))));
      EXPECT_TRUE(platform_.tqd()->SubmitBatched(nonces_.back(), PcrSelection({kSkinitPcr})).ok());
    }
    std::vector<BatchQuoteResponse> slices;
    EXPECT_TRUE(platform_.tqd()->FlushReadyBatches(&slices, /*force=*/true).ok());
    return slices;
  }

  SessionExpectation Expectation() {
    SessionExpectation expectation;
    expectation.binary = binary_.get();
    expectation.inputs = Bytes();
    expectation.outputs = outputs_;
    expectation.nonce = session_nonce_;
    return expectation;
  }

  FlickerPlatform platform_;
  PrivacyCa ca_;
  std::unique_ptr<PalBinary> binary_;
  AikCertificate cert_;
  Bytes session_nonce_;
  Bytes outputs_;
  std::vector<Bytes> nonces_;
};

TEST_F(BatchQuoteTest, OneQuoteConvincesEveryChallenger) {
  RunSession();
  std::vector<BatchQuoteResponse> slices = QuoteBatch(8, "a");
  ASSERT_EQ(slices.size(), 8u);
  EXPECT_EQ(platform_.tqd()->batch_quotes(), 1u);

  // All slices share the one signature, and each verifies for its own nonce.
  for (size_t i = 0; i < slices.size(); ++i) {
    EXPECT_EQ(slices[i].response.quote.signature, slices[0].response.quote.signature);
    EXPECT_EQ(slices[i].nonce, nonces_[i]);
    EXPECT_TRUE(
        VerifyBatchQuote(Expectation(), slices[i], cert_, ca_.public_key(), nonces_[i]).ok())
        << "challenger " << i;
  }

  // The quoted externalData is exactly the Merkle root over the batch.
  Bytes root = MerkleTree::Build(nonces_).value().root();
  EXPECT_EQ(slices[0].response.quote.nonce, root);
}

TEST_F(BatchQuoteTest, SingleChallengeDegenerateBatchVerifies) {
  RunSession();
  std::vector<BatchQuoteResponse> slices = QuoteBatch(1, "solo");
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_TRUE(slices[0].path.steps.empty());
  EXPECT_TRUE(VerifyBatchQuote(Expectation(), slices[0], cert_, ca_.public_key(), nonces_[0]).ok());
}

TEST_F(BatchQuoteTest, ForeignSliceRejected) {
  RunSession();
  std::vector<BatchQuoteResponse> slices = QuoteBatch(4, "a");
  ASSERT_EQ(slices.size(), 4u);
  // Challenger 0 is handed challenger 1's slice verbatim.
  Status st = VerifyBatchQuote(Expectation(), slices[1], cert_, ca_.public_key(), nonces_[0]);
  EXPECT_EQ(st.code(), StatusCode::kReplayDetected);
  // A slice relabelled with challenger 0's nonce but keeping challenger 1's
  // path folds to the wrong root.
  BatchQuoteResponse forged = slices[1];
  forged.nonce = nonces_[0];
  st = VerifyBatchQuote(Expectation(), forged, cert_, ca_.public_key(), nonces_[0]);
  EXPECT_EQ(st.code(), StatusCode::kReplayDetected);
}

TEST_F(BatchQuoteTest, TamperedPathRejected) {
  RunSession();
  std::vector<BatchQuoteResponse> slices = QuoteBatch(4, "a");
  ASSERT_EQ(slices.size(), 4u);
  BatchQuoteResponse tampered = slices[2];
  ASSERT_FALSE(tampered.path.steps.empty());
  tampered.path.steps[0].sibling[3] ^= 0x40;
  Status st = VerifyBatchQuote(Expectation(), tampered, cert_, ca_.public_key(), nonces_[2]);
  EXPECT_EQ(st.code(), StatusCode::kReplayDetected);
}

TEST_F(BatchQuoteTest, CrossBatchReplayRejected) {
  RunSession();
  std::vector<BatchQuoteResponse> first = QuoteBatch(3, "one");
  ASSERT_EQ(first.size(), 3u);
  Bytes old_nonce = nonces_[0];
  BatchQuoteResponse old_slice = first[0];

  // The same challenger issues a fresh nonce in a later batch; replaying the
  // old (genuine, once-valid) slice must fail.
  std::vector<BatchQuoteResponse> second = QuoteBatch(3, "two");
  ASSERT_EQ(second.size(), 3u);
  Bytes new_nonce = nonces_[0];
  Status st = VerifyBatchQuote(Expectation(), old_slice, cert_, ca_.public_key(), new_nonce);
  EXPECT_EQ(st.code(), StatusCode::kReplayDetected);

  // Grafting the old quote onto the new batch's path fails too: the path
  // folds to the new root, but the old quote signs the old root.
  BatchQuoteResponse grafted = second[0];
  grafted.response = old_slice.response;
  st = VerifyBatchQuote(Expectation(), grafted, cert_, ca_.public_key(), new_nonce);
  EXPECT_EQ(st.code(), StatusCode::kReplayDetected);

  // The old slice still verifies against its own old nonce - the replay
  // defence is nonce freshness, exactly as for single quotes.
  EXPECT_TRUE(VerifyBatchQuote(Expectation(), old_slice, cert_, ca_.public_key(), old_nonce).ok());
}

TEST_F(BatchQuoteTest, WireRoundTripAndCorruptionRejected) {
  RunSession();
  std::vector<BatchQuoteResponse> slices = QuoteBatch(5, "wire");
  ASSERT_EQ(slices.size(), 5u);

  Bytes wire = SerializeBatchQuoteResponse(slices[3]);
  Result<BatchQuoteResponse> round = DeserializeBatchQuoteResponse(wire);
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(
      VerifyBatchQuote(Expectation(), round.value(), cert_, ca_.public_key(), nonces_[3]).ok());

  Bytes truncated(wire.begin(), wire.end() - 3);
  EXPECT_FALSE(DeserializeBatchQuoteResponse(truncated).ok());

  Bytes oversized(kMaxReplyWireBytes + 1, 0);
  EXPECT_FALSE(DeserializeBatchQuoteResponse(oversized).ok());
}

TEST_F(BatchQuoteTest, BatchedVerificationSharesOneRsaCheck) {
  RunSession();
  std::vector<BatchQuoteResponse> slices = QuoteBatch(6, "rsa");
  ASSERT_EQ(slices.size(), 6u);

  // The amortization claim behind VerifyBatchQuote: all six slices carry the
  // same TPM_QUOTE_INFO message under the same signature, so one RSA check
  // settles them all. Build the signed messages and check that they agree.
  Result<RsaPublicKey> aik = RsaPublicKey::Deserialize(slices[0].response.aik_public);
  ASSERT_TRUE(aik.ok());
  std::vector<Bytes> messages;
  std::vector<Bytes> signatures;
  for (const BatchQuoteResponse& slice : slices) {
    Bytes composite = RecomputeQuoteComposite(slice.response.quote);
    Bytes info = BytesOf("QUOT");
    info.insert(info.end(), composite.begin(), composite.end());
    info.insert(info.end(), slice.response.quote.nonce.begin(),
                slice.response.quote.nonce.end());
    messages.push_back(info);
    signatures.push_back(slice.response.quote.signature);
  }
  for (size_t i = 0; i < slices.size(); ++i) {
    EXPECT_EQ(messages[i], messages[0]) << "slice " << i;
    EXPECT_EQ(signatures[i], signatures[0]) << "slice " << i;
    EXPECT_TRUE(RsaVerifySha1(aik.value(), messages[i], signatures[i])) << "slice " << i;
  }
}

}  // namespace
}  // namespace flicker
