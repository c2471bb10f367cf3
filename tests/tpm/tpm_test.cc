// The TPM device model: sessions, seal/unseal PCR binding, quotes, NV
// storage, monotonic counters, ownership, and command timing. The
// authorized commands go through the TPM utilities, which drive the same
// device over a TpmClient; the transport adds no simulated time.

#include "src/tpm/tpm.h"

#include <gtest/gtest.h>

#include "src/crypto/sha1.h"
#include "src/tpm/pcr_bank.h"
#include "src/tpm/tpm_util.h"
#include "src/tpm/transport.h"

namespace flicker {
namespace {

class TpmTest : public ::testing::Test {
 protected:
  TpmTest()
      : tpm_(&clock_, BroadcomBcm0102Profile()), transport_(&tpm_), client_(&transport_) {}

  Bytes OwnerAuth() { return Sha1::Digest(BytesOf("owner")); }

  void TakeOwnership() { ASSERT_TRUE(tpm_.TakeOwnership(OwnerAuth()).ok()); }

  SimClock clock_;
  Tpm tpm_;
  TpmTransport transport_;
  TpmClient client_;
};

TEST_F(TpmTest, GetRandomReturnsRequestedLengthAndAdvancesClock) {
  double before = clock_.NowMillis();
  Bytes r = tpm_.GetRandom(128);
  EXPECT_EQ(r.size(), 128u);
  EXPECT_NEAR(clock_.NowMillis() - before, 1.3, 0.01);  // Broadcom GetRandom.
  EXPECT_NE(tpm_.GetRandom(128), r);
  // An oversized request is answered short, never with the requested size.
  EXPECT_EQ(tpm_.GetRandom(Tpm::kMaxRandomBytes + 1).size(), Tpm::kMaxRandomBytes);
}

TEST_F(TpmTest, PcrExtendChargesPaperLatency) {
  ASSERT_TRUE(tpm_.RequestLocality(2).ok());  // PCR 17 is locality-gated.
  double before = clock_.NowMillis();
  ASSERT_TRUE(tpm_.PcrExtend(17, Bytes(kPcrSize, 1)).ok());
  EXPECT_NEAR(clock_.NowMillis() - before, 1.2, 0.01);  // Table 1 PCR Extend.
}

TEST_F(TpmTest, SealUnsealRoundTripCurrentPcrs) {
  Bytes secret = BytesOf("the CA's private key");
  Bytes auth = Sha1::Digest(BytesOf("blob auth"));
  Result<SealedBlob> blob =
      TpmSealData(&client_, secret, PcrSelection({17}), {}, auth);
  ASSERT_TRUE(blob.ok());
  Result<Bytes> back = TpmUnsealData(&client_, blob.value(), auth);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), secret);
}

TEST_F(TpmTest, UnsealFailsAfterPcrChanges) {
  Bytes auth = Sha1::Digest(BytesOf("blob auth"));
  Result<SealedBlob> blob =
      TpmSealData(&client_, BytesOf("secret"), PcrSelection({17}), {}, auth);
  ASSERT_TRUE(blob.ok());

  // Extending PCR 17 revokes access - the termination-constant mechanism.
  ASSERT_TRUE(tpm_.RequestLocality(2).ok());
  ASSERT_TRUE(tpm_.PcrExtend(17, Bytes(kPcrSize, 0x77)).ok());
  Result<Bytes> back = TpmUnsealData(&client_, blob.value(), auth);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kIntegrityFailure);
}

TEST_F(TpmTest, SealToExplicitTargetPcrValue) {
  // Seal for a *different* future PCR 17 value (the P -> P' pattern of
  // §4.3.1): unseal must fail now and succeed once PCR 17 holds the target.
  Bytes target = Sha1::Digest(BytesOf("the other PAL's V"));
  Bytes auth = Sha1::Digest(BytesOf("auth"));
  Result<SealedBlob> blob = TpmSealData(&client_, BytesOf("for P' only"), PcrSelection({17}),
                                        {{17, target}}, auth);
  ASSERT_TRUE(blob.ok());

  EXPECT_FALSE(TpmUnsealData(&client_, blob.value(), auth).ok());

  // Force PCR 17 to the target via hardware reset + extend chain:
  // target = SHA1(0^20 || m) for m = the extend below.
  transport_.hardware()->SkinitReset(target);  // PCR17 = H(0 || target)... not equal.
  // Construct properly instead: reset to zero then find no preimage - so
  // emulate by sealing to the value PCR 17 *will* have after a known extend.
  Bytes m = Sha1::Digest(BytesOf("slb"));
  Bytes v = Sha1::Digest(Concat(Bytes(kPcrSize, 0x00), m));
  Result<SealedBlob> blob2 =
      TpmSealData(&client_, BytesOf("for P' only"), PcrSelection({17}), {{17, v}}, auth);
  ASSERT_TRUE(blob2.ok());
  transport_.hardware()->SkinitReset(m);  // PCR17 = H(0^20 || m) = v.
  Result<Bytes> back = TpmUnsealData(&client_, blob2.value(), auth);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), BytesOf("for P' only"));
}

TEST_F(TpmTest, UnsealRejectsWrongBlobAuth) {
  Bytes auth = Sha1::Digest(BytesOf("right"));
  Result<SealedBlob> blob = TpmSealData(&client_, BytesOf("s"), PcrSelection({17}), {}, auth);
  ASSERT_TRUE(blob.ok());
  Result<Bytes> back = TpmUnsealData(&client_, blob.value(), Sha1::Digest(BytesOf("wrong")));
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(TpmTest, UnsealRejectsTamperedBlob) {
  Bytes auth = Sha1::Digest(BytesOf("auth"));
  Result<SealedBlob> blob = TpmSealData(&client_, BytesOf("s"), PcrSelection({17}), {}, auth);
  ASSERT_TRUE(blob.ok());
  SealedBlob tampered = blob.value();
  tampered.ciphertext[tampered.ciphertext.size() / 2] ^= 1;
  EXPECT_FALSE(TpmUnsealData(&client_, tampered, auth).ok());
}

TEST_F(TpmTest, UnsealRejectsTruncatedBlob) {
  Bytes auth = Sha1::Digest(BytesOf("auth"));
  Result<SealedBlob> blob = TpmSealData(&client_, BytesOf("s"), PcrSelection({17}), {}, auth);
  ASSERT_TRUE(blob.ok());
  SealedBlob truncated = blob.value();
  truncated.ciphertext.resize(truncated.ciphertext.size() / 2);
  EXPECT_FALSE(TpmUnsealData(&client_, truncated, auth).ok());
  EXPECT_FALSE(TpmUnsealData(&client_, SealedBlob{Bytes(3, 0)}, auth).ok());
}

TEST_F(TpmTest, SealedBlobsAreRandomized) {
  Bytes auth = Sha1::Digest(BytesOf("auth"));
  Result<SealedBlob> b1 = TpmSealData(&client_, BytesOf("same"), PcrSelection({17}), {}, auth);
  Result<SealedBlob> b2 = TpmSealData(&client_, BytesOf("same"), PcrSelection({17}), {}, auth);
  ASSERT_TRUE(b1.ok());
  ASSERT_TRUE(b2.ok());
  EXPECT_FALSE(b1.value() == b2.value());
}

TEST_F(TpmTest, SealLargePayloadUsesHybridEnvelope) {
  Bytes auth = Sha1::Digest(BytesOf("auth"));
  Bytes big(3000, 0x5c);  // Far beyond an RSA block.
  Result<SealedBlob> blob = TpmSealData(&client_, big, PcrSelection({17}), {}, auth);
  ASSERT_TRUE(blob.ok());
  Result<Bytes> back = TpmUnsealData(&client_, blob.value(), auth);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), big);
}

TEST_F(TpmTest, SealUnsealTimingMatchesBroadcom) {
  Bytes auth = Sha1::Digest(BytesOf("auth"));
  double t0 = clock_.NowMillis();
  Result<SealedBlob> blob = TpmSealData(&client_, BytesOf("x"), PcrSelection({17}), {}, auth);
  ASSERT_TRUE(blob.ok());
  double seal_elapsed = clock_.NowMillis() - t0;
  // Seal itself is 10.2 ms; the OIAP session start and GetRandom add a few.
  EXPECT_GT(seal_elapsed, 10.0);
  EXPECT_LT(seal_elapsed, 25.0);

  double t1 = clock_.NowMillis();
  ASSERT_TRUE(TpmUnsealData(&client_, blob.value(), auth).ok());
  double unseal_elapsed = clock_.NowMillis() - t1;
  EXPECT_GT(unseal_elapsed, 898.0);  // Table 4: 898.3 ms.
  EXPECT_LT(unseal_elapsed, 915.0);
}

TEST_F(TpmTest, AuthFailureTerminatesSession) {
  AuthSessionInfo session = tpm_.StartOiap();
  CommandAuth bad;
  bad.session_handle = session.handle;
  bad.nonce_odd = Bytes(kPcrSize, 1);
  bad.auth = Bytes(kPcrSize, 2);  // Garbage HMAC.
  Result<SealedBlob> blob = tpm_.Seal(BytesOf("x"), PcrSelection({17}), {},
                                      Sha1::Digest(BytesOf("a")), bad);
  ASSERT_FALSE(blob.ok());
  EXPECT_EQ(blob.status().code(), StatusCode::kPermissionDenied);

  // The session is gone: reusing the handle also fails.
  Result<SealedBlob> blob2 = tpm_.Seal(BytesOf("x"), PcrSelection({17}), {},
                                       Sha1::Digest(BytesOf("a")), bad);
  ASSERT_FALSE(blob2.ok());
}

TEST_F(TpmTest, QuoteVerifiesAndCoversNonce) {
  Bytes nonce = tpm_.GetRandom(20);
  Result<TpmQuote> quote = tpm_.Quote(nonce, PcrSelection({17, 18}));
  ASSERT_TRUE(quote.ok());
  EXPECT_EQ(quote.value().pcr_values.size(), 2u);
  EXPECT_EQ(quote.value().nonce, nonce);

  // Signature checks out against the AIK over QUOT || composite || nonce.
  Bytes values;
  for (const Bytes& v : quote.value().pcr_values) {
    values.insert(values.end(), v.begin(), v.end());
  }
  Bytes buffer = quote.value().selection.Serialize();
  PutUint32(&buffer, static_cast<uint32_t>(values.size()));
  buffer.insert(buffer.end(), values.begin(), values.end());
  Bytes composite = Sha1::Digest(buffer);
  Bytes info = BytesOf("QUOT");
  info.insert(info.end(), composite.begin(), composite.end());
  info.insert(info.end(), nonce.begin(), nonce.end());
  EXPECT_TRUE(RsaVerifySha1(tpm_.aik_public(), info, quote.value().signature));
}

TEST_F(TpmTest, QuoteChargesPaperLatency) {
  double before = clock_.NowMillis();
  ASSERT_TRUE(tpm_.Quote(Bytes(20, 1), PcrSelection({17})).ok());
  EXPECT_NEAR(clock_.NowMillis() - before, 972.7, 0.01);  // Table 1.
}

TEST_F(TpmTest, QuoteEmptySelectionRejected) {
  EXPECT_FALSE(tpm_.Quote(Bytes(20, 1), PcrSelection()).ok());
}

TEST_F(TpmTest, NvRequiresOwnership) {
  Status st = TpmDefineNvSpace(&client_, 1, 64, PcrSelection(), {}, OwnerAuth());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST_F(TpmTest, NvDefineWriteRead) {
  TakeOwnership();
  ASSERT_TRUE(TpmDefineNvSpace(&client_, 1, 64, PcrSelection(), {}, OwnerAuth()).ok());
  ASSERT_TRUE(tpm_.NvWrite(1, BytesOf("nv payload")).ok());
  Result<Bytes> back = tpm_.NvContents(1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), BytesOf("nv payload"));
}

TEST_F(TpmTest, NvDefineRejectsWrongOwnerAuth) {
  TakeOwnership();
  Status st = TpmDefineNvSpace(&client_, 1, 64, PcrSelection(), {},
                               Sha1::Digest(BytesOf("not the owner")));
  EXPECT_EQ(st.code(), StatusCode::kPermissionDenied);
}

TEST_F(TpmTest, NvWriteGatingEnforced) {
  TakeOwnership();
  ASSERT_TRUE(TpmDefineNvSpace(&client_, 3, 64, PcrSelection({17}), {}, OwnerAuth()).ok());
  ASSERT_TRUE(tpm_.NvWrite(3, BytesOf("v1")).ok());
  ASSERT_TRUE(tpm_.RequestLocality(2).ok());
  ASSERT_TRUE(tpm_.PcrExtend(17, Bytes(kPcrSize, 0x01)).ok());
  EXPECT_EQ(tpm_.NvWrite(3, BytesOf("v2")).code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(tpm_.NvContents(3).value(), BytesOf("v1"));
}

TEST_F(TpmTest, NvBoundsAndDuplicates) {
  TakeOwnership();
  ASSERT_TRUE(TpmDefineNvSpace(&client_, 4, 8, PcrSelection(), {}, OwnerAuth()).ok());
  EXPECT_EQ(tpm_.NvWrite(4, Bytes(9, 0)).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(TpmDefineNvSpace(&client_, 4, 8, PcrSelection(), {}, OwnerAuth()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tpm_.NvContents(99).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(tpm_.NvWrite(99, Bytes()).code(), StatusCode::kNotFound);
}

TEST_F(TpmTest, MonotonicCounterLifecycle) {
  TakeOwnership();
  Bytes counter_auth = Sha1::Digest(BytesOf("counter"));
  Result<uint32_t> id = TpmCreateCounter(&client_, counter_auth, OwnerAuth());
  ASSERT_TRUE(id.ok());

  EXPECT_EQ(tpm_.ReadCounter(id.value()).value(), 0u);
  EXPECT_EQ(tpm_.IncrementCounter(id.value(), counter_auth).value(), 1u);
  EXPECT_EQ(tpm_.IncrementCounter(id.value(), counter_auth).value(), 2u);
  EXPECT_EQ(tpm_.ReadCounter(id.value()).value(), 2u);
}

TEST_F(TpmTest, CounterRejectsWrongAuth) {
  TakeOwnership();
  Bytes counter_auth = Sha1::Digest(BytesOf("counter"));
  Result<uint32_t> id = TpmCreateCounter(&client_, counter_auth, OwnerAuth());
  ASSERT_TRUE(id.ok());
  Result<uint64_t> r = tpm_.IncrementCounter(id.value(), Sha1::Digest(BytesOf("wrong")));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(tpm_.ReadCounter(id.value()).value(), 0u);  // Unchanged.
}

TEST_F(TpmTest, CounterUnknownIdRejected) {
  EXPECT_EQ(tpm_.ReadCounter(1234).status().code(), StatusCode::kNotFound);
}

TEST_F(TpmTest, TakeOwnershipRules) {
  EXPECT_EQ(tpm_.TakeOwnership(Bytes(10, 0)).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(tpm_.TakeOwnership(OwnerAuth()).ok());
  EXPECT_EQ(tpm_.TakeOwnership(OwnerAuth()).code(), StatusCode::kFailedPrecondition);
}

TEST_F(TpmTest, HardwareSkinitResetSetsLocalityAndPcr17) {
  Bytes measurement = Sha1::Digest(BytesOf("slb"));
  transport_.hardware()->SkinitReset(measurement);
  EXPECT_EQ(tpm_.locality(), 2);
  EXPECT_EQ(tpm_.PcrRead(17).value(), ExpectedPcr17AfterSkinit(measurement));
  // Other dynamic PCRs are zero, not -1.
  EXPECT_EQ(tpm_.PcrRead(18).value(), Bytes(kPcrSize, 0x00));
}

// Recomputes TPM_QUOTE_INFO and checks the quote's signature under `aik`.
bool QuoteVerifies(const RsaPublicKey& aik, const TpmQuote& quote) {
  Bytes buffer = quote.selection.Serialize();
  PutUint32(&buffer, static_cast<uint32_t>(quote.pcr_values.size() * kPcrSize));
  for (const Bytes& value : quote.pcr_values) {
    buffer.insert(buffer.end(), value.begin(), value.end());
  }
  Bytes info = BytesOf("QUOT");
  Bytes composite = Sha1::Digest(buffer);
  info.insert(info.end(), composite.begin(), composite.end());
  info.insert(info.end(), quote.nonce.begin(), quote.nonce.end());
  return RsaVerifySha1(aik, info, quote.signature);
}

TEST_F(TpmTest, ResidentAikStillQuotesAfterTpmInit) {
  // The AIK is persistent state: the reset line drops sessions and PCRs,
  // never the key the quotes are signed with.
  transport_.hardware()->Init();
  ASSERT_TRUE(tpm_.Startup().ok());
  Result<TpmQuote> quote = tpm_.Quote(Bytes(20, 2), PcrSelection({17}));
  ASSERT_TRUE(quote.ok());
  EXPECT_TRUE(QuoteVerifies(tpm_.aik_public(), quote.value()));
}

TEST(TpmProfileTest, InfineonIsFaster) {
  SimClock clock;
  Tpm tpm(&clock, InfineonProfile());
  double t0 = clock.NowMillis();
  ASSERT_TRUE(tpm.Quote(Bytes(20, 1), PcrSelection({17})).ok());
  EXPECT_NEAR(clock.NowMillis() - t0, 331.0, 0.01);  // §7.2: Infineon quote.
}

TEST(TpmDeterminismTest, SameSeedSameKeys) {
  SimClock c1;
  SimClock c2;
  Tpm a(&c1, BroadcomBcm0102Profile(), TpmConfig{.manufacture_seed = 99});
  Tpm b(&c2, BroadcomBcm0102Profile(), TpmConfig{.manufacture_seed = 99});
  EXPECT_EQ(a.aik_public().Serialize(), b.aik_public().Serialize());
  Tpm c(&c2, BroadcomBcm0102Profile(), TpmConfig{.manufacture_seed = 100});
  EXPECT_NE(c.aik_public().Serialize(), a.aik_public().Serialize());
}

}  // namespace
}  // namespace flicker
