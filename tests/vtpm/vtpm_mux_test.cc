// VtpmMultiplexer isolation properties, directly (the campaign test proves
// them end-to-end under load): round-robin fairness, the per-tenant circuit
// breaker on repeated faults, flood quarantine on sustained queue overflow,
// queue-age shedding, and the bound-nonce construction a verifier recomputes.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/attest/verifier.h"
#include "src/core/flicker_platform.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sha1.h"
#include "src/vtpm/vtpm_mux.h"

namespace flicker {
namespace vtpm {
namespace {

class VtpmMuxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    platform_ = std::make_unique<FlickerPlatform>();
    Bytes owner_secret = Sha1::Digest(BytesOf("owner"));
    ASSERT_TRUE(platform_->tpm()->TakeOwnership(owner_secret).ok());

    VtpmManagerConfig config;
    config.max_resident = 8;
    config.owner_secret = owner_secret;
    config.blob_auth = Sha1::Digest(BytesOf("blob"));
    config.release_pcr17 = platform_->tpm()->PcrRead(kSkinitPcr).value();
    manager_ = std::make_unique<VtpmManager>(platform_->machine(), config);
  }

  void MakeMux() {
    mux_ = std::make_unique<VtpmMultiplexer>(manager_.get(), platform_->tqd(), VtpmMuxConfig());
    mux_->set_sink([this](const VtpmQuoteCompletion& completion) {
      completions_.push_back(completion);
    });
  }

  Bytes Auth(const std::string& tenant) { return Sha1::Digest(BytesOf("auth-" + tenant)); }

  void AddTenant(const std::string& tenant) {
    ASSERT_TRUE(manager_->CreateTenant(tenant, Auth(tenant)).ok());
  }

  Bytes Nonce(int i) { return Sha1::Digest(BytesOf("nonce-" + std::to_string(i))); }

  std::unique_ptr<FlickerPlatform> platform_;
  std::unique_ptr<VtpmManager> manager_;
  std::unique_ptr<VtpmMultiplexer> mux_;
  std::vector<VtpmQuoteCompletion> completions_;
};

TEST_F(VtpmMuxTest, RoundRobinInterleavesTenantsRegardlessOfArrivalOrder) {
  MakeMux();
  AddTenant("a");
  AddTenant("b");
  // Tenant a floods four requests in before b's single request arrives.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(mux_->Submit("a", Nonce(i), Auth("a")).ok());
  }
  ASSERT_TRUE(mux_->Submit("b", Nonce(100), Auth("b")).ok());

  mux_->PumpAll();
  ASSERT_EQ(completions_.size(), 5u);
  // b is served on the second rotation, not after a's whole backlog.
  EXPECT_EQ(completions_[1].tenant, "b");
  for (const VtpmQuoteCompletion& completion : completions_) {
    EXPECT_TRUE(completion.status.ok()) << completion.status.ToString();
  }
}

TEST_F(VtpmMuxTest, QuoteBindsTenantCompositeAndVerifies) {
  MakeMux();
  AddTenant("a");
  ASSERT_TRUE(manager_->Extend("a", 0, Auth("a"), Bytes(20, 0x77)).ok());
  Bytes composite = manager_->ResidentTenant("a").value()->CompositeDigest();

  ASSERT_TRUE(mux_->Submit("a", Nonce(0), Auth("a")).ok());
  mux_->PumpAll();
  ASSERT_EQ(completions_.size(), 1u);
  const VtpmQuoteCompletion& completion = completions_[0];
  ASSERT_TRUE(completion.status.ok()) << completion.status.ToString();

  // The hardware quote signs the bound nonce a verifier can recompute from
  // the challenge + the tenant's expected composite.
  EXPECT_EQ(completion.composite, composite);
  Bytes expected = VtpmMultiplexer::BoundNonce(TenantTag("a"), composite, Nonce(0));
  EXPECT_EQ(completion.bound_nonce, expected);
  EXPECT_EQ(completion.response.quote.nonce, expected);

  Result<RsaPublicKey> aik = RsaPublicKey::Deserialize(completion.response.aik_public);
  ASSERT_TRUE(aik.ok());
  Bytes info = BytesOf("QUOT");
  Bytes quote_composite = RecomputeQuoteComposite(completion.response.quote);
  info.insert(info.end(), quote_composite.begin(), quote_composite.end());
  info.insert(info.end(), completion.response.quote.nonce.begin(),
              completion.response.quote.nonce.end());
  EXPECT_TRUE(RsaVerifySha1(aik.value(), info, completion.response.quote.signature));

  // A different tenant (or a stale composite) yields a different binding.
  EXPECT_NE(VtpmMultiplexer::BoundNonce(TenantTag("b"), composite, Nonce(0)), expected);
  EXPECT_NE(VtpmMultiplexer::BoundNonce(TenantTag("a"), Bytes(20, 0x00), Nonce(0)), expected);
}

TEST_F(VtpmMuxTest, RepeatedAuthFailuresTripTheBreakerAndShedOnSubmit) {
  MakeMux();
  AddTenant("sick");

  for (int i = 0; i < VtpmMultiplexer::kBreakerThreshold; ++i) {
    ASSERT_TRUE(mux_->Submit("sick", Nonce(i), Auth("wrong")).ok());
    mux_->PumpAll();
  }
  ASSERT_EQ(completions_.size(), static_cast<size_t>(VtpmMultiplexer::kBreakerThreshold));
  for (const VtpmQuoteCompletion& completion : completions_) {
    EXPECT_EQ(completion.status.code(), StatusCode::kPermissionDenied);
  }
  EXPECT_TRUE(mux_->TenantBreakerOpen("sick"));
  EXPECT_EQ(mux_->quarantines_total(), 1u);

  // Breaker-open traffic is refused at the door: no queue churn, no
  // hardware turn, kUnavailable back to the caller.
  Status shed = mux_->Submit("sick", Nonce(9), Auth("wrong"));
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(mux_->pending_count(), 0u);
  EXPECT_GE(mux_->shed_total(), 1u);
}

TEST_F(VtpmMuxTest, BreakerHalfOpensAfterCooldownAndHealedTenantRecovers) {
  MakeMux();
  AddTenant("sick");

  for (int i = 0; i < VtpmMultiplexer::kBreakerThreshold; ++i) {
    ASSERT_TRUE(mux_->Submit("sick", Nonce(i), Auth("wrong")).ok());
    mux_->PumpAll();
  }
  ASSERT_TRUE(mux_->TenantBreakerOpen("sick"));
  EXPECT_EQ(mux_->Submit("sick", Nonce(10), Auth("sick")).code(), StatusCode::kUnavailable);

  // After the cooldown the lane half-opens; a now-healthy tenant completes.
  platform_->clock()->AdvanceMillis(VtpmMultiplexer::kBreakerCooldownMs);
  completions_.clear();
  ASSERT_TRUE(mux_->Submit("sick", Nonce(11), Auth("sick")).ok());
  mux_->PumpAll();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_TRUE(completions_[0].status.ok()) << completions_[0].status.ToString();
  EXPECT_FALSE(mux_->TenantBreakerOpen("sick"));
}

TEST_F(VtpmMuxTest, SustainedOverflowQuarantinesTheFloodingTenant) {
  MakeMux();
  AddTenant("flood");
  AddTenant("quiet");

  // Fill the queue, then keep hammering: every extra submit overflows, and
  // the kFloodThreshold-th overflow trips the breaker.
  constexpr int kQueue = static_cast<int>(VtpmMultiplexer::kMaxQueuePerTenant);
  constexpr int kFlood = VtpmMultiplexer::kFloodThreshold;
  int accepted = 0;
  int shed = 0;
  for (int i = 0; i < kQueue + kFlood; ++i) {
    Status st = mux_->Submit("flood", Nonce(i), Auth("flood"));
    st.ok() ? ++accepted : ++shed;
  }
  EXPECT_EQ(accepted, kQueue);
  EXPECT_EQ(shed, kFlood);
  EXPECT_TRUE(mux_->TenantBreakerOpen("flood"));

  // The flood's already-queued requests drain as sheds (the breaker opened
  // while they waited); the quiet tenant still completes normally.
  ASSERT_TRUE(mux_->Submit("quiet", Nonce(100), Auth("quiet")).ok());
  mux_->PumpAll();
  ASSERT_EQ(completions_.size(), static_cast<size_t>(kQueue) + 1);
  for (const VtpmQuoteCompletion& completion : completions_) {
    if (completion.tenant == "flood") {
      EXPECT_EQ(completion.status.code(), StatusCode::kUnavailable);
    } else {
      EXPECT_EQ(completion.tenant, "quiet");
      EXPECT_TRUE(completion.status.ok()) << completion.status.ToString();
    }
  }
}

TEST_F(VtpmMuxTest, StaleQueuedRequestsAreShedNotServed) {
  MakeMux();
  AddTenant("slow");

  // The challenger has long timed out.
  constexpr double kWaitMs = VtpmMultiplexer::kMaxQueueAgeMs + 1000.0;
  ASSERT_TRUE(mux_->Submit("slow", Nonce(0), Auth("slow")).ok());
  platform_->clock()->AdvanceMillis(kWaitMs);
  mux_->PumpAll();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].status.code(), StatusCode::kUnavailable);
  EXPECT_GE(completions_[0].queue_age_ms, kWaitMs);
}

TEST_F(VtpmMuxTest, PowerLossClearsQueuesAndBreakers) {
  MakeMux();
  AddTenant("a");
  AddTenant("b");
  ASSERT_TRUE(mux_->Submit("a", Nonce(0), Auth("a")).ok());
  for (int i = 0; i < VtpmMultiplexer::kBreakerThreshold; ++i) {
    ASSERT_TRUE(mux_->Submit("b", Nonce(1 + i), Auth("wrong")).ok());
  }
  mux_->PumpAll();  // a completes; b's failures open its breaker.
  ASSERT_TRUE(mux_->TenantBreakerOpen("b"));
  ASSERT_TRUE(mux_->Submit("a", Nonce(9), Auth("a")).ok());

  mux_->OnPowerLoss();
  EXPECT_EQ(mux_->pending_count(), 0u);
  EXPECT_FALSE(mux_->HasPending());
  // A rebooted multiplexer starts every tenant closed and re-learns.
  EXPECT_FALSE(mux_->TenantBreakerOpen("b"));
}

TEST_F(VtpmMuxTest, RollbackQuarantinedTenantFailsItsRequestsOnly) {
  MakeMux();
  AddTenant("victim");
  AddTenant("healthy");
  ASSERT_TRUE(manager_->SnapshotTenant("victim").ok());
  CrashConsistentSealedStore* store = manager_->StoreForTest("victim");
  CrashConsistentSealedStore::DiskImageForTest stale = store->CaptureDiskForTest();
  ASSERT_TRUE(manager_->SnapshotTenant("victim").ok());

  platform_->machine()->PowerCut();
  ASSERT_TRUE(platform_->tpm()->Startup().ok());
  manager_->OnPowerLoss();
  mux_->OnPowerLoss();
  store->RestoreDiskForTest(std::move(stale));
  ASSERT_TRUE(manager_->RecoverAll().ok());

  ASSERT_TRUE(mux_->Submit("victim", Nonce(0), Auth("victim")).ok());
  ASSERT_TRUE(mux_->Submit("healthy", Nonce(1), Auth("healthy")).ok());
  mux_->PumpAll();
  ASSERT_EQ(completions_.size(), 2u);
  for (const VtpmQuoteCompletion& completion : completions_) {
    if (completion.tenant == "victim") {
      EXPECT_EQ(completion.status.code(), StatusCode::kRollbackDetected);
    } else {
      EXPECT_TRUE(completion.status.ok()) << completion.status.ToString();
    }
  }
}

}  // namespace
}  // namespace vtpm
}  // namespace flicker
