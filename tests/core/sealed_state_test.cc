// Crash consistency of sealed storage: the two-phase
// CrashConsistentSealedStore (stage -> increment -> commit, with Recover()
// classifying torn states) and the §4.3.2 NV-counter variant under garbled
// and torn NV writes.

#include <iostream>
#include <memory>

#include <gtest/gtest.h>

#include "src/common/fault.h"
#include "src/core/flicker_platform.h"
#include "src/core/sealed_state.h"
#include "src/crypto/sha1.h"
#include "src/obs/trace.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {
namespace {

class CrashStoreTest : public ::testing::Test {
 protected:
  CrashStoreTest() {
    owner_auth_ = Sha1::Digest(BytesOf("owner"));
    EXPECT_TRUE(platform_.tpm()->TakeOwnership(owner_auth_).ok());
    blob_auth_ = Sha1::Digest(BytesOf("blob"));
    counter_auth_ = Sha1::Digest(BytesOf("ctr"));
    // Bind to the current PCR 17 so the tests unseal without a PAL session;
    // the PCR-binding mechanics are covered by platform_test.
    release_pcr_ = platform_.tpm()->PcrRead(kSkinitPcr).value();
  }

  // A failing assertion prints the run's trace: every TPM command with its
  // locality and return code.
  void TearDown() override {
    if (HasFailure()) {
      std::cerr << tracer_.ExportChromeTrace();
    }
  }

  CrashConsistentSealedStore MakeStore(CrashStoreOptions options = CrashStoreOptions()) {
    Result<CrashConsistentSealedStore> store = CrashConsistentSealedStore::Create(
        platform_.tpm(), counter_auth_, owner_auth_, options);
    EXPECT_TRUE(store.ok());
    return store.take();
  }

  // Runs `fn` with the machine's fault scheduler armed to crash at the
  // named point, and expects the power loss to fire.
  template <typename Fn>
  void CrashAt(const std::string& point, Fn fn) {
    CrashPlan plan;
    plan.crash_at_hit = 1;
    plan.only_point = point;
    FaultScheduler* scheduler = platform_.machine()->fault_scheduler();
    scheduler->Arm(plan);
    FaultInjectionScope scope(scheduler);
    bool crashed = false;
    try {
      fn();
    } catch (const PowerLossException& e) {
      crashed = true;
      EXPECT_EQ(e.point(), point);
    }
    EXPECT_TRUE(crashed) << "crash point never hit: " << point;
  }

  FlickerPlatform platform_;
  obs::ScopedTracer tracer_{platform_.clock()};
  Bytes owner_auth_;
  Bytes blob_auth_;
  Bytes counter_auth_;
  Bytes release_pcr_;
};

TEST_F(CrashStoreTest, SealUnsealRoundTripAndVersioning) {
  CrashConsistentSealedStore store = MakeStore();
  EXPECT_EQ(store.Recover().value(), RecoveryClass::kClean);

  ASSERT_TRUE(store.Seal(BytesOf("v1"), release_pcr_, blob_auth_).ok());
  EXPECT_EQ(store.UnsealLatest(blob_auth_).value(), BytesOf("v1"));
  ASSERT_TRUE(store.Seal(BytesOf("v2"), release_pcr_, blob_auth_).ok());
  EXPECT_EQ(store.UnsealLatest(blob_auth_).value(), BytesOf("v2"));
  EXPECT_EQ(store.committed_version(), 2u);
  EXPECT_FALSE(store.has_staged());
}

TEST_F(CrashStoreTest, CrashBeforeIncrementDiscardsStagedKeepsOld) {
  CrashConsistentSealedStore store = MakeStore();
  ASSERT_TRUE(store.Seal(BytesOf("v1"), release_pcr_, blob_auth_).ok());

  CrashAt("seal.staged", [&] { (void)store.Seal(BytesOf("v2"), release_pcr_, blob_auth_); });
  EXPECT_TRUE(store.has_staged());

  EXPECT_EQ(store.Recover().value(), RecoveryClass::kDiscardedStaged);
  EXPECT_FALSE(store.has_staged());
  EXPECT_EQ(store.UnsealLatest(blob_auth_).value(), BytesOf("v1"));
}

TEST_F(CrashStoreTest, CrashAfterIncrementRollsForwardToNew) {
  CrashConsistentSealedStore store = MakeStore();
  ASSERT_TRUE(store.Seal(BytesOf("v1"), release_pcr_, blob_auth_).ok());

  CrashAt("seal.incremented",
          [&] { (void)store.Seal(BytesOf("v2"), release_pcr_, blob_auth_); });

  // Without recovery, the old committed blob is provably stale - the store
  // never serves it.
  Result<Bytes> stale = store.UnsealLatest(blob_auth_);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kReplayDetected);

  EXPECT_EQ(store.Recover().value(), RecoveryClass::kRolledForward);
  EXPECT_EQ(store.UnsealLatest(blob_auth_).value(), BytesOf("v2"));
}

TEST_F(CrashStoreTest, CrashAtCommitStillRecoversToNew) {
  CrashConsistentSealedStore store = MakeStore();
  CrashAt("seal.committed",
          [&] { (void)store.Seal(BytesOf("v1"), release_pcr_, blob_auth_); });
  // Commit happened; only the staged slot was left behind.
  EXPECT_EQ(store.Recover().value(), RecoveryClass::kRolledForward);
  EXPECT_EQ(store.UnsealLatest(blob_auth_).value(), BytesOf("v1"));
}

TEST_F(CrashStoreTest, ImpossibleStagedVersionFailsClosed) {
  // Simulate the protocol violation by staging against a counter that then
  // "goes backwards" - recreate the store bound to a fresh counter while
  // reusing the old staged snapshot is not expressible through the public
  // API, so drive it via the broken ordering instead: commit-before-
  // increment with a crash leaves committed/staged one version ahead of the
  // counter, and a second crashed attempt pushes staged two ahead.
  CrashStoreOptions broken;
  broken.broken_commit_before_increment = true;
  CrashConsistentSealedStore store = MakeStore(broken);
  CrashAt("seal.committed",
          [&] { (void)store.Seal(BytesOf("v1"), release_pcr_, blob_auth_); });
  // staged version == counter + 1; a correct store discards it...
  EXPECT_EQ(store.Recover().value(), RecoveryClass::kDiscardedStaged);
  // ...but the broken ordering already published the unreachable blob: the
  // committed data can never be unsealed. This is the data-loss bug the
  // crash matrix exists to catch.
  Result<Bytes> lost = store.UnsealLatest(blob_auth_);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kReplayDetected);
}

}  // namespace
}  // namespace flicker
