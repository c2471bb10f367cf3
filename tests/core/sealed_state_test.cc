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

// ---- §4.3.2 NV-counter variant under NV write faults ----

class NvFaultTest : public ::testing::Test {
 protected:
  NvFaultTest() {
    owner_auth_ = Sha1::Digest(BytesOf("owner"));
    EXPECT_TRUE(platform_.tpm()->TakeOwnership(owner_auth_).ok());
    blob_auth_ = Sha1::Digest(BytesOf("blob"));
    // Gate the NV space on the CURRENT PCR 17 so the test can play the role
    // of the PAL without a session; platform_test covers the PAL gating.
    current_pcr_ = platform_.tpm()->PcrRead(kSkinitPcr).value();
    Result<NvReplayProtectedStorage> provisioned =
        NvReplayProtectedStorage::Provision(platform_.tpm(), kNvIndex, current_pcr_, owner_auth_);
    EXPECT_TRUE(provisioned.ok());
  }

  // A failing assertion prints the run's trace: every TPM command with its
  // locality and return code.
  void TearDown() override {
    if (HasFailure()) {
      std::cerr << tracer_.ExportChromeTrace();
    }
  }

  static constexpr uint32_t kNvIndex = 51;

  FlickerPlatform platform_;
  obs::ScopedTracer tracer_{platform_.clock()};
  Bytes owner_auth_;
  Bytes blob_auth_;
  Bytes current_pcr_;
};

TEST_F(NvFaultTest, GarbledNvCounterWriteNeverAdmitsStaleBlob) {
  NvReplayProtectedStorage storage(platform_.tpm(), kNvIndex);
  Result<SealedBlob> v1 = storage.Seal(BytesOf("db-v1"), current_pcr_, blob_auth_);
  ASSERT_TRUE(v1.ok());
  ASSERT_EQ(storage.Unseal(v1.value(), blob_auth_).value(), BytesOf("db-v1"));

  // Garble the NV counter write on the wire. Seal's second frame is the
  // NvWrite (the first is the counter read), and every_n counts cumulative
  // transmits, so aim the single garble exactly there.
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kGarble;
  plan.every_n = platform_.machine()->tpm_transport()->total_commands() + 2;
  platform_.machine()->tpm_transport()->set_fault_plan(plan);
  Result<SealedBlob> v2 = storage.Seal(BytesOf("db-v2"), current_pcr_, blob_auth_);
  platform_.machine()->tpm_transport()->set_fault_plan(FaultPlan());

  // Whatever the garbled write produced, no blob unseals against it as
  // stale data: v1's embedded version no longer matches, and if the seal
  // completed, v2's version was computed before the garble and cannot match
  // either. The failure is always closed (kReplayDetected), never stale.
  Result<Bytes> replay = storage.Unseal(v1.value(), blob_auth_);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kReplayDetected);
  if (v2.ok()) {
    Result<Bytes> current = storage.Unseal(v2.value(), blob_auth_);
    if (current.ok()) {
      EXPECT_EQ(current.value(), BytesOf("db-v2"));
    } else {
      EXPECT_EQ(current.status().code(), StatusCode::kReplayDetected);
    }
  }
}

TEST_F(NvFaultTest, TornNvCounterWriteRepairedByStartupReplay) {
  NvReplayProtectedStorage storage(platform_.tpm(), kNvIndex);
  Result<SealedBlob> v1 = storage.Seal(BytesOf("db-v1"), current_pcr_, blob_auth_);
  ASSERT_TRUE(v1.ok());

  // Power fails mid-apply of the counter write inside the next Seal: the NV
  // space holds a torn half-write and the journal a committed record.
  CrashPlan plan;
  plan.crash_at_hit = 1;
  plan.only_point = "tpm.nv_write.apply";
  FaultScheduler* scheduler = platform_.machine()->fault_scheduler();
  scheduler->Arm(plan);
  bool crashed = false;
  {
    FaultInjectionScope scope(scheduler);
    try {
      (void)storage.Seal(BytesOf("db-v2"), current_pcr_, blob_auth_);
    } catch (const PowerLossException&) {
      crashed = true;
    }
  }
  ASSERT_TRUE(crashed);

  // Recovery: warm reset + TPM_Startup replays the journal, completing the
  // counter write the crash tore.
  platform_.machine()->WarmReset();
  Result<TpmStartupReport> report = platform_.tpm()->Startup(TpmStartupType::kClear);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().journal_rolled_forward);

  // The counter reached the new generation, so the old blob reads as stale
  // (fail closed) - it is never accepted as current.
  Result<Bytes> replay = storage.Unseal(v1.value(), blob_auth_);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kReplayDetected);

  // A fresh generation sealed after recovery works normally.
  Result<SealedBlob> v3 = storage.Seal(BytesOf("db-v3"), current_pcr_, blob_auth_);
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(storage.Unseal(v3.value(), blob_auth_).value(), BytesOf("db-v3"));
}

}  // namespace
}  // namespace flicker
