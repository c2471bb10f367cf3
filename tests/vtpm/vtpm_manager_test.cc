// VtpmManager behavior: tenant lifecycle, LRU working-set management,
// power-loss recovery, and - the headline negative test - the rollback
// attack: power-cut the host, hand back an older (perfectly sealed, replay-
// protected at its time) snapshot from the untrusted disk, and the manager
// must detect it (kRollbackDetected), quarantine the tenant, and fail
// closed instead of attesting stale state.

#include <memory>

#include <gtest/gtest.h>

#include "src/core/flicker_platform.h"
#include "src/crypto/sha1.h"
#include "src/vtpm/vtpm_manager.h"

namespace flicker {
namespace vtpm {
namespace {

class VtpmManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    platform_ = std::make_unique<FlickerPlatform>();
    owner_secret_ = Sha1::Digest(BytesOf("owner"));
    ASSERT_TRUE(platform_->tpm()->TakeOwnership(owner_secret_).ok());

    VtpmManagerConfig config;
    config.max_resident = 2;
    config.owner_secret = owner_secret_;
    config.blob_auth = Sha1::Digest(BytesOf("blob"));
    config.release_pcr17 = platform_->tpm()->PcrRead(kSkinitPcr).value();
    manager_ = std::make_unique<VtpmManager>(platform_->machine(), config);
  }

  Bytes Auth(const std::string& tenant) {
    return Sha1::Digest(BytesOf("auth-" + tenant));
  }

  void PowerCutAndRecover() {
    platform_->machine()->PowerCut();
    ASSERT_TRUE(platform_->tpm()->Startup().ok());
    manager_->OnPowerLoss();
    ASSERT_TRUE(manager_->RecoverAll().ok());
  }

  std::unique_ptr<FlickerPlatform> platform_;
  std::unique_ptr<VtpmManager> manager_;
  Bytes owner_secret_;
};

TEST_F(VtpmManagerTest, CreateExtendSnapshotSurvivesPowerLoss) {
  ASSERT_TRUE(manager_->CreateTenant("alice", Auth("alice")).ok());
  ASSERT_TRUE(manager_->Extend("alice", 1, Auth("alice"), Bytes(20, 0x11)).ok());
  ASSERT_TRUE(manager_->SnapshotTenant("alice").ok());
  Bytes composite = manager_->ResidentTenant("alice").value()->CompositeDigest();

  PowerCutAndRecover();
  EXPECT_FALSE(manager_->TenantResident("alice"));

  Result<VirtualTpm*> vt = manager_->ResidentTenant("alice");
  ASSERT_TRUE(vt.ok()) << vt.status().ToString();
  EXPECT_EQ(vt.value()->CompositeDigest(), composite);
  EXPECT_EQ(vt.value()->state().pcrs[1],
            Sha1::Digest([] {
              Bytes input(20, 0x00);
              Bytes m(20, 0x11);
              input.insert(input.end(), m.begin(), m.end());
              return input;
            }()));
}

TEST_F(VtpmManagerTest, UnsnapshottedExtendIsLostNotTorn) {
  ASSERT_TRUE(manager_->CreateTenant("alice", Auth("alice")).ok());
  Bytes snapshot_composite = manager_->ResidentTenant("alice").value()->CompositeDigest();
  ASSERT_TRUE(manager_->Extend("alice", 0, Auth("alice"), Bytes(20, 0x22)).ok());

  PowerCutAndRecover();
  // The RAM-only extend vanished; the tenant is exactly its last snapshot.
  Result<VirtualTpm*> vt = manager_->ResidentTenant("alice");
  ASSERT_TRUE(vt.ok());
  EXPECT_EQ(vt.value()->CompositeDigest(), snapshot_composite);
  EXPECT_EQ(vt.value()->state().pcrs[0], Bytes(20, 0x00));
}

TEST_F(VtpmManagerTest, WrongOwnerAuthIsRefused) {
  ASSERT_TRUE(manager_->CreateTenant("alice", Auth("alice")).ok());
  Status st = manager_->Extend("alice", 0, Auth("mallory"), Bytes(20, 0x33));
  EXPECT_EQ(st.code(), StatusCode::kPermissionDenied);
}

TEST_F(VtpmManagerTest, LruEvictionBoundsTheResidentSet) {
  for (const char* name : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(manager_->CreateTenant(name, Auth(name)).ok());
    EXPECT_LE(manager_->resident_count(), 2u);
  }
  // Every tenant still loads (evicted ones re-load from their stores).
  for (const char* name : {"a", "b", "c", "d"}) {
    EXPECT_TRUE(manager_->ResidentTenant(name).ok()) << name;
  }
  EXPECT_LE(manager_->resident_count(), 2u);
}

TEST_F(VtpmManagerTest, ExplicitEvictThenLoadRoundTrips) {
  ASSERT_TRUE(manager_->CreateTenant("alice", Auth("alice")).ok());
  ASSERT_TRUE(manager_->Extend("alice", 4, Auth("alice"), Bytes(20, 0x44)).ok());
  Bytes composite = manager_->ResidentTenant("alice").value()->CompositeDigest();

  ASSERT_TRUE(manager_->EvictTenant("alice").ok());
  EXPECT_FALSE(manager_->TenantResident("alice"));
  // Eviction snapshots first, so the extend survived.
  EXPECT_EQ(manager_->ResidentTenant("alice").value()->CompositeDigest(), composite);
}

TEST_F(VtpmManagerTest, TenantNamespaceIsValidated) {
  EXPECT_FALSE(manager_->CreateTenant("", Auth("x")).ok());
  EXPECT_FALSE(manager_->CreateTenant(std::string(65, 'x'), Auth("x")).ok());
  EXPECT_FALSE(manager_->CreateTenant("alice", Bytes(5, 0x01)).ok());
  ASSERT_TRUE(manager_->CreateTenant("alice", Auth("alice")).ok());
  EXPECT_EQ(manager_->CreateTenant("alice", Auth("alice")).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager_->ResidentTenant("nobody").status().code(), StatusCode::kNotFound);
}

TEST_F(VtpmManagerTest, RollbackAttackIsDetectedAndFailsClosed) {
  ASSERT_TRUE(manager_->CreateTenant("victim", Auth("victim")).ok());
  ASSERT_TRUE(manager_->Extend("victim", 0, Auth("victim"), Bytes(20, 0x01)).ok());
  ASSERT_TRUE(manager_->SnapshotTenant("victim").ok());

  // The attacker copies the disk now (a complete, internally consistent
  // sealed snapshot)...
  CrashConsistentSealedStore* store = manager_->StoreForTest("victim");
  ASSERT_NE(store, nullptr);
  CrashConsistentSealedStore::DiskImageForTest stale = store->CaptureDiskForTest();

  // ...the tenant keeps running and snapshots a newer generation...
  ASSERT_TRUE(manager_->Extend("victim", 0, Auth("victim"), Bytes(20, 0x02)).ok());
  ASSERT_TRUE(manager_->SnapshotTenant("victim").ok());

  // ...then the attacker power-cuts the host and restores the stale copy.
  platform_->machine()->PowerCut();
  ASSERT_TRUE(platform_->tpm()->Startup().ok());
  manager_->OnPowerLoss();
  store->RestoreDiskForTest(std::move(stale));
  ASSERT_TRUE(manager_->RecoverAll().ok());

  // Deterministically detected: the stale blob's version cannot match the
  // live hardware counter.
  uint64_t rollbacks_before = manager_->rollbacks_detected();
  Result<VirtualTpm*> vt = manager_->ResidentTenant("victim");
  ASSERT_FALSE(vt.ok());
  EXPECT_EQ(vt.status().code(), StatusCode::kRollbackDetected) << vt.status().ToString();
  EXPECT_EQ(manager_->rollbacks_detected(), rollbacks_before + 1);

  // Fail closed: the tenant stays quarantined for every later operation.
  EXPECT_TRUE(manager_->TenantQuarantined("victim"));
  EXPECT_EQ(manager_->ResidentTenant("victim").status().code(), StatusCode::kRollbackDetected);
  EXPECT_EQ(manager_->Extend("victim", 0, Auth("victim"), Bytes(20, 0x03)).code(),
            StatusCode::kRollbackDetected);
  EXPECT_EQ(manager_->SnapshotTenant("victim").code(), StatusCode::kRollbackDetected);
}

TEST_F(VtpmManagerTest, QuarantineIsPerTenant) {
  ASSERT_TRUE(manager_->CreateTenant("victim", Auth("victim")).ok());
  ASSERT_TRUE(manager_->CreateTenant("healthy", Auth("healthy")).ok());
  ASSERT_TRUE(manager_->SnapshotTenant("victim").ok());

  CrashConsistentSealedStore* store = manager_->StoreForTest("victim");
  CrashConsistentSealedStore::DiskImageForTest stale = store->CaptureDiskForTest();
  ASSERT_TRUE(manager_->SnapshotTenant("victim").ok());

  platform_->machine()->PowerCut();
  ASSERT_TRUE(platform_->tpm()->Startup().ok());
  manager_->OnPowerLoss();
  store->RestoreDiskForTest(std::move(stale));
  ASSERT_TRUE(manager_->RecoverAll().ok());

  EXPECT_EQ(manager_->ResidentTenant("victim").status().code(), StatusCode::kRollbackDetected);
  // The co-tenant is untouched: isolation means one tenant's compromise
  // never degrades another's service.
  EXPECT_TRUE(manager_->ResidentTenant("healthy").ok());
  EXPECT_TRUE(manager_->Extend("healthy", 0, Auth("healthy"), Bytes(20, 0x05)).ok());
}

TEST_F(VtpmManagerTest, CorruptStateBlobQuarantinesTheTenant) {
  ASSERT_TRUE(manager_->CreateTenant("victim", Auth("victim")).ok());
  ASSERT_TRUE(manager_->SnapshotTenant("victim").ok());

  // Swap in a different tenant's (validly sealed) disk: the unseal succeeds
  // and the version matches, but the state names the wrong tenant.
  ASSERT_TRUE(manager_->CreateTenant("other", Auth("other")).ok());

  platform_->machine()->PowerCut();
  ASSERT_TRUE(platform_->tpm()->Startup().ok());
  manager_->OnPowerLoss();
  ASSERT_TRUE(manager_->RecoverAll().ok());

  CrashConsistentSealedStore* victim = manager_->StoreForTest("victim");
  CrashConsistentSealedStore* other = manager_->StoreForTest("other");
  victim->RestoreDiskForTest(other->CaptureDiskForTest());

  Result<VirtualTpm*> vt = manager_->ResidentTenant("victim");
  ASSERT_FALSE(vt.ok());
  EXPECT_TRUE(manager_->TenantQuarantined("victim"));
}

}  // namespace
}  // namespace vtpm
}  // namespace flicker
