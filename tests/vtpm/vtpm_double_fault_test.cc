// Double-fault recovery: power is cut a SECOND time while the first crash
// is being recovered - during the sealed store's recovery classification or
// the TPM's NV write-ahead journal replay. Recovery must be idempotent: the
// third attempt converges to a clean state (or fails closed), never serves
// torn or stale data, and the vTPM manager's tenants come back.
//
// The FaultScheduler disarms after one crash, so each cell arms a fresh
// plan for the recovery pass, scoped around the recovery calls only.

#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fault.h"
#include "src/core/flicker_platform.h"
#include "src/crypto/sha1.h"
#include "src/vtpm/vtpm_manager.h"

namespace flicker {
namespace vtpm {
namespace {

Bytes Auth(const std::string& tenant) { return Sha1::Digest(BytesOf("auth-" + tenant)); }

struct Rig {
  std::unique_ptr<FlickerPlatform> platform;
  std::unique_ptr<VtpmManager> manager;
  Bytes pre, post;  // The two composites alice may legally serve.
};

std::unique_ptr<Rig> MakeRig() {
  auto rig = std::make_unique<Rig>();
  rig->platform = std::make_unique<FlickerPlatform>();
  Bytes owner_secret = Sha1::Digest(BytesOf("owner"));
  EXPECT_TRUE(rig->platform->tpm()->TakeOwnership(owner_secret).ok());

  VtpmManagerConfig config;
  config.owner_secret = owner_secret;
  config.blob_auth = Sha1::Digest(BytesOf("blob"));
  config.release_pcr17 = rig->platform->tpm()->PcrRead(kSkinitPcr).value();
  rig->manager = std::make_unique<VtpmManager>(rig->platform->machine(), config);

  EXPECT_TRUE(rig->manager->CreateTenant("alice", Auth("alice")).ok());
  EXPECT_TRUE(rig->manager->Extend("alice", 0, Auth("alice"), Bytes(20, 0x01)).ok());
  EXPECT_TRUE(rig->manager->SnapshotTenant("alice").ok());
  rig->pre = rig->manager->ResidentTenant("alice").value()->CompositeDigest();

  VirtualTpm next(rig->manager->ResidentTenant("alice").value()->state());
  EXPECT_TRUE(next.Extend(1, Bytes(20, 0x02)).ok());
  rig->post = next.CompositeDigest();
  return rig;
}

// Cut power at the `first_hit`-th crash point of an extend+snapshot, then
// cut power AGAIN at every crash point the recovery path itself executes,
// then recover for real and check alice converged.
void SweepDoubleFaults(size_t first_hit, int* recovery_cells) {
  // Recording pass for the recovery surface of this particular first crash.
  std::vector<std::string> recovery_hits;
  {
    std::unique_ptr<Rig> rig = MakeRig();
    FaultScheduler* scheduler = rig->platform->machine()->fault_scheduler();
    CrashPlan plan;
    plan.crash_at_hit = first_hit;
    scheduler->Arm(plan);
    bool crashed = false;
    {
      FaultInjectionScope scope(scheduler);
      try {
        (void)rig->manager->Extend("alice", 1, Auth("alice"), Bytes(20, 0x02));
        (void)rig->manager->SnapshotTenant("alice");
      } catch (const PowerLossException&) {
        crashed = true;
      }
    }
    if (!crashed) {
      return;  // The workload has fewer crash points than first_hit.
    }
    rig->platform->machine()->PowerCut();
    scheduler->ClearHits();
    // Record with the scope active but no plan armed: Startup's journal
    // replay and RecoverAll's store classification both run inside it.
    FaultInjectionScope scope(scheduler);
    ASSERT_TRUE(rig->platform->tpm()->Startup().ok());
    rig->manager->OnPowerLoss();
    ASSERT_TRUE(rig->manager->RecoverAll().ok());
    recovery_hits = scheduler->hits();
  }

  // Replay: same first crash, second crash at each recovery hit.
  for (size_t second = 1; second <= recovery_hits.size(); ++second) {
    std::unique_ptr<Rig> rig = MakeRig();
    FaultScheduler* scheduler = rig->platform->machine()->fault_scheduler();
    CrashPlan plan;
    plan.crash_at_hit = first_hit;
    scheduler->Arm(plan);
    {
      FaultInjectionScope scope(scheduler);
      try {
        (void)rig->manager->Extend("alice", 1, Auth("alice"), Bytes(20, 0x02));
        (void)rig->manager->SnapshotTenant("alice");
      } catch (const PowerLossException&) {
      }
    }
    rig->platform->machine()->PowerCut();

    // Second cut, mid-recovery.
    CrashPlan second_plan;
    second_plan.crash_at_hit = second;
    scheduler->Arm(second_plan);
    bool double_faulted = false;
    {
      FaultInjectionScope scope(scheduler);
      try {
        ASSERT_TRUE(rig->platform->tpm()->Startup().ok());
        rig->manager->OnPowerLoss();
        (void)rig->manager->RecoverAll();
      } catch (const PowerLossException&) {
        double_faulted = true;
      }
    }
    if (!double_faulted) {
      continue;  // This recovery pass had fewer hits (already-clean store).
    }
    ++*recovery_cells;
    rig->platform->machine()->PowerCut();

    // Third attempt, unarmed: must converge.
    ASSERT_TRUE(rig->platform->tpm()->Startup().ok());
    rig->manager->OnPowerLoss();
    Status final_recovery = rig->manager->RecoverAll();
    ASSERT_TRUE(final_recovery.ok())
        << "first crash at hit " << first_hit << ", second at recovery hit " << second << " ('"
        << recovery_hits[second - 1] << "'): " << final_recovery.ToString();

    Result<VirtualTpm*> vt = rig->manager->ResidentTenant("alice");
    if (!vt.ok()) {
      // Only a fail-closed classification may refuse service; torn or
      // stale data may not hide behind an error.
      std::cerr << "double-fault cell: first=" << first_hit << " second='"
                << recovery_hits[second - 1] << "' -> " << vt.status().ToString() << "\n";
      scheduler->DumpCrashPoints(std::cerr);
      FAIL() << "tenant neither loads nor failed closed: " << vt.status().ToString();
    }
    Bytes composite = vt.value()->CompositeDigest();
    EXPECT_TRUE(composite == rig->pre || composite == rig->post)
        << "double fault served a torn generation (first=" << first_hit << ", second='"
        << recovery_hits[second - 1] << "')";
    // Service resumes fully.
    EXPECT_TRUE(rig->manager->Extend("alice", 2, Auth("alice"), Bytes(20, 0x03)).ok());
    EXPECT_TRUE(rig->manager->SnapshotTenant("alice").ok());
  }
}

TEST(VtpmDoubleFaultTest, SecondCutDuringRecoveryStillConverges) {
  // Enumerate the extend+snapshot crash surface once to bound the sweep.
  size_t workload_hits = 0;
  {
    std::unique_ptr<Rig> rig = MakeRig();
    FaultScheduler* scheduler = rig->platform->machine()->fault_scheduler();
    scheduler->ClearHits();
    FaultInjectionScope scope(scheduler);
    (void)rig->manager->Extend("alice", 1, Auth("alice"), Bytes(20, 0x02));
    (void)rig->manager->SnapshotTenant("alice");
    workload_hits = scheduler->hits().size();
  }
  ASSERT_GE(workload_hits, 5u);

  int recovery_cells = 0;
  for (size_t first = 1; first <= workload_hits; ++first) {
    SweepDoubleFaults(first, &recovery_cells);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // The sweep must actually have exercised double faults, including the
  // journal-replay and store-recovery boundaries.
  EXPECT_GT(recovery_cells, 0) << "no recovery pass ever hit a crash point";
}

TEST(VtpmDoubleFaultTest, RecoveryCrashSurfaceIncludesReplayAndClassification) {
  // A crash at the counter journal's commit mark leaves the richest
  // recovery work: the committed journal entry must be rolled forward at
  // startup (tpm.journal.replay), which lands the increment and makes the
  // staged snapshot promotable (seal.recover.promote). Assert the recovery
  // pass actually executes the instrumented boundaries, so the sweep above
  // cannot silently degenerate.
  std::unique_ptr<Rig> rig = MakeRig();
  FaultScheduler* scheduler = rig->platform->machine()->fault_scheduler();
  CrashPlan plan;
  plan.only_point = "tpm.counter.commit";
  plan.crash_at_hit = 1;
  scheduler->Arm(plan);
  bool crashed = false;
  {
    FaultInjectionScope scope(scheduler);
    try {
      (void)rig->manager->SnapshotTenant("alice");
    } catch (const PowerLossException&) {
      crashed = true;
    }
  }
  ASSERT_TRUE(crashed);
  rig->platform->machine()->PowerCut();

  scheduler->ClearHits();
  {
    FaultInjectionScope scope(scheduler);
    ASSERT_TRUE(rig->platform->tpm()->Startup().ok());
    rig->manager->OnPowerLoss();
    ASSERT_TRUE(rig->manager->RecoverAll().ok());
  }
  std::set<std::string> distinct(scheduler->hits().begin(), scheduler->hits().end());
  EXPECT_TRUE(distinct.count("tpm.journal.replay")) << "journal replay not instrumented";
  EXPECT_TRUE(distinct.count("seal.recover.promote")) << "roll-forward not instrumented";
  EXPECT_TRUE(distinct.count("vtpm.recover.restored")) << "manager recovery not instrumented";
}

// Writes this binary's crash-point census for the verify.sh coverage gate
// (this suite is the one that executes the recovery-path points).
class CensusEnvironment : public ::testing::Environment {
 public:
  void TearDown() override { ASSERT_TRUE(WriteCrashPointCensus("vtpm_double_fault_test")); }
};
::testing::Environment* const census_env =
    ::testing::AddGlobalTestEnvironment(new CensusEnvironment);

}  // namespace
}  // namespace vtpm
}  // namespace flicker
