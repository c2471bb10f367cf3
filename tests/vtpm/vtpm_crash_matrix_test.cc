// The vTPM crash matrix: sweep a power loss over every durability boundary
// of a multi-tenant vTPM workload (create / extend / snapshot / evict and
// the seal + counter protocol underneath), cut the power, and assert the
// crash-consistency invariants after recovery:
//
//   A. RecoverAll succeeds: no tenant store fails closed, no tenant is
//      quarantined (there was no adversary, only a crash),
//   B. every pre-existing tenant loads to exactly one of its in-flight
//      snapshots - the pre-crash or post-crash generation, never torn,
//      never anything else,
//   C. a tenant whose create was interrupted either exists fully or was
//      rolled back to nonexistence (and its name is reusable),
//   D. service resumes: extends, snapshots, and a mux quote all work.
//
// The fixture dumps the crash-point census alongside the TPM transport
// trace on failure, and the binary writes the census file the verify.sh
// coverage gate consumes.

#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fault.h"
#include "src/core/flicker_platform.h"
#include "src/crypto/sha1.h"
#include "src/obs/trace.h"
#include "src/vtpm/vtpm_mux.h"

namespace flicker {
namespace vtpm {
namespace {

struct Rig {
  std::unique_ptr<FlickerPlatform> platform;
  std::unique_ptr<VtpmManager> manager;
  std::unique_ptr<VtpmMultiplexer> mux;
  // Composites each pre-existing tenant may legally serve after recovery:
  // its last pre-workload snapshot or its post-workload snapshot.
  Bytes alice_pre, alice_post, bob_pre, bob_post;
};

Bytes Auth(const std::string& tenant) { return Sha1::Digest(BytesOf("auth-" + tenant)); }

class VtpmCrashMatrixTest : public ::testing::Test {
 protected:
  // Setup runs without a FaultInjectionScope: its crash points neither fire
  // nor pollute the recording.
  static std::unique_ptr<Rig> MakeRig() {
    auto rig = std::make_unique<Rig>();
    rig->platform = std::make_unique<FlickerPlatform>();
    Bytes owner_secret = Sha1::Digest(BytesOf("owner"));
    EXPECT_TRUE(rig->platform->tpm()->TakeOwnership(owner_secret).ok());

    VtpmManagerConfig config;
    config.max_resident = 1;  // Tiny working set: loads force evictions.
    config.owner_secret = owner_secret;
    config.blob_auth = Sha1::Digest(BytesOf("blob"));
    config.release_pcr17 = rig->platform->tpm()->PcrRead(kSkinitPcr).value();
    rig->manager = std::make_unique<VtpmManager>(rig->platform->machine(), config);
    rig->mux = std::make_unique<VtpmMultiplexer>(rig->manager.get(), rig->platform->tqd(),
                                                 VtpmMuxConfig());

    EXPECT_TRUE(rig->manager->CreateTenant("alice", Auth("alice")).ok());
    EXPECT_TRUE(rig->manager->Extend("alice", 0, Auth("alice"), Bytes(20, 0xa1)).ok());
    EXPECT_TRUE(rig->manager->SnapshotTenant("alice").ok());
    rig->alice_pre = rig->manager->ResidentTenant("alice").value()->CompositeDigest();

    EXPECT_TRUE(rig->manager->CreateTenant("bob", Auth("bob")).ok());
    EXPECT_TRUE(rig->manager->Extend("bob", 0, Auth("bob"), Bytes(20, 0xb1)).ok());
    EXPECT_TRUE(rig->manager->SnapshotTenant("bob").ok());
    rig->bob_pre = rig->manager->ResidentTenant("bob").value()->CompositeDigest();

    // The legal post-crash composites are computed from pure VtpmState
    // arithmetic (no hardware), mirroring what the workload will do.
    VirtualTpm alice_next(rig->manager->ResidentTenant("alice").value()->state());
    EXPECT_TRUE(alice_next.Extend(1, Bytes(20, 0xa2)).ok());
    rig->alice_post = alice_next.CompositeDigest();
    VirtualTpm bob_next(rig->manager->ResidentTenant("bob").value()->state());
    EXPECT_TRUE(bob_next.Extend(1, Bytes(20, 0xb2)).ok());
    rig->bob_post = bob_next.CompositeDigest();
    return rig;
  }

  // The deterministic workload every cell replays: extend + snapshot two
  // tenants (forcing LRU evictions at max_resident=1), explicit evict, and
  // a mid-workload tenant creation. Throws PowerLossException when armed.
  static void RunWorkload(Rig* rig) {
    (void)rig->manager->Extend("alice", 1, Auth("alice"), Bytes(20, 0xa2));
    (void)rig->manager->SnapshotTenant("alice");
    (void)rig->manager->Extend("bob", 1, Auth("bob"), Bytes(20, 0xb2));
    (void)rig->manager->SnapshotTenant("bob");
    (void)rig->manager->EvictTenant("bob");
    (void)rig->manager->CreateTenant("carol", Auth("carol"));
  }

  // Recovery runs OUTSIDE the fault scope (the cut already happened); its
  // own crash points are swept separately by the double-fault suite.
  static bool RecoverAndCheck(Rig* rig) {
    Result<TpmStartupReport> startup = rig->platform->tpm()->Startup(TpmStartupType::kClear);
    EXPECT_TRUE(startup.ok()) << startup.status().ToString();
    if (!startup.ok()) {
      return false;
    }
    rig->manager->OnPowerLoss();
    rig->mux->OnPowerLoss();

    // A. Crash-only recovery succeeds and quarantines nobody.
    Status recovered = rig->manager->RecoverAll();
    EXPECT_TRUE(recovered.ok()) << recovered.ToString();
    if (!recovered.ok()) {
      return false;
    }
    EXPECT_FALSE(rig->manager->TenantQuarantined("alice"));
    EXPECT_FALSE(rig->manager->TenantQuarantined("bob"));

    // B. Each pre-existing tenant serves exactly one in-flight generation.
    for (const auto& [name, pre, post] :
         {std::tuple<const char*, Bytes*, Bytes*>{"alice", &rig->alice_pre, &rig->alice_post},
          std::tuple<const char*, Bytes*, Bytes*>{"bob", &rig->bob_pre, &rig->bob_post}}) {
      Result<VirtualTpm*> vt = rig->manager->ResidentTenant(name);
      EXPECT_TRUE(vt.ok()) << name << ": " << vt.status().ToString();
      if (!vt.ok()) {
        return false;
      }
      Bytes composite = vt.value()->CompositeDigest();
      EXPECT_TRUE(composite == *pre || composite == *post)
          << name << " serves a composite that is neither in-flight generation";
    }

    // C. The interrupted create either completed or rolled back cleanly.
    if (rig->manager->TenantExists("carol")) {
      EXPECT_TRUE(rig->manager->ResidentTenant("carol").ok());
    } else {
      EXPECT_TRUE(rig->manager->CreateTenant("carol", Auth("carol")).ok())
          << "rolled-back tenant name is not reusable";
    }

    // D. Service resumed end to end: extend, snapshot, and a mux quote.
    EXPECT_TRUE(rig->manager->Extend("alice", 2, Auth("alice"), Bytes(20, 0xa3)).ok());
    EXPECT_TRUE(rig->manager->SnapshotTenant("alice").ok());
    bool quoted = false;
    rig->mux->set_sink([&quoted](const VtpmQuoteCompletion& completion) {
      EXPECT_TRUE(completion.status.ok()) << completion.status.ToString();
      quoted = completion.status.ok();
    });
    EXPECT_TRUE(rig->mux->Submit("bob", Sha1::Digest(BytesOf("post-crash")), Auth("bob")).ok());
    rig->mux->PumpAll();
    EXPECT_TRUE(quoted);

    return !::testing::Test::HasFatalFailure();
  }

  std::vector<std::string> RecordHits() {
    std::unique_ptr<Rig> rig = MakeRig();
    FaultScheduler* scheduler = rig->platform->machine()->fault_scheduler();
    scheduler->ClearHits();
    FaultInjectionScope scope(scheduler);
    RunWorkload(rig.get());
    return scheduler->hits();
  }
};

TEST_F(VtpmCrashMatrixTest, WorkloadCoversTheVtpmCrashSurface) {
  std::vector<std::string> hits = RecordHits();
  std::set<std::string> distinct(hits.begin(), hits.end());
  for (const char* point :
       {"vtpm.create.provisioned", "vtpm.extend.applied", "vtpm.snapshot.serialized",
        "vtpm.snapshot.sealed", "vtpm.evict.dropped", "seal.staged", "seal.incremented",
        "seal.committed", "tpm.counter.journal", "tpm.counter.staged", "tpm.counter.commit"}) {
    EXPECT_TRUE(distinct.count(point)) << "workload never reached " << point;
  }
}

TEST_F(VtpmCrashMatrixTest, EveryCrashPointRecoversAfterPowerCut) {
  const std::vector<std::string> hits = RecordHits();
  ASSERT_GE(hits.size(), 11u);

  for (size_t i = 1; i <= hits.size(); ++i) {
    std::unique_ptr<Rig> rig = MakeRig();
    // The cell's trace: every TPM command from the armed run through
    // recovery, printed if the cell fails.
    obs::ScopedTracer tracer(rig->platform->clock());
    FaultScheduler* scheduler = rig->platform->machine()->fault_scheduler();
    CrashPlan plan;
    plan.crash_at_hit = i;
    scheduler->Arm(plan);
    bool crashed = false;
    std::string point;
    {
      FaultInjectionScope scope(scheduler);
      try {
        RunWorkload(rig.get());
      } catch (const PowerLossException& e) {
        crashed = true;
        point = e.point();
      }
    }
    ASSERT_TRUE(crashed) << "hit " << i << " never fired (recorded " << hits[i - 1] << ")";
    EXPECT_EQ(point, hits[i - 1]) << "replay diverged from the recording at hit " << i;

    rig->platform->machine()->PowerCut();
    bool ok = RecoverAndCheck(rig.get());
    if (!ok || ::testing::Test::HasFailure()) {
      std::cerr << "vtpm crash matrix cell failed: crash at hit " << i << " ('" << point
                << "') + PowerCut\n";
      scheduler->DumpCrashPoints(std::cerr);
      std::cerr << tracer.ExportChromeTrace();
      FAIL() << "invariant violated at '" << point << "' x PowerCut";
    }
  }
}

// Writes this binary's crash-point census for the verify.sh coverage gate.
class CensusEnvironment : public ::testing::Environment {
 public:
  void TearDown() override { ASSERT_TRUE(WriteCrashPointCensus("vtpm_crash_matrix_test")); }
};
::testing::Environment* const census_env =
    ::testing::AddGlobalTestEnvironment(new CensusEnvironment);

}  // namespace
}  // namespace vtpm
}  // namespace flicker
