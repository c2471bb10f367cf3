// The crash matrix: sweep a power loss over every instrumented crash point
// of a representative Flicker workload and assert the post-recovery
// invariants after each cell. This is the payoff test of the
// fault-injection campaign: a correct stack survives every interleaving of
// crash x recovery, and a deliberately mis-ordered seal protocol is caught.
//
// Workload per cell (fresh platform each time, so cells are independent and
// the hit sequence is deterministic):
//   1. a full Flicker session (SKINIT -> PAL -> erase -> resume),
//   2. a two-phase seal of a new generation,
//   3. an NV write,
//   4. a coalesced batch quote,
//   5. a concurrent-mode session on a second platform.
// Recovery per cell: PowerCut, TPM_Startup(ST_CLEAR),
// CrashConsistentSealedStore::Recover().
//
// Invariants checked after recovery:
//   A. dynamic PCRs read back as the -1 reset value,
//   B. Recover() never fails closed and the store serves exactly one of the
//      two generations in flight - never anything else, never stale data,
//   C. the NV space holds exactly the old or the new value - never a torn
//      mix - and takes a fresh write,
//   D. the quote daemon can serve a challenge again.

#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/hello.h"
#include "src/apps/rootkit_detector.h"
#include "src/common/fault.h"
#include "src/core/flicker_platform.h"
#include "src/core/sealed_state.h"
#include "src/crypto/sha1.h"
#include "src/obs/trace.h"
#include "src/tpm/pcr_bank.h"
#include "src/tpm/tpm_util.h"

namespace flicker {
namespace {

constexpr uint32_t kNvIndex = 77;
const Bytes kNvBefore(8, 0x11);
const Bytes kNvAfter(8, 0x22);

// One cell's worth of platform + stores, set up identically every time. The
// setup runs without a FaultInjectionScope, so its crash points neither fire
// nor pollute the recording.
struct Rig {
  std::unique_ptr<FlickerPlatform> platform;
  // A second, concurrent-mode platform so the matrix also sweeps crashes
  // through the hypervisor's durability boundaries (launch, session
  // protection, session end) on every cell.
  std::unique_ptr<FlickerPlatform> hv_platform;
  std::unique_ptr<CrashConsistentSealedStore> store;
  PalBinary detector;
  PalBinary hello;
  Bytes inputs;
  Bytes owner_auth;
  Bytes blob_auth;
  Bytes release_pcr;
};

class CrashMatrixTest : public ::testing::Test {
 protected:
  std::unique_ptr<Rig> MakeRig(CrashStoreOptions options = CrashStoreOptions()) {
    auto rig = std::make_unique<Rig>();
    rig->platform = std::make_unique<FlickerPlatform>();
    FlickerPlatformConfig hv_config;
    hv_config.mode = SessionMode::kConcurrent;
    rig->hv_platform = std::make_unique<FlickerPlatform>(hv_config);
    rig->hello = BuildPal(std::make_shared<HelloWorldPal>()).take();
    rig->owner_auth = Sha1::Digest(BytesOf("owner"));
    EXPECT_TRUE(rig->platform->tpm()->TakeOwnership(rig->owner_auth).ok());
    rig->blob_auth = Sha1::Digest(BytesOf("blob"));
    // Bind seals to the current (OS-context) PCR 17 so the harness can
    // unseal directly; PAL gating is covered by platform_test.
    rig->release_pcr = rig->platform->tpm()->PcrRead(kSkinitPcr).value();

    Result<CrashConsistentSealedStore> store = CrashConsistentSealedStore::Create(
        rig->platform->tpm(), Sha1::Digest(BytesOf("ctr")), rig->owner_auth, options);
    EXPECT_TRUE(store.ok());
    rig->store = std::make_unique<CrashConsistentSealedStore>(store.take());
    EXPECT_TRUE(rig->store->Seal(BytesOf("gen-1"), rig->release_pcr, rig->blob_auth).ok());

    EXPECT_TRUE(TpmDefineNvSpace(rig->platform->tpm(), kNvIndex, kNvBefore.size(),
                                 PcrSelection(), {}, rig->owner_auth)
                    .ok());
    EXPECT_TRUE(rig->platform->tpm()->NvWrite(kNvIndex, kNvBefore).ok());

    PalBuildOptions build;
    build.measurement_stub = true;
    rig->detector = BuildPal(std::make_shared<RootkitDetectorPal>(), build).take();
    rig->inputs = rig->platform->kernel()->SerializeRegions();
    return rig;
  }

  // The deterministic workload every cell replays. Throws PowerLossException
  // when the armed plan elects a hit inside it. The seal runs before the
  // session: it is bound to the OS-context PCR 17, which the session's
  // extends change until the next reset.
  static void RunWorkload(Rig* rig) {
    (void)rig->store->Seal(BytesOf("gen-2"), rig->release_pcr, rig->blob_auth);
    (void)rig->platform->tpm()->NvWrite(kNvIndex, kNvAfter);
    (void)rig->platform->ExecuteSession(rig->detector, rig->inputs);
    // A coalesced batch quote, so the matrix sweeps a power cut through the
    // batch-flush boundary too.
    (void)rig->platform->tqd()->SubmitBatched(BytesOf("batch-a"), PcrSelection({17}));
    (void)rig->platform->tqd()->SubmitBatched(BytesOf("batch-b"), PcrSelection({17}));
    std::vector<BatchQuoteResponse> slices;
    (void)rig->platform->tqd()->FlushReadyBatches(&slices, /*force=*/true);
    // A concurrent-mode session on the second platform, so the sweep also
    // crashes inside the hypervisor's launch / protect / end boundaries.
    (void)rig->hv_platform->ExecuteSession(rig->hello, BytesOf("hv-cell-input"));
  }

  // Recovers the cell and checks invariants A-D. Returns false (with gtest
  // failures recorded) when any invariant is violated.
  static bool RecoverAndCheck(Rig* rig) {
    Result<TpmStartupReport> startup = rig->platform->tpm()->Startup();
    EXPECT_TRUE(startup.ok()) << startup.status().ToString();
    if (!startup.ok()) {
      return false;
    }

    // A. Dynamic PCRs are back at their -1 reset value.
    Result<Bytes> pcr17 = rig->platform->tpm()->PcrRead(kSkinitPcr);
    EXPECT_TRUE(pcr17.ok());
    EXPECT_EQ(pcr17.value(), Bytes(20, 0xff));

    // B. Recovery classifies the torn state and the store serves exactly one
    //    of the in-flight generations.
    Result<RecoveryClass> recovered = rig->store->Recover();
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    if (!recovered.ok()) {
      return false;
    }
    EXPECT_NE(recovered.value(), RecoveryClass::kFailClosed);
    Result<Bytes> latest = rig->store->UnsealLatest(rig->blob_auth);
    EXPECT_TRUE(latest.ok()) << latest.status().ToString();
    if (!latest.ok()) {
      return false;
    }
    EXPECT_TRUE(latest.value() == BytesOf("gen-1") || latest.value() == BytesOf("gen-2"))
        << "store served unexpected data";
    EXPECT_GE(rig->store->committed_version(), 1u);

    // C. The NV space holds the old or the new value, never a torn mix of
    //    the two, and takes a fresh write.
    Result<Bytes> nv =
        rig->platform->machine()->tpm_transport()->hardware()->NvContents(kNvIndex);
    EXPECT_TRUE(nv.ok()) << nv.status().ToString();
    if (nv.ok()) {
      EXPECT_TRUE(nv.value() == kNvBefore || nv.value() == kNvAfter) << "torn NV write";
    }
    EXPECT_TRUE(rig->platform->tpm()->NvWrite(kNvIndex, Bytes(8, 0x33)).ok());

    // D. Attestation service resumed, for single and batched challenges.
    Result<AttestationResponse> quote =
        rig->platform->tqd()->HandleChallenge(BytesOf("post-crash"), PcrSelection({17}));
    EXPECT_TRUE(quote.ok()) << quote.status().ToString();
    EXPECT_TRUE(
        rig->platform->tqd()->SubmitBatched(BytesOf("post-crash-batch"), PcrSelection({17})).ok());
    std::vector<BatchQuoteResponse> slices;
    Status batch = rig->platform->tqd()->FlushReadyBatches(&slices, /*force=*/true);
    EXPECT_TRUE(batch.ok()) << batch.ToString();
    EXPECT_EQ(slices.size(), 1u);

    // E. The concurrent-mode platform recovers too: whatever state the
    //    crash tore, a reset evicts the hypervisor and the next session
    //    relaunches it and completes normally.
    rig->hv_platform->machine()->PowerCut();
    EXPECT_FALSE(rig->hv_platform->hypervisor()->resident());
    Result<TpmStartupReport> hv_startup =
        rig->hv_platform->tpm()->Startup();
    EXPECT_TRUE(hv_startup.ok()) << hv_startup.status().ToString();
    Result<FlickerSessionResult> hv_session =
        rig->hv_platform->ExecuteSession(rig->hello, BytesOf("post-crash-hv"));
    EXPECT_TRUE(hv_session.ok()) << hv_session.status().ToString();
    if (hv_session.ok()) {
      EXPECT_EQ(hv_session.value().outputs(), BytesOf("Hello, world"));
    }

    return !::testing::Test::HasFatalFailure();
  }

  // Recording pass: run the workload with an unarmed scheduler to enumerate
  // the crash surface.
  std::vector<std::string> RecordHits() {
    std::unique_ptr<Rig> rig = MakeRig();
    FaultScheduler* scheduler = rig->platform->machine()->fault_scheduler();
    scheduler->ClearHits();
    FaultInjectionScope scope(scheduler);
    RunWorkload(rig.get());
    return scheduler->hits();
  }
};

TEST_F(CrashMatrixTest, WorkloadCoversTheCrashSurface) {
  std::vector<std::string> hits = RecordHits();
  std::set<std::string> distinct(hits.begin(), hits.end());
  // The acceptance floor is 15 instrumented points; the workload reaches the
  // full census of 21 (18 classic + the hypervisor's three).
  EXPECT_GE(distinct.size(), 15u) << "crash surface shrank";
  for (const char* point :
       {"skinit.enter", "skinit.measured", "skinit.pcr_extended", "slb.entry", "slb.pal_done",
        "slb.erased", "machine.exit_secure", "seal.staged", "seal.incremented", "seal.committed",
        "tpm.counter.journal", "tpm.counter.staged", "tpm.counter.commit", "tpm.nv_write.journal",
        "tpm.nv_write.staged", "tpm.nv_write.commit", "tpm.nv_write.apply", "tqd.batch_flush",
        "hv.launched", "hv.session_protected", "hv.session_end"}) {
    EXPECT_TRUE(distinct.count(point)) << "workload never reached " << point;
  }
}

TEST_F(CrashMatrixTest, EveryCrashPointRecoversAfterPowerCut) {
  const std::vector<std::string> hits = RecordHits();
  ASSERT_GE(hits.size(), 15u);

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
      std::cerr << "crash matrix cell failed: crash at hit " << i << " ('" << point
                << "') + PowerCut\n";
      scheduler->DumpCrashPoints(std::cerr);
      std::cerr << tracer.ExportChromeTrace();
      FAIL() << "invariant violated at '" << point << "' x PowerCut";
    }
  }
}

TEST_F(CrashMatrixTest, BrokenCommitOrderingIsCaughtByTheMatrix) {
  // Same sweep, but the store commits before incrementing the counter. The
  // matrix must catch the bug: some cell leaves the store unable to serve
  // either in-flight generation (the committed blob's version is ahead of
  // the counter forever - data loss).
  CrashStoreOptions broken;
  broken.broken_commit_before_increment = true;

  // Record the broken workload's own hit sequence (the seal emits its points
  // in a different order).
  std::vector<std::string> hits;
  {
    std::unique_ptr<Rig> rig = MakeRig(broken);
    FaultScheduler* scheduler = rig->platform->machine()->fault_scheduler();
    scheduler->ClearHits();
    FaultInjectionScope scope(scheduler);
    RunWorkload(rig.get());
    hits = scheduler->hits();
  }
  ASSERT_FALSE(hits.empty());

  int violations = 0;
  for (size_t i = 1; i <= hits.size(); ++i) {
    std::unique_ptr<Rig> rig = MakeRig(broken);
    FaultScheduler* scheduler = rig->platform->machine()->fault_scheduler();
    CrashPlan plan;
    plan.crash_at_hit = i;
    scheduler->Arm(plan);
    bool crashed = false;
    {
      FaultInjectionScope scope(scheduler);
      try {
        RunWorkload(rig.get());
      } catch (const PowerLossException&) {
        crashed = true;
      }
    }
    if (!crashed) {
      break;
    }
    rig->platform->machine()->PowerCut();
    if (!rig->platform->tpm()->Startup().ok()) {
      ++violations;
      continue;
    }
    Result<RecoveryClass> recovered = rig->store->Recover();
    Result<Bytes> latest = rig->store->UnsealLatest(rig->blob_auth);
    bool serves_valid_generation =
        recovered.ok() && latest.ok() &&
        (latest.value() == BytesOf("gen-1") || latest.value() == BytesOf("gen-2"));
    if (!serves_valid_generation) {
      ++violations;
    }
  }
  EXPECT_GT(violations, 0)
      << "the matrix failed to catch the commit-before-increment protocol bug";
}

// Writes this binary's crash-point census for the verify.sh coverage gate
// (no-op unless FLICKER_CRASH_POINTS_OUT is set).
class CensusEnvironment : public ::testing::Environment {
 public:
  void TearDown() override { ASSERT_TRUE(WriteCrashPointCensus("integration_crash_matrix_test")); }
};
::testing::Environment* const census_env =
    ::testing::AddGlobalTestEnvironment(new CensusEnvironment);

}  // namespace
}  // namespace flicker
