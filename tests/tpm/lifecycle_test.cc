// TPM v1.2 lifecycle: TPM_Init/TPM_Startup(ST_CLEAR)/TPM_GetTestResult, the
// refusal of every other startup type, the failure mode in which only
// Startup/GetTestResult are accepted, and the NV/counter write-ahead journal
// that makes persistent writes crash-safe.

#include <iostream>

#include <gtest/gtest.h>

#include "src/common/fault.h"
#include "src/crypto/sha1.h"
#include "src/obs/trace.h"
#include "src/tpm/commands.h"
#include "src/tpm/pcr_bank.h"
#include "src/tpm/tpm.h"
#include "src/tpm/tpm_util.h"
#include "src/tpm/transport.h"

namespace flicker {
namespace {

constexpr uint32_t kNvIndex = 0x00011234;

class TpmLifecycleTest : public ::testing::Test {
 protected:
  TpmLifecycleTest() : tpm_(&clock_, BroadcomBcm0102Profile()), transport_(&tpm_), client_(&transport_) {}

  // A failing lifecycle assertion is easiest to debug from the wire: print
  // the run's trace (every command with its locality and return code)
  // alongside the gtest failure.
  void TearDown() override {
    if (HasFailure()) {
      std::cerr << tracer_.ExportChromeTrace();
    }
  }

  Bytes OwnerAuth() { return Sha1::Digest(BytesOf("owner")); }

  void DefineNvSpace() {
    ASSERT_TRUE(tpm_.TakeOwnership(OwnerAuth()).ok());
    ASSERT_TRUE(TpmDefineNvSpace(&client_, kNvIndex, 8, PcrSelection(), {}, OwnerAuth()).ok());
  }

  // Crashes at the named point while running `fn`, then returns the
  // exception's point for the caller to assert on.
  template <typename Fn>
  std::string CrashAt(const std::string& point, Fn fn) {
    CrashPlan plan;
    plan.crash_at_hit = 1;
    plan.only_point = point;
    FaultScheduler scheduler;
    scheduler.Arm(plan);
    FaultInjectionScope scope(&scheduler);
    try {
      fn();
    } catch (const PowerLossException& e) {
      return e.point();
    }
    return "";
  }

  SimClock clock_;
  Tpm tpm_;
  TpmTransport transport_;
  TpmClient client_;
  obs::ScopedTracer tracer_{&clock_};
};

TEST_F(TpmLifecycleTest, StartupWithoutInitRejected) {
  // The model boots operational (BIOS POST already ran Startup); a second
  // Startup with no reset in between is a protocol violation.
  Result<TpmStartupReport> report = tpm_.Startup();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(TpmLifecycleTest, InitBlocksEverythingButStartupAndGetTestResult) {
  transport_.hardware()->Init();
  EXPECT_EQ(tpm_.lifecycle_state(), TpmLifecycleState::kNeedStartup);

  // Ordinary commands are refused at the dispatch gate.
  Result<Bytes> pcr = client_.PcrRead(0);
  ASSERT_FALSE(pcr.ok());
  EXPECT_EQ(pcr.status().code(), StatusCode::kFailedPrecondition);

  // The two exempt commands work.
  Result<uint32_t> test = client_.GetTestResult();
  ASSERT_TRUE(test.ok());
  EXPECT_EQ(test.value(), kTpmTestPassed);
  ASSERT_TRUE(client_.Startup().ok());
  EXPECT_EQ(tpm_.lifecycle_state(), TpmLifecycleState::kOperational);
  EXPECT_TRUE(client_.PcrRead(0).ok());
}

TEST_F(TpmLifecycleTest, InitResetsPcrsToPowerOnValues) {
  ASSERT_TRUE(tpm_.RequestLocality(2).ok());
  ASSERT_TRUE(tpm_.PcrExtend(17, Bytes(kPcrSize, 1)).ok());
  ASSERT_TRUE(tpm_.RequestLocality(0).ok());
  ASSERT_TRUE(tpm_.PcrExtend(0, Bytes(kPcrSize, 2)).ok());

  transport_.hardware()->Init();
  ASSERT_TRUE(client_.Startup().ok());
  // Dynamic PCRs read -1 after any reset; statics are zeroed by ST_CLEAR.
  EXPECT_EQ(tpm_.PcrRead(17).value(), Bytes(kPcrSize, 0xff));
  EXPECT_EQ(tpm_.PcrRead(0).value(), Bytes(kPcrSize, 0x00));
}

TEST_F(TpmLifecycleTest, StartupRefusesEveryTypeButStClear) {
  transport_.hardware()->Init();
  // ST_STATE (2) asks for a TPM_SaveState resume the device does not
  // implement; 0 is no type at all. Both are malformed frames, refused
  // typed, and neither moves the lifecycle state.
  for (uint16_t type : {uint16_t{2}, uint16_t{0}}) {
    Bytes body;
    PutUint16(&body, type);
    Result<Bytes> response =
        transport_.Transmit(BuildCommandFrame(kTagRequest, kOrdStartup, body));
    ASSERT_TRUE(response.ok());
    Result<Bytes> payload = ParseResponseFrame(response.value());
    ASSERT_FALSE(payload.ok()) << "type " << type;
    EXPECT_EQ(payload.status().code(), StatusCode::kInvalidArgument) << "type " << type;
    EXPECT_EQ(tpm_.lifecycle_state(), TpmLifecycleState::kNeedStartup) << "type " << type;
  }
  ASSERT_TRUE(client_.Startup().ok());
  EXPECT_EQ(tpm_.lifecycle_state(), TpmLifecycleState::kOperational);
}

TEST_F(TpmLifecycleTest, FailureModeGatesWireCommands) {
  transport_.hardware()->ForceFailureMode();
  Result<Bytes> random_blocked = client_.PcrRead(0);
  ASSERT_FALSE(random_blocked.ok());
  EXPECT_EQ(random_blocked.status().code(), StatusCode::kTpmFailed);
  EXPECT_EQ(client_.GetTestResult().value(), kTpmTestHardwareFault);

  // The fault clears, software restarts the device, service resumes.
  transport_.hardware()->ClearFailureMode();
  transport_.hardware()->Init();
  ASSERT_TRUE(client_.Startup().ok());
  EXPECT_TRUE(client_.PcrRead(0).ok());
}

TEST_F(TpmLifecycleTest, NvWriteCrashBeforeCommitDiscardsJournal) {
  DefineNvSpace();
  Bytes v1 = Bytes(8, 0x11);
  ASSERT_TRUE(client_.NvWrite(kNvIndex, v1).ok());

  // Crash after staging but before the commit mark: replay must discard.
  Bytes v2 = Bytes(8, 0x22);
  EXPECT_EQ(CrashAt("tpm.nv_write.staged", [&] { (void)tpm_.NvWrite(kNvIndex, v2); }),
            "tpm.nv_write.staged");
  EXPECT_TRUE(tpm_.journal_pending());

  transport_.hardware()->Init();
  Result<TpmStartupReport> report = client_.Startup();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().journal_discarded);
  EXPECT_FALSE(report.value().journal_rolled_forward);
  EXPECT_EQ(tpm_.NvContents(kNvIndex).value(), v1);
}

TEST_F(TpmLifecycleTest, NvWriteTornApplyRolledForwardOnStartup) {
  DefineNvSpace();
  Bytes v1 = Bytes(8, 0x11);
  ASSERT_TRUE(client_.NvWrite(kNvIndex, v1).ok());

  // Crash mid-apply: the space holds a torn half-write, but the journal is
  // committed, so Startup replay completes the write.
  Bytes v2 = Bytes(8, 0x22);
  EXPECT_EQ(CrashAt("tpm.nv_write.apply", [&] { (void)tpm_.NvWrite(kNvIndex, v2); }),
            "tpm.nv_write.apply");
  // The torn state is visible at the device before recovery: half new bytes.
  Bytes torn = tpm_.NvContents(kNvIndex).value();
  EXPECT_NE(torn, v1);
  EXPECT_NE(torn, v2);

  transport_.hardware()->Init();
  Result<TpmStartupReport> report = client_.Startup();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().journal_rolled_forward);
  EXPECT_EQ(tpm_.NvContents(kNvIndex).value(), v2);
}

TEST_F(TpmLifecycleTest, CounterIncrementCrashNeverLosesOrRepeatsValues) {
  ASSERT_TRUE(tpm_.TakeOwnership(OwnerAuth()).ok());
  Bytes counter_auth = Sha1::Digest(BytesOf("ctr"));
  Result<uint32_t> id = TpmCreateCounter(&client_, counter_auth, OwnerAuth());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client_.IncrementCounter(id.value(), counter_auth).ok());
  EXPECT_EQ(client_.ReadCounter(id.value()).value(), 1u);

  // Crash after the commit mark but before the (atomic) apply does not
  // exist for counters - the commit point is the last crash point - so a
  // crash at the commit mark itself must roll the increment forward.
  EXPECT_EQ(CrashAt("tpm.counter.commit",
                    [&] { (void)tpm_.IncrementCounter(id.value(), counter_auth); }),
            "tpm.counter.commit");
  transport_.hardware()->Init();
  Result<TpmStartupReport> report = client_.Startup();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().journal_rolled_forward);
  EXPECT_EQ(client_.ReadCounter(id.value()).value(), 2u);

  // Crash before the commit mark: the increment never happened.
  EXPECT_EQ(CrashAt("tpm.counter.journal",
                    [&] { (void)tpm_.IncrementCounter(id.value(), counter_auth); }),
            "tpm.counter.journal");
  transport_.hardware()->Init();
  report = client_.Startup();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().journal_discarded);
  EXPECT_EQ(client_.ReadCounter(id.value()).value(), 2u);

  // Replay is idempotent: a successful increment after recovery continues
  // the sequence with no gap and no repeat.
  EXPECT_EQ(client_.IncrementCounter(id.value(), counter_auth).value(), 3u);
}

TEST_F(TpmLifecycleTest, GarbledJournalEntryDiscardedByCrcCheck) {
  DefineNvSpace();
  ASSERT_TRUE(client_.NvWrite(kNvIndex, Bytes(8, 0x11)).ok());

  // Crash between journal write and CRC stamp: the entry's CRC is stale
  // (zero), which models a garbled/unfinished journal record on real NV.
  EXPECT_EQ(CrashAt("tpm.nv_write.journal",
                    [&] { (void)tpm_.NvWrite(kNvIndex, Bytes(8, 0x22)); }),
            "tpm.nv_write.journal");
  transport_.hardware()->Init();
  Result<TpmStartupReport> report = client_.Startup();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().journal_discarded);
  EXPECT_EQ(tpm_.NvContents(kNvIndex).value(), Bytes(8, 0x11));
}

TEST_F(TpmLifecycleTest, LifecycleCommandsChargeNoLatency) {
  double before = clock_.NowMillis();
  transport_.hardware()->Init();
  ASSERT_TRUE(client_.Startup().ok());
  (void)client_.GetTestResult();
  EXPECT_DOUBLE_EQ(clock_.NowMillis(), before);  // Table 1/2 stay byte-identical.
}

}  // namespace
}  // namespace flicker
