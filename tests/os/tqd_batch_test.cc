// The quote daemon's coalescing windows: batches fill until max_batch_size
// or age out at kMaxBatchWaitMs, windows never mix PCR selections, and the
// batch path composes with the robustness machinery - the circuit breaker
// holds windows, a TPM failure mid-flush loses no challenges, and a power
// cut at the flush boundary unwinds cleanly.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fault.h"
#include "src/os/tqd.h"
#include "src/tpm/transport.h"

namespace flicker {
namespace {

Bytes Nonce(const std::string& tag) { return BytesOf("nonce-" + tag); }

// Feeds the daemon the kBreakerThreshold failing challenges that trip it.
void TripBreaker(TpmQuoteDaemon* tqd) {
  for (int i = 0; i < TpmQuoteDaemon::kBreakerThreshold; ++i) {
    ASSERT_FALSE(tqd->HandleChallenge(Nonce("trip"), PcrSelection({17})).ok());
  }
}

TEST(TqdBatchTest, WindowFlushesWhenFull) {
  Machine machine;
  TpmQuoteDaemon tqd(&machine, /*max_batch_size=*/4);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tqd.SubmitBatched(Nonce(std::to_string(i)), PcrSelection({17})).ok());
  }
  EXPECT_FALSE(tqd.BatchReady());
  EXPECT_EQ(tqd.batched_pending(), 3u);

  // A non-forced flush before the window is ready answers nobody.
  std::vector<BatchQuoteResponse> responses;
  ASSERT_TRUE(tqd.FlushReadyBatches(&responses).ok());
  EXPECT_TRUE(responses.empty());
  EXPECT_EQ(tqd.batched_pending(), 3u);

  // The fourth challenge fills the window.
  ASSERT_TRUE(tqd.SubmitBatched(Nonce("3"), PcrSelection({17})).ok());
  EXPECT_TRUE(tqd.BatchReady());
  ASSERT_TRUE(tqd.FlushReadyBatches(&responses).ok());
  EXPECT_EQ(responses.size(), 4u);
  EXPECT_EQ(tqd.batched_pending(), 0u);
  EXPECT_EQ(tqd.batch_quotes(), 1u);
}

TEST(TqdBatchTest, WindowFlushesWhenOldestChallengeAgesOut) {
  Machine machine;
  TpmQuoteDaemon tqd(&machine);

  ASSERT_TRUE(tqd.SubmitBatched(Nonce("early"), PcrSelection({17})).ok());
  machine.clock()->AdvanceMillis(6.0);
  ASSERT_TRUE(tqd.SubmitBatched(Nonce("late"), PcrSelection({17})).ok());
  EXPECT_FALSE(tqd.BatchReady());

  // The window's age is measured from its OLDEST challenge: 6 ms plus the
  // rest of the wait reaches kMaxBatchWaitMs.
  machine.clock()->AdvanceMillis(TpmQuoteDaemon::kMaxBatchWaitMs - 6.0);
  EXPECT_TRUE(tqd.BatchReady());
  std::vector<BatchQuoteResponse> responses;
  ASSERT_TRUE(tqd.FlushReadyBatches(&responses).ok());
  EXPECT_EQ(responses.size(), 2u);
  EXPECT_EQ(tqd.batch_quotes(), 1u);
}

TEST(TqdBatchTest, SelectionsNeverShareAWindow) {
  Machine machine;
  TpmQuoteDaemon tqd(&machine, /*max_batch_size=*/8);

  ASSERT_TRUE(tqd.SubmitBatched(Nonce("a"), PcrSelection({17})).ok());
  ASSERT_TRUE(tqd.SubmitBatched(Nonce("b"), PcrSelection({17, 18})).ok());
  ASSERT_TRUE(tqd.SubmitBatched(Nonce("c"), PcrSelection({17})).ok());
  EXPECT_EQ(tqd.batched_pending(), 3u);

  std::vector<BatchQuoteResponse> responses;
  ASSERT_TRUE(tqd.FlushReadyBatches(&responses, /*force=*/true).ok());
  ASSERT_EQ(responses.size(), 3u);
  // Two windows, hence two distinct TPM quotes (different composites).
  EXPECT_EQ(tqd.batch_quotes(), 2u);
  for (const BatchQuoteResponse& r : responses) {
    if (r.nonce == Nonce("b")) {
      EXPECT_EQ(r.response.quote.selection.mask(), PcrSelection({17, 18}).mask());
    } else {
      EXPECT_EQ(r.response.quote.selection.mask(), PcrSelection({17}).mask());
    }
  }
}

TEST(TqdBatchTest, BatchSizeOneDisablesCoalescing) {
  Machine machine;
  TpmQuoteDaemon tqd(&machine, /*max_batch_size=*/1);

  ASSERT_TRUE(tqd.SubmitBatched(Nonce("solo"), PcrSelection({17})).ok());
  EXPECT_TRUE(tqd.BatchReady());  // Ready immediately, no wait.
  std::vector<BatchQuoteResponse> responses;
  ASSERT_TRUE(tqd.FlushReadyBatches(&responses).ok());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].path.steps.empty());
}

TEST(TqdBatchTest, OpenBreakerHoldsWindowsUntilRecovery) {
  Machine machine;
  machine.tpm_transport()->hardware()->ForceFailureMode();

  TpmQuoteDaemon tqd(&machine, /*max_batch_size=*/2);

  // Trip the breaker with ordinary challenges.
  TripBreaker(&tqd);
  ASSERT_TRUE(tqd.breaker_open());

  ASSERT_TRUE(tqd.SubmitBatched(Nonce("h1"), PcrSelection({17})).ok());
  ASSERT_TRUE(tqd.SubmitBatched(Nonce("h2"), PcrSelection({17})).ok());

  // The open breaker refuses to flush and the window stays intact.
  std::vector<BatchQuoteResponse> responses;
  Status held = tqd.FlushReadyBatches(&responses);
  EXPECT_EQ(held.code(), StatusCode::kTpmFailed);
  EXPECT_TRUE(responses.empty());
  EXPECT_EQ(tqd.batched_pending(), 2u);

  // TPM recovers; after the cooldown the half-open probe passes and the
  // held window flushes in one quote.
  machine.tpm_transport()->hardware()->ClearFailureMode();
  machine.tpm_transport()->hardware()->Init();
  ASSERT_TRUE(machine.tpm()->Startup().ok());
  machine.clock()->AdvanceMillis(TpmQuoteDaemon::kBreakerCooldownMs);
  ASSERT_TRUE(tqd.FlushReadyBatches(&responses).ok());
  EXPECT_EQ(responses.size(), 2u);
  EXPECT_EQ(tqd.batched_pending(), 0u);
}

TEST(TqdBatchTest, TpmFailureMidFlushKeepsTheWindow) {
  Machine machine;
  TpmQuoteDaemon tqd(&machine, /*max_batch_size=*/2);

  ASSERT_TRUE(tqd.SubmitBatched(Nonce("k1"), PcrSelection({17})).ok());
  ASSERT_TRUE(tqd.SubmitBatched(Nonce("k2"), PcrSelection({17})).ok());

  // The TPM dies between submit and flush. Ordinary challenges bring the
  // breaker to one failure short of tripping; the flush's quote fails, the
  // breaker trips, and the window is pushed back untouched.
  machine.tpm_transport()->hardware()->ForceFailureMode();
  for (int i = 1; i < TpmQuoteDaemon::kBreakerThreshold; ++i) {
    ASSERT_FALSE(tqd.HandleChallenge(Nonce("fail"), PcrSelection({17})).ok());
  }
  ASSERT_FALSE(tqd.breaker_open());
  std::vector<BatchQuoteResponse> responses;
  Status failed = tqd.FlushReadyBatches(&responses);
  EXPECT_EQ(failed.code(), StatusCode::kTpmFailed);
  EXPECT_TRUE(responses.empty());
  EXPECT_TRUE(tqd.breaker_open());
  EXPECT_EQ(tqd.batched_pending(), 2u);
  EXPECT_EQ(tqd.batch_quotes(), 0u);

  // Recovery drains the same window: no challenge was lost.
  machine.tpm_transport()->hardware()->ClearFailureMode();
  machine.tpm_transport()->hardware()->Init();
  ASSERT_TRUE(machine.tpm()->Startup().ok());
  machine.clock()->AdvanceMillis(TpmQuoteDaemon::kBreakerCooldownMs);
  ASSERT_TRUE(tqd.FlushReadyBatches(&responses).ok());
  EXPECT_EQ(responses.size(), 2u);
  EXPECT_EQ(tqd.batch_quotes(), 1u);
}

TEST(TqdBatchTest, PowerCutAtFlushBoundaryUnwindsBeforeTheQuote) {
  Machine machine;
  TpmQuoteDaemon tqd(&machine, /*max_batch_size=*/2);

  ASSERT_TRUE(tqd.SubmitBatched(Nonce("p1"), PcrSelection({17})).ok());
  ASSERT_TRUE(tqd.SubmitBatched(Nonce("p2"), PcrSelection({17})).ok());

  FaultScheduler scheduler;
  FaultInjectionScope scope(&scheduler);
  CrashPlan plan;
  plan.crash_at_hit = 1;
  plan.only_point = "tqd.batch_flush";
  scheduler.Arm(plan);

  std::vector<BatchQuoteResponse> responses;
  bool cut = false;
  try {
    (void)tqd.FlushReadyBatches(&responses, /*force=*/true);
  } catch (const PowerLossException& e) {
    cut = true;
    EXPECT_EQ(e.point(), "tqd.batch_flush");
  }
  ASSERT_TRUE(cut);
  scheduler.Disarm();

  // The cut struck before the TPM quote: no partial answers escaped and no
  // quote was counted. The in-flight window is gone - challengers re-issue,
  // exactly the paper's stateless-challenge model.
  EXPECT_TRUE(responses.empty());
  EXPECT_EQ(tqd.batch_quotes(), 0u);

  // A "rebooted" daemon on the same machine serves re-issued challenges.
  TpmQuoteDaemon recovered(&machine, /*max_batch_size=*/2);
  ASSERT_TRUE(recovered.SubmitBatched(Nonce("p1"), PcrSelection({17})).ok());
  ASSERT_TRUE(recovered.SubmitBatched(Nonce("p2"), PcrSelection({17})).ok());
  ASSERT_TRUE(recovered.FlushReadyBatches(&responses, /*force=*/true).ok());
  EXPECT_EQ(responses.size(), 2u);
}

}  // namespace
}  // namespace flicker
