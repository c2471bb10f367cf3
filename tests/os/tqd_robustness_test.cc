// The quote daemon under a faulty TPM transport: dropped frames must be
// absorbed by the bounded retry loop (with the waiting time charged to the
// simulated clock), and an exhausted retry budget must surface as a clean
// Status rather than a crash or a hang.

#include <gtest/gtest.h>

#include "src/os/tqd.h"
#include "src/tpm/transport.h"

namespace flicker {
namespace {

constexpr double kQuoteMs = 972.7;        // Table 1, Broadcom Quote.
constexpr double kDropTimeoutMs = 10.0;   // Driver receive timeout per lost frame.

TEST(TqdRobustnessTest, QuoteSurvivesDroppingEveryThirdFrame) {
  Machine machine;
  // The machine's TpmClient fetched its two public keys at construction, so
  // the daemon's first quote frame is transmit #3 - the first one dropped.
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kDrop;
  plan.every_n = 3;
  plan.drop_timeout_ms = kDropTimeoutMs;
  machine.tpm_transport()->set_fault_plan(plan);

  TpmQuoteDaemon tqd(&machine);
  double before = machine.clock()->NowMillis();
  Result<AttestationResponse> response =
      tqd.HandleChallenge(BytesOf("challenge"), PcrSelection({17}));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(tqd.retries(), 1u);
  EXPECT_EQ(machine.tpm_transport()->faults_injected(), 1u);

  // One burned receive timeout, one 2 ms backoff, then the full quote.
  double elapsed = machine.clock()->NowMillis() - before;
  EXPECT_NEAR(elapsed, kDropTimeoutMs + 2.0 + kQuoteMs, 0.01);
  EXPECT_FALSE(response.value().quote.signature.empty());
  EXPECT_FALSE(response.value().aik_public.empty());
}

TEST(TqdRobustnessTest, ExhaustedRetryBudgetReturnsCleanUnavailable) {
  Machine machine;
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kDrop;
  plan.every_n = 1;  // Every frame lost: the budget cannot save us.
  plan.drop_timeout_ms = kDropTimeoutMs;
  machine.tpm_transport()->set_fault_plan(plan);

  TpmQuoteDaemon tqd(&machine);
  double before = machine.clock()->NowMillis();
  Result<AttestationResponse> response =
      tqd.HandleChallenge(BytesOf("challenge"), PcrSelection({17}));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(tqd.retries(), 3u);  // One try plus three retries.

  // Four burned timeouts plus the doubling backoffs (2 + 4 + 8 ms); the
  // quote itself never ran, so its latency is never charged.
  double elapsed = machine.clock()->NowMillis() - before;
  EXPECT_NEAR(elapsed, 4 * kDropTimeoutMs + 2.0 + 4.0 + 8.0, 0.01);
}

TEST(TqdRobustnessTest, PermanentErrorsAreNotRetried) {
  Machine machine;
  TpmQuoteDaemon tqd(&machine);
  // An empty selection is a permanent argument error: surfaced immediately,
  // no retries, no backoff charged.
  Result<AttestationResponse> response =
      tqd.HandleChallenge(BytesOf("challenge"), PcrSelection());
  ASSERT_FALSE(response.ok());
  EXPECT_NE(response.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(tqd.retries(), 0u);
}

TEST(TqdRobustnessTest, TighterBudgetFailsCleanlyUnderTheSameLossRate) {
  Machine machine;
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kDrop;
  plan.every_n = 3;
  plan.drop_timeout_ms = kDropTimeoutMs;
  machine.tpm_transport()->set_fault_plan(plan);

  // A challenge with an 11 ms budget meets the same dropped first frame:
  // its 10 ms receive timeout plus the 2 ms backoff would cross the budget,
  // so there is no retry to absorb it.
  TpmQuoteDaemon tqd(&machine);
  Result<AttestationResponse> response =
      tqd.HandleChallenge(BytesOf("challenge"), PcrSelection({17}), /*deadline_ms=*/11.0);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(tqd.retries(), 0u);
}

}  // namespace
}  // namespace flicker
