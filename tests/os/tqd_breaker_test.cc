// The quote daemon against a TPM in failure mode: the circuit breaker must
// open after repeated kTpmFailed verdicts, queue challenges instead of
// hammering the device, probe with TPM_GetTestResult after the cooldown, and
// drain the queue once the TPM self-tests clean. The retry loop must also
// respect its total simulated-clock deadline.

#include <gtest/gtest.h>

#include "src/os/tqd.h"
#include "src/tpm/transport.h"

namespace flicker {
namespace {

constexpr double kDropTimeoutMs = 10.0;
constexpr int kThreshold = TpmQuoteDaemon::kBreakerThreshold;
constexpr double kCooldownMs = TpmQuoteDaemon::kBreakerCooldownMs;

// Feeds the daemon kThreshold failing challenges: the last one trips the
// breaker and is queued.
void TripBreaker(TpmQuoteDaemon* tqd) {
  for (int i = 0; i < kThreshold; ++i) {
    ASSERT_FALSE(tqd->HandleChallenge(BytesOf("trip"), PcrSelection({17})).ok());
  }
}

TEST(TqdBreakerTest, OpensAfterConsecutiveTpmFailures) {
  Machine machine;
  machine.tpm_transport()->hardware()->ForceFailureMode();

  TpmQuoteDaemon tqd(&machine);

  // The first (threshold - 1) challenges fail but the breaker stays closed.
  for (int i = 0; i < kThreshold - 1; ++i) {
    Result<AttestationResponse> response =
        tqd.HandleChallenge(BytesOf("challenge"), PcrSelection({17}));
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kTpmFailed);
    EXPECT_FALSE(tqd.breaker_open());
  }
  // The threshold-th failure trips it; from then on challenges are queued.
  ASSERT_FALSE(tqd.HandleChallenge(BytesOf("challenge"), PcrSelection({17})).ok());
  EXPECT_TRUE(tqd.breaker_open());
  EXPECT_EQ(tqd.queued_count(), 1u);

  ASSERT_FALSE(tqd.HandleChallenge(BytesOf("queued-2"), PcrSelection({17})).ok());
  EXPECT_EQ(tqd.queued_count(), 2u);
}

TEST(TqdBreakerTest, HalfOpenProbeRecoversAndDrainsQueue) {
  Machine machine;
  machine.tpm_transport()->hardware()->ForceFailureMode();

  TpmQuoteDaemon tqd(&machine);

  TripBreaker(&tqd);
  ASSERT_TRUE(tqd.breaker_open());
  ASSERT_EQ(tqd.queued_count(), 1u);

  // Before the cooldown elapses, even a recovered TPM is not probed.
  machine.tpm_transport()->hardware()->ClearFailureMode();
  machine.tpm_transport()->hardware()->Init();
  ASSERT_TRUE(machine.tpm()->Startup().ok());
  ASSERT_FALSE(tqd.HandleChallenge(BytesOf("b"), PcrSelection({17})).ok());
  EXPECT_EQ(tqd.queued_count(), 2u);
  EXPECT_TRUE(tqd.breaker_open());

  // After the cooldown the half-open GetTestResult probe sees a clean self
  // test, the breaker closes, and the queue drains in order.
  machine.clock()->AdvanceMillis(kCooldownMs);
  std::vector<AttestationResponse> responses;
  ASSERT_TRUE(tqd.DrainQueued(&responses).ok());
  EXPECT_FALSE(tqd.breaker_open());
  EXPECT_EQ(tqd.queued_count(), 0u);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].quote.signature.empty());

  // Normal service resumes.
  EXPECT_TRUE(tqd.HandleChallenge(BytesOf("c"), PcrSelection({17})).ok());
}

TEST(TqdBreakerTest, ProbeFailureKeepsBreakerOpenAndRestartsCooldown) {
  Machine machine;
  machine.tpm_transport()->hardware()->ForceFailureMode();

  TpmQuoteDaemon tqd(&machine);
  TripBreaker(&tqd);
  ASSERT_TRUE(tqd.breaker_open());

  // Cooldown passes but the TPM is still sick: the probe fails and the
  // challenge stays queued.
  machine.clock()->AdvanceMillis(kCooldownMs);
  std::vector<AttestationResponse> responses;
  ASSERT_FALSE(tqd.DrainQueued(&responses).ok());
  EXPECT_TRUE(tqd.breaker_open());
  EXPECT_TRUE(responses.empty());
  EXPECT_EQ(tqd.queued_count(), 1u);
}

TEST(TqdBreakerTest, RetryDeadlineCapsSimulatedClockSpend) {
  Machine machine;
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kDrop;
  plan.every_n = 1;  // Every frame lost.
  plan.drop_timeout_ms = kDropTimeoutMs;
  machine.tpm_transport()->set_fault_plan(plan);

  // A 25 ms total budget bites before the attempt budget does: after two
  // 10 ms timeouts and a 2 ms backoff the next 4 ms backoff would cross it,
  // so the daemon gives up rather than sleeping past the deadline.
  TpmQuoteDaemon tqd(&machine);
  constexpr double kDeadlineMs = 25.0;

  double before = machine.clock()->NowMillis();
  Result<AttestationResponse> response =
      tqd.HandleChallenge(BytesOf("challenge"), PcrSelection({17}), kDeadlineMs);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(response.status().message().find("deadline"), std::string::npos);

  double elapsed = machine.clock()->NowMillis() - before;
  EXPECT_LE(elapsed, kDeadlineMs + 0.01);
  // It did retry at least once before the deadline bit.
  EXPECT_GE(tqd.retries(), 1u);
}

TEST(TqdBreakerTest, DeadlineZeroMeansUnlimited) {
  Machine machine;
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kDrop;
  plan.every_n = 3;
  plan.drop_timeout_ms = kDropTimeoutMs;
  machine.tpm_transport()->set_fault_plan(plan);

  TpmQuoteDaemon tqd(&machine);
  EXPECT_TRUE(tqd.HandleChallenge(BytesOf("challenge"), PcrSelection({17}), 0).ok());
}

}  // namespace
}  // namespace flicker
