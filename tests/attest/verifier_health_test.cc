// The verifier farm's client-side health policy, driven directly: the hedge
// delay's warm-up default and clamp, the per-verifier breaker (open,
// half-open probe, re-close, MTTR), the gray-speed probe that restarts the
// cooldown, and admission control at the outstanding-request cap. The
// numbers are the compiled-in policy every hedged fleet runs.

#include "src/attest/verifier_health.h"

#include <gtest/gtest.h>

namespace flicker {
namespace {

// True when some pick among `picks` round-robin turns at `now_ms` lands on
// `verifier`. A pick that lands on an open breaker is its half-open probe.
bool Picks(VerifierHealthTracker* tracker, double now_ms, int verifier, int picks = 2) {
  for (int i = 0; i < picks; ++i) {
    if (tracker->PickVerifier(now_ms, /*exclude=*/-1) == verifier) {
      return true;
    }
  }
  return false;
}

void Miss(VerifierHealthTracker* tracker, int verifier, double now_ms, int times) {
  for (int i = 0; i < times; ++i) {
    tracker->OnDispatch(verifier);
    tracker->OnMiss(verifier, now_ms);
  }
}

TEST(VerifierHealthTest, DefaultDelayUntilEightAcksArePooled) {
  VerifierHealthTracker tracker(2, 0);
  EXPECT_EQ(tracker.HedgeDelayMs(), 400.0);
  for (int i = 0; i < 7; ++i) {
    tracker.OnSuccess(0, 50.0, 10.0 * i);
    EXPECT_EQ(tracker.HedgeDelayMs(), 400.0) << "after " << i + 1 << " acks";
  }
  tracker.OnSuccess(0, 50.0, 100.0);
  EXPECT_EQ(tracker.HedgeDelayMs(), 50.0);
}

TEST(VerifierHealthTest, P95IsClampedToTenAndFourThousandMs) {
  VerifierHealthTracker fast(1, 0);
  for (int i = 0; i < 8; ++i) {
    fast.OnSuccess(0, 1.0, i);
  }
  EXPECT_EQ(fast.HedgeDelayMs(), 10.0);

  // Only an ack within 2x the current delay is pooled, so the pool climbs
  // one doubling at a time: 800, 1600, 3200, then 6400 - pooled twice to
  // reach the p95 rank of 12 samples - clamps to 4000.
  VerifierHealthTracker slow(1, 0);
  for (int i = 0; i < 8; ++i) {
    slow.OnSuccess(0, 800.0, i);
  }
  EXPECT_EQ(slow.HedgeDelayMs(), 800.0);
  slow.OnSuccess(0, 1600.0, 10.0);
  EXPECT_EQ(slow.HedgeDelayMs(), 1600.0);
  slow.OnSuccess(0, 3200.0, 11.0);
  EXPECT_EQ(slow.HedgeDelayMs(), 3200.0);
  slow.OnSuccess(0, 6400.0, 12.0);
  slow.OnSuccess(0, 6400.0, 13.0);
  EXPECT_EQ(slow.HedgeDelayMs(), 4000.0);
  // A gray-speed ack (over 2x the delay) is not pooled.
  slow.OnSuccess(0, 9000.0, 14.0);
  EXPECT_EQ(slow.HedgeDelayMs(), 4000.0);
}

TEST(VerifierHealthTest, BreakerOpensProbesOnceAndRecloses) {
  VerifierHealthTracker tracker(2, 0);
  // Two misses, then a healthy ack: the streak resets, nothing opens.
  Miss(&tracker, 1, 50.0, 2);
  tracker.OnSuccess(1, 50.0, 60.0);
  Miss(&tracker, 1, 70.0, 1);
  EXPECT_EQ(tracker.breaker_trips(), 0u);
  EXPECT_TRUE(Picks(&tracker, 80.0, 1));

  // Three consecutive misses open the breaker at t = 100 ms.
  Miss(&tracker, 1, 100.0, 2);
  EXPECT_EQ(tracker.breaker_trips(), 1u);
  EXPECT_FALSE(Picks(&tracker, 200.0, 1));
  EXPECT_FALSE(Picks(&tracker, 2099.0, 1));

  // After the 2000 ms cooldown exactly one request is the half-open probe.
  EXPECT_TRUE(Picks(&tracker, 2100.0, 1));
  EXPECT_FALSE(Picks(&tracker, 2100.0, 1));
  EXPECT_FALSE(Picks(&tracker, 4099.0, 1));

  // A healthy answer re-closes it and records open -> closed as MTTR.
  tracker.OnSuccess(1, 50.0, 2150.0);
  ASSERT_EQ(tracker.mttr_samples_ms().size(), 1u);
  EXPECT_EQ(tracker.mttr_samples_ms()[0], 2050.0);
  EXPECT_TRUE(Picks(&tracker, 2200.0, 1));
  EXPECT_EQ(tracker.breaker_trips(), 1u);
}

TEST(VerifierHealthTest, MissedProbeRestartsTheCooldown) {
  VerifierHealthTracker tracker(2, 0);
  Miss(&tracker, 1, 100.0, 3);
  ASSERT_TRUE(Picks(&tracker, 2100.0, 1));
  tracker.OnMiss(1, 2200.0);
  EXPECT_EQ(tracker.breaker_trips(), 1u);
  EXPECT_FALSE(Picks(&tracker, 4199.0, 1));
  EXPECT_TRUE(Picks(&tracker, 4200.0, 1));
}

TEST(VerifierHealthTest, GraySpeedProbeAnswerRestartsTheCooldown) {
  VerifierHealthTracker tracker(2, 0);
  Miss(&tracker, 1, 100.0, 3);
  ASSERT_TRUE(Picks(&tracker, 2100.0, 1));

  // The probe is answered, but at 2000 ms - over 2x the 400 ms delay. The
  // breaker stays open, the cooldown restarts from the answer, and no MTTR
  // sample is taken.
  tracker.OnSuccess(1, 2000.0, 2600.0);
  EXPECT_TRUE(tracker.mttr_samples_ms().empty());
  EXPECT_FALSE(Picks(&tracker, 4200.0, 1));
  EXPECT_FALSE(Picks(&tracker, 4599.0, 1));
  EXPECT_TRUE(Picks(&tracker, 4600.0, 1));

  tracker.OnSuccess(1, 50.0, 4650.0);
  ASSERT_EQ(tracker.mttr_samples_ms().size(), 1u);
  EXPECT_EQ(tracker.mttr_samples_ms()[0], 2050.0);
  EXPECT_EQ(tracker.breaker_trips(), 1u);
}

TEST(VerifierHealthTest, ShedsAtTheOutstandingCap) {
  VerifierHealthTracker capped(2, 2);
  capped.OnDispatch(0);
  EXPECT_FALSE(capped.ShouldShed(0));
  capped.OnDispatch(0);
  EXPECT_TRUE(capped.ShouldShed(0));
  EXPECT_FALSE(capped.ShouldShed(1));
  capped.OnSuccess(0, 50.0, 10.0);
  EXPECT_FALSE(capped.ShouldShed(0));
  EXPECT_EQ(capped.outstanding(0), 1);

  VerifierHealthTracker uncapped(1, 0);
  for (int i = 0; i < 1000; ++i) {
    uncapped.OnDispatch(0);
  }
  EXPECT_FALSE(uncapped.ShouldShed(0));
}

}  // namespace
}  // namespace flicker
