#include "src/common/backoff.h"

#include <gtest/gtest.h>

namespace flicker {
namespace {

TEST(BackoffTest, DefaultsReproduceTqdSchedule) {
  // The quote daemon retries on the default policy. Its historical schedule
  // is pinned by tqd_robustness_test via elapsed-time checks; this pins it
  // at the policy level: 2, 4, 8 ms.
  BackoffSchedule schedule(BackoffPolicy{});
  EXPECT_DOUBLE_EQ(schedule.NextDelayMs(), 2.0);
  EXPECT_DOUBLE_EQ(schedule.NextDelayMs(), 4.0);
  EXPECT_DOUBLE_EQ(schedule.NextDelayMs(), 8.0);
}

TEST(BackoffTest, CapBoundsEveryDelay) {
  BackoffSchedule schedule(BackoffPolicy{5.0, 2.0, 12.0, 0});
  EXPECT_DOUBLE_EQ(schedule.NextDelayMs(), 5.0);
  EXPECT_DOUBLE_EQ(schedule.NextDelayMs(), 10.0);
  EXPECT_DOUBLE_EQ(schedule.NextDelayMs(), 12.0);  // Capped, not 20.
  EXPECT_DOUBLE_EQ(schedule.NextDelayMs(), 12.0);  // Stays capped.
}

TEST(BackoffTest, PeekDoesNotRatchet) {
  BackoffSchedule schedule(BackoffPolicy{});
  EXPECT_DOUBLE_EQ(schedule.PeekDelayMs(), 2.0);
  EXPECT_DOUBLE_EQ(schedule.PeekDelayMs(), 2.0);
  EXPECT_DOUBLE_EQ(schedule.NextDelayMs(), 2.0);
  EXPECT_DOUBLE_EQ(schedule.PeekDelayMs(), 4.0);
  EXPECT_EQ(schedule.retries_issued(), 1);
}

TEST(BackoffTest, ResetStartsOver) {
  BackoffSchedule schedule(BackoffPolicy{});
  schedule.NextDelayMs();
  schedule.NextDelayMs();
  schedule.Reset();
  EXPECT_DOUBLE_EQ(schedule.NextDelayMs(), 2.0);
}

TEST(BackoffTest, JitterShrinksWithinFractionAndReplaysBitExact) {
  BackoffPolicy jittered{10.0, 2.0, 0, 0.5};
  BackoffSchedule a(jittered, 1234);
  BackoffSchedule b(jittered, 1234);
  BackoffSchedule c(jittered, 99);
  bool any_differs_across_seeds = false;
  for (int i = 0; i < 8; ++i) {
    double base = 10.0 * (1 << i);
    double da = a.NextDelayMs();
    EXPECT_GE(da, base * 0.5 - 1e-9);
    EXPECT_LE(da, base + 1e-9);
    EXPECT_DOUBLE_EQ(da, b.NextDelayMs());  // Same seed: bit-exact replay.
    if (da != c.NextDelayMs()) {
      any_differs_across_seeds = true;
    }
  }
  EXPECT_TRUE(any_differs_across_seeds);
}

TEST(BackoffTest, FullJitterDrawsFromWholeWindowAndReplaysBitExact) {
  BackoffPolicy policy{10.0, 2.0, 500.0, 0, true};
  BackoffSchedule a(policy, 77);
  BackoffSchedule b(policy, 77);
  for (int i = 0; i < 10; ++i) {
    double window = 10.0 * (1 << i);
    if (window > 500.0) {
      window = 500.0;  // The cap bounds the window, not just the delay.
    }
    double da = a.NextDelayMs();
    EXPECT_GE(da, 0.0);
    EXPECT_LT(da, window + 1e-9);
    EXPECT_DOUBLE_EQ(da, b.NextDelayMs());  // Same seed: bit-exact replay.
  }
}

TEST(BackoffTest, FullJitterDecorrelatesAcrossSeeds) {
  // The point of full jitter: a rack of machines that all saw the same
  // overload nack must NOT return in lockstep. Give each machine its own
  // seed and the first resend already spreads across the window.
  BackoffPolicy policy{10.0, 2.0, 500.0, 0, true};
  bool any_differs = false;
  double first = BackoffSchedule(policy, 0).NextDelayMs();
  for (uint64_t machine = 1; machine < 8; ++machine) {
    if (BackoffSchedule(policy, machine).NextDelayMs() != first) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(BackoffTest, FullJitterOverridesJitterFraction) {
  // With both knobs set, full jitter wins: delays may land well below what
  // the fraction alone could produce (fraction 0.1 keeps >= 90% of the
  // exponential value; full jitter can draw near zero).
  BackoffPolicy policy{100.0, 2.0, 0, 0.1, true};
  bool any_below_fraction_floor = false;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    if (BackoffSchedule(policy, seed).NextDelayMs() < 90.0) {
      any_below_fraction_floor = true;
    }
  }
  EXPECT_TRUE(any_below_fraction_floor);
}

}  // namespace
}  // namespace flicker
