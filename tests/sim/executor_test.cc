// The executor's activity model: dispatch moves global now, fast-forwards
// the target actor's clock (never backwards), and a busy actor's later
// start time falls out of the clock max - single-server FIFO queueing with
// no explicit queue. OrderDigest pins the exact dispatch order per seed.

#include "src/sim/executor.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/hw/clock.h"

namespace flicker {
namespace sim {
namespace {

TEST(SimExecutorTest, DispatchFastForwardsActorClock) {
  SimExecutor executor(1);
  SimClock clock;
  ActorId actor = executor.RegisterActor("machine", &clock);
  executor.ScheduleAt(actor, 5'000'000, [] {});
  executor.Run();
  EXPECT_EQ(executor.NowNs(), 5'000'000u);
  EXPECT_EQ(clock.NowNanos(), 5'000'000u);
}

TEST(SimExecutorTest, BusyActorClockNeverMovesBackwards) {
  // The actor burned local time past the event's timestamp: the event
  // starts at the actor's later now (FIFO queueing), not at heap time.
  SimExecutor executor(1);
  SimClock clock;
  ActorId actor = executor.RegisterActor("machine", &clock);
  uint64_t seen_local_ns = 0;
  executor.ScheduleAt(actor, 1'000, [&] {
    clock.AdvanceMicros(500);  // The activity charges 500 us of work.
  });
  executor.ScheduleAt(actor, 2'000, [&] { seen_local_ns = clock.NowNanos(); });
  executor.Run();
  EXPECT_EQ(seen_local_ns, 501'000u);  // Not 2'000: the actor was busy.
  EXPECT_EQ(executor.NowNs(), 2'000u);
}

TEST(SimExecutorTest, IndependentActorsRunInParallelTime) {
  SimExecutor executor(1);
  SimClock a_clock, b_clock;
  ActorId a = executor.RegisterActor("a", &a_clock);
  ActorId b = executor.RegisterActor("b", &b_clock);
  executor.ScheduleAt(a, 1'000, [&] { a_clock.AdvanceMillis(972.0); });
  executor.ScheduleAt(b, 2'000, [] {});
  executor.Run();
  // A's 972 ms quote did not delay B.
  EXPECT_EQ(b_clock.NowNanos(), 2'000u);
}

TEST(SimExecutorTest, ScheduleAtClampsToNow) {
  SimExecutor executor(1);
  ActorId actor = executor.RegisterActor("timer", nullptr);
  std::vector<int> order;
  executor.ScheduleAt(actor, 10'000, [&] {
    order.push_back(1);
    // Scheduled "in the past" relative to global now: fires at now.
    executor.ScheduleAt(actor, 0, [&] { order.push_back(2); });
  });
  executor.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(executor.NowNs(), 10'000u);
}

TEST(SimExecutorTest, ScheduleAfterLocalMeasuresFromActorClock) {
  SimExecutor executor(1);
  SimClock clock;
  ActorId actor = executor.RegisterActor("machine", &clock);
  uint64_t fired_at = 0;
  executor.ScheduleAt(actor, 1'000, [&] {
    clock.AdvanceMicros(9);  // Local now = 10'000 ns.
    executor.ScheduleAfterLocal(actor, 5'000, [&] { fired_at = executor.NowNs(); });
  });
  executor.Run();
  EXPECT_EQ(fired_at, 15'000u);  // 10'000 local + 5'000, not 1'000 + 5'000.
}

TEST(SimExecutorTest, CancelSuppressesPendingEvent) {
  SimExecutor executor(1);
  ActorId actor = executor.RegisterActor("timer", nullptr);
  EventId doomed = executor.ScheduleAt(actor, 1'000, [] { FAIL() << "cancelled event fired"; });
  executor.ScheduleAt(actor, 2'000, [] {});
  EXPECT_TRUE(executor.Cancel(doomed));
  executor.Run();
  EXPECT_EQ(executor.events_processed(), 1u);
  EXPECT_EQ(executor.events_cancelled(), 1u);
}

TEST(SimExecutorTest, OrderDigestPinsDispatchOrderPerSeed) {
  auto digest_for_seed = [](uint64_t seed) {
    SimExecutor executor(seed);
    ActorId a = executor.RegisterActor("a", nullptr);
    ActorId b = executor.RegisterActor("b", nullptr);
    for (int i = 0; i < 6; ++i) {
      // All simultaneous: only the seeded tiebreak orders them.
      executor.ScheduleAt(i % 2 == 0 ? a : b, 1'000, [] {});
    }
    executor.Run();
    return executor.OrderDigest();
  };
  EXPECT_EQ(digest_for_seed(42), digest_for_seed(42));
  EXPECT_NE(digest_for_seed(42), digest_for_seed(43));
}

TEST(SimExecutorTest, ActorPidsStartAboveStandaloneDefault) {
  SimExecutor executor(1);
  SimClock clock;
  ActorId first = executor.RegisterActor("m0", &clock);
  ActorId second = executor.RegisterActor("m1", nullptr);
  EXPECT_EQ(executor.actor_pid(first), 2u);  // pid 1 = standalone default.
  EXPECT_EQ(executor.actor_pid(second), 3u);
  EXPECT_EQ(executor.actor_name(first), "m0");
  EXPECT_EQ(executor.actor_clock(first), &clock);
  EXPECT_EQ(executor.actor_count(), 2u);
}

}  // namespace
}  // namespace sim
}  // namespace flicker
