// The event heap: total order by (time, seeded tiebreak, seq), O(1) lazy
// cancellation, and per-seed interleaving of simultaneous events.

#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace flicker {
namespace sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue(1);
  std::vector<int> order;
  queue.Schedule(300, 0, [&] { order.push_back(3); });
  queue.Schedule(100, 0, [&] { order.push_back(1); });
  queue.Schedule(200, 0, [&] { order.push_back(2); });
  while (!queue.empty()) {
    queue.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SimultaneousEventsInterleaveBySeed) {
  // Eight events at the same instant: the seeded tiebreak permutes them,
  // and the permutation is a pure function of the seed.
  auto order_for_seed = [](uint64_t seed) {
    EventQueue queue(seed);
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      queue.Schedule(1000, 0, [&order, i] { order.push_back(i); });
    }
    while (!queue.empty()) {
      queue.Pop().fn();
    }
    return order;
  };
  EXPECT_EQ(order_for_seed(7), order_for_seed(7));
  EXPECT_NE(order_for_seed(7), order_for_seed(8));
}

TEST(EventQueueTest, CancelIsLazyAndSingleShot) {
  EventQueue queue(1);
  EventId id = queue.Schedule(100, 0, [] { FAIL() << "cancelled event fired"; });
  EventId survivor = queue.Schedule(200, 0, [] {});
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_FALSE(queue.Cancel(id));  // Already dead.
  EXPECT_EQ(queue.size(), 1u);
  ScheduledEvent event = queue.Pop();
  EXPECT_EQ(event.seq, survivor.seq);
  EXPECT_FALSE(queue.Cancel(survivor));  // Already fired.
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.cancelled(), 1u);
}

TEST(EventQueueTest, InvalidIdNeverCancels) {
  EventQueue queue(1);
  EXPECT_FALSE(queue.Cancel(EventId{}));
  EXPECT_FALSE(queue.Cancel(EventId{99}));
}

TEST(EventQueueTest, TracksScheduledAndHighWater) {
  EventQueue queue(1);
  for (int i = 0; i < 5; ++i) {
    queue.Schedule(static_cast<uint64_t>(i), 0, [] {});
  }
  EXPECT_EQ(queue.scheduled(), 5u);
  EXPECT_EQ(queue.max_size(), 5u);
  queue.Pop();
  queue.Pop();
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.max_size(), 5u);
}

}  // namespace
}  // namespace sim
}  // namespace flicker
