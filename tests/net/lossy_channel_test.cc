#include "src/net/lossy_channel.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/common/bytes.h"

namespace flicker {
namespace {

Bytes Msg(const char* s) { return BytesOf(s); }

TEST(LossyChannelTest, TransportsBytesIntact) {
  SimClock clock;
  LossyChannel channel(&clock);
  channel.Send(NetEndpoint::kClient, Msg("hello server"));
  Bytes got;
  ASSERT_TRUE(channel.Receive(NetEndpoint::kServer, &got));
  EXPECT_EQ(got, Msg("hello server"));
  EXPECT_GT(clock.NowMillis(), 0.0);
  // Nothing for the client; nothing left for the server.
  EXPECT_FALSE(channel.Receive(NetEndpoint::kClient, &got));
  EXPECT_FALSE(channel.Receive(NetEndpoint::kServer, &got));
}

TEST(LossyChannelTest, DisabledScheduleChargesOneSamplePerMessage) {
  // A fault-free channel draws exactly one latency sample per message and
  // nothing else. The pinned total is the seed-17 latency stream the paper
  // tables (Table 1, Fig. 9) are reproduced with, so it must not move.
  SimClock clock;
  LossyChannel channel(&clock, LatencyProfile(), 17);
  for (int i = 0; i < 20; ++i) {
    channel.Send(NetEndpoint::kClient, Msg("x"));
    Bytes got;
    ASSERT_TRUE(channel.Receive(NetEndpoint::kServer, &got));
  }
  EXPECT_EQ(clock.NowNanos(), 94821000u);
  EXPECT_EQ(channel.messages_delivered(), 20u);
  EXPECT_EQ(channel.faults_injected(), 0u);
}

// One message's one-way latency: the clock delta from Send to Receive.
double OneWayMs(SimClock* clock, LossyChannel* channel) {
  const uint64_t sent_ns = clock->NowNanos();
  channel->Send(NetEndpoint::kClient, Msg("x"));
  Bytes got;
  EXPECT_TRUE(channel->Receive(NetEndpoint::kServer, &got));
  return static_cast<double>(clock->NowNanos() - sent_ns) / 1e6;
}

TEST(LossyChannelTest, LatencyWithinProfileBounds) {
  // Latencies land on the clock's microsecond grain.
  const double grain_ms = 0.0005;
  const LatencyProfile lan{0.2, 0.3, 0.5, 1};
  for (const LatencyProfile& profile : {LatencyProfile(), lan}) {
    SimClock clock;
    LossyChannel channel(&clock, profile);
    for (int i = 0; i < 200; ++i) {
      double one_way = OneWayMs(&clock, &channel);
      EXPECT_GE(one_way, profile.min_rtt_ms / 2.0 - grain_ms);
      EXPECT_LE(one_way, profile.max_rtt_ms / 2.0 + grain_ms);
    }
  }
}

TEST(LossyChannelTest, AverageNearProfileAvg) {
  SimClock clock;
  LossyChannel channel(&clock);
  double total = 0;
  const int kTrials = 500;
  for (int i = 0; i < kTrials; ++i) {
    total += OneWayMs(&clock, &channel);
  }
  double avg_rtt = 2.0 * total / kTrials;
  EXPECT_NEAR(avg_rtt, channel.profile().avg_rtt_ms, 0.25);
}

TEST(LossyChannelTest, DropSwallowsDatagram) {
  SimClock clock;
  LossyChannel channel(&clock);
  NetFaultMix all_drop;
  all_drop.drop_bp = 10000;
  channel.set_fault_schedule(NetFaultSchedule(7, all_drop));
  channel.Send(NetEndpoint::kClient, Msg("lost"));
  Bytes got;
  EXPECT_FALSE(channel.Receive(NetEndpoint::kServer, &got));
  EXPECT_EQ(channel.faults_injected(), 1u);
}

TEST(LossyChannelTest, DuplicateDeliversTwice) {
  SimClock clock;
  LossyChannel channel(&clock);
  NetFaultMix all_dup;
  all_dup.duplicate_bp = 10000;
  channel.set_fault_schedule(NetFaultSchedule(7, all_dup));
  channel.Send(NetEndpoint::kClient, Msg("twice"));
  Bytes first;
  Bytes second;
  ASSERT_TRUE(channel.Receive(NetEndpoint::kServer, &first));
  ASSERT_TRUE(channel.Receive(NetEndpoint::kServer, &second));
  EXPECT_EQ(first, Msg("twice"));
  EXPECT_EQ(second, Msg("twice"));
  EXPECT_EQ(channel.messages_sent(), 1u);
  EXPECT_EQ(channel.messages_delivered(), 2u);
}

TEST(LossyChannelTest, CorruptGarblesWithoutResizing) {
  SimClock clock;
  LossyChannel channel(&clock);
  NetFaultMix all_corrupt;
  all_corrupt.corrupt_bp = 10000;
  channel.set_fault_schedule(NetFaultSchedule(7, all_corrupt));
  Bytes original = Msg("payload-to-garble");
  channel.Send(NetEndpoint::kClient, original);
  Bytes got;
  ASSERT_TRUE(channel.Receive(NetEndpoint::kServer, &got));
  EXPECT_EQ(got.size(), original.size());
  EXPECT_NE(got, original);
}

TEST(LossyChannelTest, DelayAddsConfiguredLatency) {
  SimClock fast_clock;
  LossyChannel fast(&fast_clock, LatencyProfile(), 17);
  SimClock slow_clock;
  LossyChannel slow(&slow_clock, LatencyProfile(), 17);
  NetFaultMix all_delay;
  all_delay.delay_bp = 10000;
  all_delay.delay_ms = 40.0;
  slow.set_fault_schedule(NetFaultSchedule(7, all_delay));

  Bytes got;
  fast.Send(NetEndpoint::kClient, Msg("x"));
  ASSERT_TRUE(fast.Receive(NetEndpoint::kServer, &got));
  slow.Send(NetEndpoint::kClient, Msg("x"));
  ASSERT_TRUE(slow.Receive(NetEndpoint::kServer, &got));
  EXPECT_NEAR(slow_clock.NowMillis() - fast_clock.NowMillis(), 40.0, 1e-9);
}

TEST(LossyChannelTest, ReorderLetsLaterMessageOvertake) {
  SimClock clock;
  LossyChannel channel(&clock);
  // Reorder exactly message #1; message #2 sails through.
  NetFaultMix all_reorder;
  all_reorder.reorder_bp = 10000;
  all_reorder.reorder_ms = 50.0;
  channel.set_fault_schedule(NetFaultSchedule(7, all_reorder));
  channel.Send(NetEndpoint::kClient, Msg("first"));
  channel.set_fault_schedule(NetFaultSchedule());  // Second send clean.
  channel.Send(NetEndpoint::kClient, Msg("second"));
  Bytes got;
  ASSERT_TRUE(channel.Receive(NetEndpoint::kServer, &got));
  EXPECT_EQ(got, Msg("second"));
  ASSERT_TRUE(channel.Receive(NetEndpoint::kServer, &got));
  EXPECT_EQ(got, Msg("first"));
}

TEST(LossyChannelTest, PartitionWindowCutsTheWire) {
  SimClock clock;
  LossyChannel channel(&clock);
  // Messages 1 and 2 fall inside the partition; message 3 crosses.
  channel.set_fault_schedule(NetFaultSchedule(7, NetFaultMix{}, {{1, 3}}));
  channel.Send(NetEndpoint::kClient, Msg("one"));
  channel.Send(NetEndpoint::kServer, Msg("two"));
  channel.Send(NetEndpoint::kClient, Msg("three"));
  Bytes got;
  ASSERT_TRUE(channel.Receive(NetEndpoint::kServer, &got));
  EXPECT_EQ(got, Msg("three"));
  EXPECT_FALSE(channel.Receive(NetEndpoint::kServer, &got));
  EXPECT_FALSE(channel.Receive(NetEndpoint::kClient, &got));
  EXPECT_EQ(channel.faults_injected(), 2u);
}

TEST(LossyChannelTest, ClassifyIsDeterministicPerSeed) {
  NetFaultMix mix;
  mix.drop_bp = 1000;
  mix.duplicate_bp = 500;
  mix.corrupt_bp = 500;
  NetFaultSchedule a(42, mix);
  NetFaultSchedule b(42, mix);
  NetFaultSchedule c(43, mix);
  bool differs = false;
  for (uint64_t i = 1; i <= 500; ++i) {
    EXPECT_EQ(a.Classify(i), b.Classify(i));
    if (a.Classify(i) != c.Classify(i)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(LossyChannelTest, MixRatesApproximateBasisPoints) {
  NetFaultMix mix;
  mix.drop_bp = 2000;  // 20%.
  NetFaultSchedule schedule(99, mix);
  int drops = 0;
  const int kTrials = 5000;
  for (uint64_t i = 1; i <= kTrials; ++i) {
    if (schedule.Classify(i) == NetFault::kDrop) {
      ++drops;
    }
  }
  EXPECT_NEAR(static_cast<double>(drops) / kTrials, 0.20, 0.02);
}

TEST(LossyChannelTest, ReceiveUntilBurnsWaitOnTimeout) {
  SimClock clock;
  LossyChannel channel(&clock);
  Bytes got;
  EXPECT_FALSE(channel.ReceiveUntil(NetEndpoint::kClient, 25.0, &got));
  EXPECT_NEAR(clock.NowMillis(), 25.0, 1e-6);
}

TEST(LossyChannelTest, ReceiveUntilLeavesLateDatagramInFlight) {
  SimClock clock;
  LossyChannel channel(&clock);
  NetFaultMix all_delay;
  all_delay.delay_bp = 10000;
  all_delay.delay_ms = 100.0;
  channel.set_fault_schedule(NetFaultSchedule(7, all_delay));
  channel.Send(NetEndpoint::kClient, Msg("late"));
  Bytes got;
  EXPECT_FALSE(channel.ReceiveUntil(NetEndpoint::kServer, 10.0, &got));
  // Still in flight: an uncapped receive eventually gets it.
  ASSERT_TRUE(channel.Receive(NetEndpoint::kServer, &got));
  EXPECT_EQ(got, Msg("late"));
}

TEST(LossyChannelTest, TraceRecordsVerdictPerMessage) {
  SimClock clock;
  LossyChannel channel(&clock);
  NetFaultMix all_drop;
  all_drop.drop_bp = 10000;
  channel.set_fault_schedule(NetFaultSchedule(7, all_drop));
  channel.Send(NetEndpoint::kClient, Msg("gone"));
  channel.set_fault_schedule(NetFaultSchedule());
  channel.Send(NetEndpoint::kClient, Msg("fine"));
  std::vector<NetTraceEntry> trace = channel.TraceSnapshot(NetEndpoint::kServer);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].seq, 1u);
  EXPECT_EQ(trace[0].fault, NetFault::kDrop);
  EXPECT_EQ(trace[1].seq, 2u);
  EXPECT_EQ(trace[1].fault, NetFault::kNone);
  std::ostringstream os;
  channel.DumpTrace(os);
  EXPECT_NE(os.str().find("drop"), std::string::npos);
}

TEST(LossyChannelTest, TraceRingBoundsMemory) {
  SimClock clock;
  LossyChannel channel(&clock);
  Bytes got;
  for (int i = 0; i < 600; ++i) {
    channel.Send(NetEndpoint::kClient, Msg("m"));
    ASSERT_TRUE(channel.Receive(NetEndpoint::kServer, &got));
  }
  std::vector<NetTraceEntry> trace = channel.TraceSnapshot(NetEndpoint::kServer);
  ASSERT_EQ(trace.size(), LossyChannel::kTraceCapacity);
  // Oldest-first: the ring holds the most recent 256 sends.
  EXPECT_EQ(trace.front().seq, 600u - LossyChannel::kTraceCapacity + 1);
  EXPECT_EQ(trace.back().seq, 600u);
}

}  // namespace
}  // namespace flicker
