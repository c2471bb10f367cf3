// The fleet harness end to end on a small rack: every injected round
// resolves, verifiers really verify (the full quote/cert chain), batch
// windows aggregate, full-session rounds refresh expectations, and the
// stats JSON is well-formed.

#include "src/sim/fleet.h"

#include <gtest/gtest.h>

#include <string>

namespace flicker {
namespace sim {
namespace {

FleetConfig SmallFleet() {
  FleetConfig config;
  config.seed = 11;
  config.num_machines = 6;
  config.num_verifiers = 2;
  config.rounds = 24;
  config.mean_interarrival_ms = 2.0;
  config.batched_machines_bp = 5000;
  // A quote alone is ~973 ms and rounds to one machine queue up behind each
  // other, so the clean-run timeout must cover the worst per-machine queue.
  config.round_timeout_ms = 30000.0;
  return config;
}

TEST(FleetTest, CleanWiresCompleteEveryRound) {
  Fleet fleet(SmallFleet());
  ASSERT_TRUE(fleet.Run().ok());
  const FleetStats& stats = fleet.stats();

  EXPECT_EQ(stats.rounds_injected, 24u);
  EXPECT_EQ(stats.rounds_completed, 24u);
  EXPECT_EQ(stats.rounds_timed_out, 0u);
  EXPECT_EQ(stats.rounds_failed, 0u);
  EXPECT_EQ(stats.rounds_rejected, 0u);
  EXPECT_EQ(stats.accepted_wrong, 0u);
  EXPECT_EQ(stats.responses_verified, 24u);
  EXPECT_EQ(stats.round_latencies_ms.size(), 24u);
  EXPECT_GT(stats.sim_duration_ms, 0.0);
  EXPECT_GT(stats.SessionsPerSec(), 0.0);
  EXPECT_GT(stats.LatencyPercentileMs(0.5), 0.0);
  EXPECT_LE(stats.LatencyPercentileMs(0.5), stats.LatencyPercentileMs(0.99));
}

TEST(FleetTest, BatchedMachinesAggregateChallenges) {
  FleetConfig config = SmallFleet();
  // Everybody batches; the 10 ms window forces several flushes.
  config.batched_machines_bp = 10000;
  Fleet fleet(config);
  ASSERT_TRUE(fleet.Run().ok());
  const FleetStats& stats = fleet.stats();

  EXPECT_EQ(stats.rounds_completed, 24u);
  EXPECT_GT(stats.batch_quotes, 0u);
  // Fewer quotes than rounds: the windows actually coalesced.
  EXPECT_LT(stats.batch_quotes, 24u);
  uint64_t batched_rounds = 0;
  for (const auto& [size, count] : stats.batch_sizes) {
    batched_rounds += size * count;
  }
  EXPECT_EQ(batched_rounds, 24u);
}

TEST(FleetTest, FullSessionRoundsRefreshExpectations) {
  FleetConfig config = SmallFleet();
  config.full_session_bp = 5000;  // Half the rounds re-run Flicker sessions.
  config.round_timeout_ms = 30000.0;
  Fleet fleet(config);
  ASSERT_TRUE(fleet.Run().ok());
  const FleetStats& stats = fleet.stats();

  // Refreshed expectations must still verify: a quote snapshotted before a
  // refresh is judged against the chain it was produced under.
  EXPECT_EQ(stats.rounds_completed, 24u);
  EXPECT_EQ(stats.accepted_wrong, 0u);
  EXPECT_EQ(stats.rounds_rejected, 0u);
}

TEST(FleetTest, VerifierFarmSharesTheLoad) {
  FleetConfig config = SmallFleet();
  config.verify_cost_ms = 1.0;
  Fleet fleet(config);
  ASSERT_TRUE(fleet.Run().ok());
  const FleetStats& stats = fleet.stats();

  EXPECT_EQ(stats.num_verifiers, 2);
  // 24 verifications at 1 ms each across the farm.
  EXPECT_GE(stats.verifier_busy_ms, 24.0);
  EXPECT_GT(stats.VerifierUtilization(), 0.0);
  EXPECT_LE(stats.VerifierUtilization(), 1.0);
}

TEST(FleetTest, JsonCarriesTheBenchContract) {
  FleetConfig config = SmallFleet();
  Fleet fleet(config);
  ASSERT_TRUE(fleet.Run().ok());
  std::string json = fleet.stats().ToJson(config);

  for (const char* key :
       {"\"machines\"", "\"verifiers\"", "\"seed\"", "\"completed\"",
        "\"accepted_wrong\"", "\"sessions_per_sec\"", "\"p50\"", "\"p99\"",
        "\"utilization\"", "\"order_digest\"", "\"events\"", "\"schema\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << " in:\n" << json;
  }
}

// A shape no fleet can have is refused before anything is built: an empty
// fleet or farm would divide by zero, a negative count would size a vector.
TEST(FleetTest, ConfigRejectsOutOfRangeShapes) {
  const struct {
    const char* name;
    void (*edit)(FleetConfig*);
  } cases[] = {
      {"no machines", [](FleetConfig* c) { c->num_machines = 0; }},
      {"no verifiers", [](FleetConfig* c) { c->num_verifiers = 0; }},
      {"negative rounds", [](FleetConfig* c) { c->rounds = -5; }},
      {"power cut past the fleet",
       [](FleetConfig* c) {
         FleetPowerCut cut;
         cut.machine = c->num_machines;
         c->power_cuts.push_back(cut);
       }},
  };
  for (const auto& c : cases) {
    FleetConfig config = SmallFleet();
    c.edit(&config);
    Fleet fleet(config);
    Status run = fleet.Run();
    EXPECT_EQ(run.code(), StatusCode::kInvalidArgument) << c.name << ": " << run.ToString();
  }
}

}  // namespace
}  // namespace sim
}  // namespace flicker
