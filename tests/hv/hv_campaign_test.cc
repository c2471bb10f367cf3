// The fleet-scale cross-core campaign: seed determinism (byte-identical
// JSON, pinned event order), a clean adversary ledger (accepted_wrong and
// attacks_mistyped at zero), and the concurrent mode's pause advantage
// holding up under continuous attack.

#include <gtest/gtest.h>

#include "src/hv/hv_campaign.h"

namespace flicker {
namespace hv {
namespace {

HvCampaignConfig CiConfig(uint64_t seed = 1) {
  HvCampaignConfig config;
  config.seed = seed;
  config.num_machines = 2;
  config.duration_ms = 5000.0;
  return config;
}

TEST(HvCampaignTest, SameSeedIsByteIdentical) {
  Result<HvCampaignStats> a = RunHvCampaign(CiConfig());
  Result<HvCampaignStats> b = RunHvCampaign(CiConfig());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a.value().order_digest, b.value().order_digest);
  EXPECT_EQ(a.value().events_processed, b.value().events_processed);
  EXPECT_EQ(a.value().ToJson(CiConfig()), b.value().ToJson(CiConfig()));
}

TEST(HvCampaignTest, DifferentSeedsDiverge) {
  Result<HvCampaignStats> a = RunHvCampaign(CiConfig(1));
  Result<HvCampaignStats> b = RunHvCampaign(CiConfig(2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().order_digest, b.value().order_digest);
}

TEST(HvCampaignTest, AdversaryLedgerIsClean) {
  Result<HvCampaignStats> run = RunHvCampaign(CiConfig());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const HvCampaignStats& stats = run.value();

  // Work actually happened: rounds, overlapping sessions, attacked rounds.
  EXPECT_GT(stats.rounds_injected, 0u);
  EXPECT_EQ(stats.rounds_completed, stats.rounds_injected);
  EXPECT_EQ(stats.rounds_failed, 0u);
  EXPECT_GT(stats.dual_rounds, 0u);
  EXPECT_GT(stats.attacked_rounds, 0u);
  EXPECT_GT(stats.sessions_completed, stats.rounds_injected);
  EXPECT_EQ(stats.hv_launches, 2u);  // One late launch per machine, ever.

  // The whole point: every attack launched was denied, every denial was
  // the right type, and nothing wrong was ever accepted.
  EXPECT_GT(stats.attacks_launched, 0u);
  EXPECT_EQ(stats.attacks_denied, stats.attacks_launched);
  EXPECT_EQ(stats.attacks_mistyped, 0u);
  EXPECT_EQ(stats.accepted_wrong, 0u);

  // The battery exercised the hardware protections, not just hypercalls.
  EXPECT_GT(stats.dma_blocked, 0u);
  EXPECT_GT(stats.npt_blocked, 0u);
  EXPECT_GT(stats.denials[static_cast<size_t>(HvDenial::kNptViolation)], 0u);
  EXPECT_GT(stats.denials[static_cast<size_t>(HvDenial::kRegionOverlap)], 0u);
  EXPECT_GT(stats.denials[static_cast<size_t>(HvDenial::kSessionNotRunning)], 0u);

  // Under continuous attack the OS still pauses well under what a classic
  // suspend-per-session fleet would have. The CI horizon is short, so the
  // two one-time launch SKINITs dominate the pause ledger; the flagship
  // bench (micro_hv, 30 s horizon) enforces the real >= 5x floor.
  EXPECT_GT(stats.PauseReduction(), 3.0);
  EXPECT_GT(stats.SessionsPerSecond(), 0.0);
  EXPECT_GE(stats.LatencyPercentileMs(0.99), stats.LatencyPercentileMs(0.50));
}

TEST(HvCampaignTest, ConfigIsValidated) {
  HvCampaignConfig no_machines = CiConfig();
  no_machines.num_machines = 0;
  EXPECT_FALSE(RunHvCampaign(no_machines).ok());
}

}  // namespace
}  // namespace hv
}  // namespace flicker
