// The noisy-neighbor + power-cut chaos campaign, asserted end to end: one
// flooding tenant and one crash-looping tenant share the multiplexer with
// four healthy tenants across two mid-campaign power cuts. Tenant fault
// isolation means the healthy tenants complete 100% of their rounds with
// bounded tail latency, every accepted quote verifies and answers the right
// challenge, the misbehaving tenants are quarantined, and the same seed
// reproduces the same JSON byte for byte.

#include <gtest/gtest.h>

#include "src/vtpm/vtpm_campaign.h"

namespace flicker {
namespace vtpm {
namespace {

VtpmCampaignConfig BaseConfig(uint64_t seed) {
  VtpmCampaignConfig config;
  config.seed = seed;
  config.num_tenants = 6;
  config.duration_ms = 60000.0;
  config.power_cut_at_ms = {20000.0, 41000.0};
  return config;
}

TEST(VtpmCampaignTest, HealthyTenantsAreIsolatedFromNoisyNeighbors) {
  VtpmCampaignConfig config = BaseConfig(7);
  Result<VtpmCampaignStats> run = RunVtpmCampaign(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const VtpmCampaignStats& stats = run.value();

  // The campaign actually stressed the system: a real flood, real power
  // cuts, and quarantines that caught both misbehaving tenants.
  EXPECT_GE(stats.tenants[static_cast<size_t>(config.flooding_tenant)].injected, 100u);
  EXPECT_GT(stats.tenants[static_cast<size_t>(config.flooding_tenant)].breaker_trips, 0u);
  EXPECT_GT(stats.tenants[static_cast<size_t>(config.crashloop_tenant)].breaker_trips, 0u);
  EXPECT_EQ(stats.power_cuts, 2u);
  EXPECT_GT(stats.shed_total, 0u);
  EXPECT_GT(stats.quarantines, 0u);

  // The isolation claims. 100% healthy completion, no starvation (every
  // healthy tenant completed everything it injected, so Jain's index is 1
  // over completion rates and high over raw counts), bounded p99.
  EXPECT_EQ(stats.HealthyCompletionRate(config), 1.0);
  for (int i = 0; i < config.num_tenants; ++i) {
    if (i == config.flooding_tenant || i == config.crashloop_tenant) {
      continue;
    }
    EXPECT_EQ(stats.tenants[static_cast<size_t>(i)].completed,
              stats.tenants[static_cast<size_t>(i)].injected)
        << "tenant " << i << " starved";
  }
  EXPECT_GT(stats.HealthyJainIndex(config), 0.8);
  EXPECT_LT(stats.HealthyLatencyPercentileMs(0.99), 30000.0);  // The client timeout.

  // Attestation integrity under chaos: every accepted quote carried a valid
  // AIK signature, and none answered a challenge its client never issued.
  EXPECT_GT(stats.responses_verified, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.accepted_wrong, 0u);
  // No adversary rolled back state; the power cuts alone must not trip the
  // rollback defense (false positives would quarantine honest tenants).
  EXPECT_EQ(stats.rollbacks_detected, 0u);
}

TEST(VtpmCampaignTest, SameSeedIsByteIdenticalDifferentSeedIsNot) {
  VtpmCampaignConfig config = BaseConfig(21);
  Result<VtpmCampaignStats> first = RunVtpmCampaign(config);
  Result<VtpmCampaignStats> second = RunVtpmCampaign(config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().ToJson(config), second.value().ToJson(config));
  EXPECT_EQ(first.value().order_digest, second.value().order_digest);

  VtpmCampaignConfig other = BaseConfig(22);
  Result<VtpmCampaignStats> third = RunVtpmCampaign(other);
  ASSERT_TRUE(third.ok());
  EXPECT_NE(first.value().order_digest, third.value().order_digest);
}

TEST(VtpmCampaignTest, QuietCampaignWithoutMisbehaviorIsAllClean) {
  VtpmCampaignConfig config = BaseConfig(3);
  config.num_tenants = 4;
  config.flooding_tenant = -1;
  config.crashloop_tenant = -1;
  config.power_cut_at_ms.clear();
  config.duration_ms = 30000.0;

  Result<VtpmCampaignStats> run = RunVtpmCampaign(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const VtpmCampaignStats& stats = run.value();
  EXPECT_EQ(stats.HealthyCompletionRate(config), 1.0);
  EXPECT_EQ(stats.quarantines, 0u);
  EXPECT_EQ(stats.accepted_wrong, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.rollbacks_detected, 0u);
}

TEST(VtpmCampaignTest, ConfigIsValidated) {
  VtpmCampaignConfig config;
  config.num_tenants = 0;
  EXPECT_FALSE(RunVtpmCampaign(config).ok());
}

}  // namespace
}  // namespace vtpm
}  // namespace flicker
