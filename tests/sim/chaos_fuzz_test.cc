// The chaos fuzzer caught the PR 3 crash matrix's seeded bug once; these
// tests pin that it keeps doing so. A campaign over the misordered-commit
// store must find a torn_state violation, shrink it to a handful of events,
// and produce a replay file that round-trips through the parser and re-runs
// to the same signature and order digest. A clean store must survive the
// same campaign with zero violations.

#include <gtest/gtest.h>

#include <string>

#include "src/sim/chaos_fuzz.h"
#include "src/sim/fleet.h"

namespace flicker {
namespace sim {
namespace {

// Mirrors micro_fleet's --chaos-fuzz base: small enough that a campaign is
// cheap, checkpointed so crash-point cuts are in the generator's dice.
FleetConfig FuzzBase() {
  FleetConfig config;
  config.seed = 9;
  config.num_machines = 4;
  config.num_verifiers = 2;
  config.rounds = 32;
  config.mean_interarrival_ms = 100.0;
  config.batched_machines_bp = 5000;
  config.round_timeout_ms = 30000.0;
  config.checkpoints.enabled = true;
  return config;
}

TEST(ChaosFuzzTest, GeneratorIsDeterministicAndInRange) {
  const FleetConfig base = FuzzBase();
  const ChaosPlan a = GenerateChaosPlan(42, base);
  const ChaosPlan b = GenerateChaosPlan(42, base);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_GE(a.events.size(), 1u);
  // Every generated plan must pass the fleet's own config validation -
  // the fuzzer may only explore the legal fault space.
  Fleet fleet(ApplyChaosPlan(base, a));
  EXPECT_TRUE(fleet.Run().ok());
}

TEST(ChaosFuzzTest, CleanStoreSurvivesCampaign) {
  const FleetConfig base = FuzzBase();
  const ChaosFuzzReport report = ChaosFuzz(base, /*campaign_seed=*/3, /*num_plans=*/6);
  EXPECT_EQ(report.plans_run, 6);
  EXPECT_EQ(report.violations, 0);
  EXPECT_FALSE(report.found);
}

TEST(ChaosFuzzTest, FindsAndShrinksSeededMisorderedCommit) {
  FleetConfig base = FuzzBase();
  base.checkpoints.misordered_commit = true;

  const ChaosFuzzReport report = ChaosFuzz(base, /*campaign_seed=*/1, /*num_plans=*/24);
  ASSERT_TRUE(report.found);
  EXPECT_EQ(report.signature, "torn_state");
  EXPECT_GT(report.violations, 0);
  // The issue's bar: the shrinker lands on a minimal schedule of at most
  // three fault events, and it only ever removes events.
  EXPECT_LE(report.minimal.events.size(), 3u);
  EXPECT_LE(report.minimal.events.size(), report.original_events);
  EXPECT_GT(report.shrink_runs, 0);
  // The minimal plan still reproduces on a fresh run.
  const ChaosOutcome rerun = RunChaosPlan(base, report.minimal);
  ASSERT_TRUE(rerun.ran);
  EXPECT_EQ(rerun.signature, report.signature);
  // The artifact names the failure and the durability boundaries.
  EXPECT_NE(report.artifact.find("torn_state"), std::string::npos);
  EXPECT_NE(report.artifact.find("order_digest"), std::string::npos);
  EXPECT_NE(report.artifact.find("crash points"), std::string::npos);
}

TEST(ChaosFuzzTest, ReplayRoundTripsThroughText) {
  FleetConfig base = FuzzBase();
  base.checkpoints.misordered_commit = true;
  const ChaosFuzzReport report = ChaosFuzz(base, /*campaign_seed=*/1, /*num_plans=*/24);
  ASSERT_TRUE(report.found);

  Result<ChaosReplay> parsed = ParseChaosReplay(report.replay_file);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().signature, report.signature);
  EXPECT_EQ(parsed.value().plan.events.size(), report.minimal.events.size());

  // Serialize(parse(text)) == text: the format carries everything it needs.
  const ChaosOutcome outcome =
      RunChaosPlan(parsed.value().base, parsed.value().plan);
  ASSERT_TRUE(outcome.ran);
  EXPECT_EQ(SerializeChaosReplay(parsed.value().base, parsed.value().plan, outcome.signature),
            report.replay_file);
}

TEST(ChaosFuzzTest, ReplayRunsAreByteIdentical) {
  FleetConfig base = FuzzBase();
  base.checkpoints.misordered_commit = true;
  const ChaosFuzzReport report = ChaosFuzz(base, /*campaign_seed=*/1, /*num_plans=*/24);
  ASSERT_TRUE(report.found);

  const ChaosOutcome first = RunChaosPlan(base, report.minimal);
  const ChaosOutcome second = RunChaosPlan(base, report.minimal);
  ASSERT_TRUE(first.ran);
  ASSERT_TRUE(second.ran);
  EXPECT_EQ(first.signature, second.signature);
  EXPECT_EQ(first.stats.order_digest, second.stats.order_digest);
  const FleetConfig applied = ApplyChaosPlan(base, report.minimal);
  EXPECT_EQ(first.stats.ToJson(applied), second.stats.ToJson(applied));
}

TEST(ChaosFuzzTest, ParserRejectsGarbage) {
  EXPECT_FALSE(ParseChaosReplay("not a replay").ok());
  EXPECT_FALSE(ParseChaosReplay("# flicker chaos replay v1\nbogus_directive 7\n").ok());
  // A structurally valid file with no fleet shape is useless - refused.
  EXPECT_FALSE(ParseChaosReplay("# flicker chaos replay v1\nseed 3\n").ok());
}

TEST(ChaosFuzzTest, ParserRejectsUnknownKeysAndKindNames) {
  const std::string head =
      "# flicker chaos replay v1\nseed 3\nmachines 4\nverifiers 2\nhedge 1\n";
  // Every name the serializer writes parses back.
  Result<ChaosReplay> good = ParseChaosReplay(
      head +
      "farm max_outstanding=5\n"
      "fault_mix drop=1 dup=2 reorder=3 corrupt=4 delay=5 delay_ms=6.000 reorder_ms=7.000\n"
      "event tpm_window start=0.000 end=5.000 machine=1 kind=garble every_n=2 delay_ms=1.000 "
      "drop_timeout_ms=5.000\n"
      "event verifier_fault kind=hang verifier=1 start=0.000 end=5.000 slow=2.000\n");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good.value().base.farm.max_outstanding, 5);
  EXPECT_EQ(good.value().base.fault_mix.reorder_ms, 7.0);
  ASSERT_EQ(good.value().plan.events.size(), 2u);
  EXPECT_EQ(good.value().plan.events[0].tpm_window.plan.kind, FaultPlan::Kind::kGarble);
  EXPECT_EQ(good.value().plan.events[1].verifier_fault.kind, FleetVerifierFault::Kind::kHang);

  // A key, kind name or value the parser does not take whole would silently
  // run a different config; each is refused, naming the token.
  const struct {
    std::string line;
    std::string token;
  } bad[] = {
      {"farm hedge_default_ms=400.000 max_outstanding=0", "hedge_default_ms=400.000"},
      {"fault_mix drop=0 dorp=5", "dorp=5"},
      {"event power_cut at=1.000 machine=0 hti=2", "hti=2"},
      {"event partition start=0.000 end=5.000 first=0 last=1 stray", "stray"},
      {"event tpm_window start=0.000 end=5.000 machine=0 kind=melt", "melt"},
      {"event verifier_fault kind=slow verifier=0 start=0.000 end=5.000", "slow"},
      // A value is consumed whole and fits its field; a directive takes one.
      {"event power_cut at=1.000 machine=x", "machine=x"},
      {"event power_cut at=1.5ms machine=0", "at=1.5ms"},
      {"machines 4 extra", "extra"},
      {"rounds -5", "-5"},
      {"seed 123456789012345678901", "123456789012345678901"},
  };
  for (const auto& c : bad) {
    Result<ChaosReplay> parsed = ParseChaosReplay(head + c.line + "\n");
    ASSERT_FALSE(parsed.ok()) << c.line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << c.line;
    EXPECT_NE(parsed.status().message().find("'" + c.token + "'"), std::string::npos)
        << c.line << ": " << parsed.status().ToString();
  }
}

}  // namespace
}  // namespace sim
}  // namespace flicker
