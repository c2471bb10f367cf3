// Verifier-tier faults under the fleet engine: a gray-slow worker that
// still answers, a crashed worker that never does, and a hung worker that
// stalls its whole queue. The unhedged control shows each fault's damage;
// the farm policy (p95 hedges, breakers, admission control) masks it. The
// config validator rejects fault plans that target hardware outside the
// fleet before any event runs.

#include <gtest/gtest.h>

#include "src/sim/fleet.h"

namespace flicker {
namespace sim {
namespace {

FleetConfig BaseConfig() {
  FleetConfig config;
  config.seed = 7;
  config.num_machines = 16;
  config.num_verifiers = 4;
  config.rounds = 64;
  config.mean_interarrival_ms = 10.0;
  config.batched_machines_bp = 5000;
  config.round_timeout_ms = 30000.0;
  // Expensive enough that a 40x gray verifier builds a real queue.
  config.verify_cost_ms = 20.0;
  return config;
}

FleetVerifierFault FaultWindow(FleetVerifierFault::Kind kind, int verifier, double end_ms) {
  FleetVerifierFault fault;
  fault.kind = kind;
  fault.verifier = verifier;
  fault.start_ms = 0.0;
  fault.end_ms = end_ms;
  fault.slow_factor = 40.0;
  return fault;
}

void CheckAccounting(const FleetStats& stats) {
  EXPECT_EQ(stats.rounds_injected,
            stats.rounds_completed + stats.rounds_timed_out + stats.rounds_failed);
  EXPECT_EQ(stats.accepted_wrong, 0u);
}

FleetStats RunOrDie(const FleetConfig& config) {
  Fleet fleet(config);
  EXPECT_TRUE(fleet.Run().ok());
  return fleet.stats();
}

TEST(FleetVerifierFaultTest, GraySlowVerifierDegradesBlindRoundRobin) {
  FleetConfig config = BaseConfig();
  config.verifier_faults.push_back(
      FaultWindow(FleetVerifierFault::Kind::kGraySlow, 0, 4000.0));

  const FleetStats stats = RunOrDie(config);
  CheckAccounting(stats);
  EXPECT_GT(stats.verifier_fault_frames, 0u);

  // The control group: no faults, same load. Blind round-robin routes 1/4
  // of the fleet through the gray worker, so the tail must carry several
  // gray service times (slow_factor * verify_cost = 800 ms each) of queue
  // that the fault-free baseline does not. (The sharper 3x-p99 bar lives in
  // the micro_recovery farm campaign, whose load is tuned for it.)
  FleetConfig clean = BaseConfig();
  const FleetStats baseline = RunOrDie(clean);
  EXPECT_GT(stats.LatencyPercentileMs(0.99),
            baseline.LatencyPercentileMs(0.99) + 3.0 * 800.0);
}

TEST(FleetVerifierFaultTest, HedgingMasksGraySlowVerifier) {
  FleetConfig unhedged = BaseConfig();
  unhedged.verifier_faults.push_back(
      FaultWindow(FleetVerifierFault::Kind::kGraySlow, 0, 4000.0));
  FleetConfig hedged = unhedged;
  hedged.farm.hedge = true;
  hedged.farm.max_outstanding = 16;

  const FleetStats slow = RunOrDie(unhedged);
  const FleetStats masked = RunOrDie(hedged);
  CheckAccounting(masked);

  // Every round completes, the hedge copies did real work, and the tail a
  // gray verifier inflicts on round-robin is gone.
  EXPECT_EQ(masked.rounds_completed, masked.rounds_injected);
  EXPECT_GT(masked.hedges_fired, 0u);
  EXPECT_GT(masked.hedge_wins, 0u);
  EXPECT_LT(masked.LatencyPercentileMs(0.99), slow.LatencyPercentileMs(0.99));
}

TEST(FleetVerifierFaultTest, CrashedVerifierTripsBreakerAndFailsOver) {
  FleetConfig config = BaseConfig();
  config.farm.hedge = true;
  // Crashed the whole run: every frame it is handed vanishes, so only the
  // breaker (fed by hedge-detected misses) keeps traffic away from it.
  config.verifier_faults.push_back(
      FaultWindow(FleetVerifierFault::Kind::kCrash, 1, 1e9));

  const FleetStats stats = RunOrDie(config);
  CheckAccounting(stats);
  EXPECT_EQ(stats.rounds_completed, stats.rounds_injected);
  EXPECT_GT(stats.verifier_fault_frames, 0u);
  EXPECT_GT(stats.breaker_trips, 0u);
}

TEST(FleetVerifierFaultTest, HungVerifierRecoversAfterWindow) {
  FleetConfig config = BaseConfig();
  config.farm.hedge = true;
  config.verifier_faults.push_back(
      FaultWindow(FleetVerifierFault::Kind::kHang, 2, 1500.0));

  const FleetStats stats = RunOrDie(config);
  CheckAccounting(stats);
  // Frames caught by the hang never get answers; the hedges still land
  // every round, and the breaker that opened during the stall re-closes
  // once the thawed verifier answers a probe - an MTTR sample per recovery.
  EXPECT_EQ(stats.rounds_completed, stats.rounds_injected);
  EXPECT_GT(stats.hedges_fired, 0u);
}

TEST(FleetVerifierFaultTest, AdmissionControlShedsInsteadOfQueueing) {
  FleetConfig config = BaseConfig();
  config.mean_interarrival_ms = 1.0;  // Slam the farm.
  config.farm.hedge = true;
  config.farm.max_outstanding = 1;
  config.verifier_faults.push_back(
      FaultWindow(FleetVerifierFault::Kind::kGraySlow, 0, 4000.0));

  const FleetStats stats = RunOrDie(config);
  CheckAccounting(stats);
  // The frontend shed under pressure, shed machines came back with paced
  // resends, and the rounds still finished.
  EXPECT_GT(stats.overload_sheds, 0u);
  EXPECT_GT(stats.overload_resends, 0u);
  EXPECT_EQ(stats.rounds_completed, stats.rounds_injected);
}

TEST(FleetVerifierFaultTest, DeterministicAcrossReruns) {
  FleetConfig config = BaseConfig();
  config.farm.hedge = true;
  config.verifier_faults.push_back(
      FaultWindow(FleetVerifierFault::Kind::kGraySlow, 0, 4000.0));

  Fleet a(config);
  ASSERT_TRUE(a.Run().ok());
  Fleet b(config);
  ASSERT_TRUE(b.Run().ok());
  EXPECT_EQ(a.stats().ToJson(config), b.stats().ToJson(config));
  EXPECT_EQ(a.stats().order_digest, b.stats().order_digest);
}

// ---- Config validation: a fault plan naming hardware that does not exist
// must be rejected before the first event, not crash mid-run. ----

TEST(FleetVerifierFaultTest, RejectsVerifierFaultOutsideFarm) {
  FleetConfig config = BaseConfig();
  config.verifier_faults.push_back(
      FaultWindow(FleetVerifierFault::Kind::kGraySlow, config.num_verifiers, 100.0));
  EXPECT_FALSE(Fleet(config).Run().ok());
}

TEST(FleetVerifierFaultTest, RejectsPartitionOutsideFleet) {
  FleetConfig config = BaseConfig();
  FleetPartition window;
  window.start_ms = 0.0;
  window.end_ms = 100.0;
  window.first_machine = 0;
  window.last_machine = config.num_machines;  // One past the end.
  config.partitions.push_back(window);
  EXPECT_FALSE(Fleet(config).Run().ok());
}

TEST(FleetVerifierFaultTest, RejectsPowerCutOutsideFleet) {
  FleetConfig config = BaseConfig();
  FleetPowerCut cut;
  cut.machine = -1;
  cut.at_ms = 50.0;
  config.power_cuts.push_back(cut);
  EXPECT_FALSE(Fleet(config).Run().ok());
}

}  // namespace
}  // namespace sim
}  // namespace flicker
