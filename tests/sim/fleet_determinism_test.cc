// The fleet's determinism contract: same seed => byte-identical BENCH JSON
// and identical executor order digest; different seeds => different
// interleavings, same invariants. This is what lets a thousand-machine
// chaos run be replayed bit-exact from one integer. The golden values below
// were recorded with a build that set machines up one at a time; the pooled
// build must reproduce them exactly, traced or not.

#include <gtest/gtest.h>

#include <string>

#include "src/hw/clock.h"
#include "src/obs/trace.h"
#include "src/sim/fleet.h"

namespace flicker {
namespace sim {
namespace {

FleetConfig Config(uint64_t seed) {
  FleetConfig config;
  config.seed = seed;
  config.num_machines = 8;
  config.num_verifiers = 2;
  config.rounds = 32;
  config.mean_interarrival_ms = 1.0;
  config.batched_machines_bp = 5000;
  config.round_timeout_ms = 5000.0;
  return config;
}

struct RunResult {
  uint64_t digest = 0;
  uint64_t events = 0;
  std::string json;
  FleetStats stats;
};

RunResult RunOnce(const FleetConfig& config) {
  Fleet fleet(config);
  EXPECT_TRUE(fleet.Run().ok());
  RunResult result;
  result.digest = fleet.executor()->OrderDigest();
  result.events = fleet.executor()->events_processed();
  result.json = fleet.stats().ToJson(config);
  result.stats = fleet.stats();
  return result;
}

// FNV-1a over a report or trace export: pins its bytes in one number.
uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash = (hash ^ c) * 0x100000001b3ULL;
  }
  return hash;
}

struct Golden {
  uint64_t digest = 0;
  uint64_t events = 0;
  uint64_t json_hash = 0;
};

void ExpectGolden(const RunResult& run, const Golden& golden) {
  EXPECT_EQ(run.digest, golden.digest);
  EXPECT_EQ(run.events, golden.events);
  EXPECT_EQ(Fnv1a(run.json), golden.json_hash) << run.json;
}

// More machines than any build pool has workers, and a count no worker
// count divides, with every per-machine build step switched on: checkpoint
// stores, lossy wires, and two power cuts (one landing mid-checkpoint).
FleetConfig WideChaosConfig() {
  FleetConfig config = Config(37);
  config.num_machines = 37;
  config.num_verifiers = 3;
  config.rounds = 96;
  config.checkpoints.enabled = true;
  config.fault_mix.drop_bp = 300;
  config.fault_mix.duplicate_bp = 200;
  config.fault_mix.reorder_bp = 200;
  config.fault_mix.delay_bp = 200;
  config.fault_mix.corrupt_bp = 300;
  config.fault_seed = 11;
  FleetPowerCut clean_cut;
  clean_cut.at_ms = 10.0;
  clean_cut.machine = 5;
  config.power_cuts.push_back(clean_cut);
  FleetPowerCut torn_cut;
  torn_cut.at_ms = 25.0;
  torn_cut.machine = 30;
  torn_cut.crash_at_hit = 2;
  config.power_cuts.push_back(torn_cut);
  return config;
}

TEST(FleetDeterminismTest, EightMachineRunMatchesGolden) {
  ExpectGolden(RunOnce(Config(1234)), Golden{0xc17e309614f99ad9, 104, 0xb7e352f859fa743c});
}

TEST(FleetDeterminismTest, WideChaosRunMatchesGolden) {
  const RunResult run = RunOnce(WideChaosConfig());
  EXPECT_EQ(run.stats.accepted_wrong, 0u);
  EXPECT_EQ(run.stats.torn_states, 0u);
  EXPECT_EQ(run.stats.power_cuts, 2u);
  ExpectGolden(run, Golden{0xc643469c4b8dbe2b, 319, 0x1e1927a7097df8c9});
}

// Every span field the export leaves out (ids and parents) next to the ones
// it keeps, one span per line in recording order.
std::string SpanList(const obs::Tracer& tracer) {
  std::string out;
  for (const obs::SpanRecord& span : tracer.spans()) {
    out += std::to_string(span.id) + " " + std::to_string(span.parent_id) + " " +
           std::to_string(span.pid) + " " + std::to_string(span.session_id) + " " +
           std::to_string(span.start_ns) + " " + std::to_string(span.end_ns) + " " +
           span.category + " " + span.name + "\n";
  }
  return out;
}

TEST(FleetDeterminismTest, TracedRunMatchesGoldenExport) {
  SimClock trace_clock;
  obs::ScopedTracer tracer(&trace_clock);
  RunResult run;
  {
    // The build's root spans must hang under the span open around it.
    obs::ScopedSpan outer("test", "fleet");
    run = RunOnce(Config(1234));
  }
  // Tracing never changes the simulation, and the build's spans land in
  // the installed tracer in machine order with ids numbered as one stream.
  ExpectGolden(run, Golden{0xc17e309614f99ad9, 104, 0xb7e352f859fa743c});
  EXPECT_EQ(tracer.open_depth(), 0u);
  EXPECT_EQ(tracer.spans().size(), 251u);
  EXPECT_EQ(Fnv1a(SpanList(tracer)), 0x45cc4d7f61225902ULL);
  EXPECT_EQ(Fnv1a(tracer.ExportChromeTrace()), 0x6a5ae51f44f459cdULL);
}

TEST(FleetDeterminismTest, SameSeedIsByteIdentical) {
  RunResult first = RunOnce(Config(1234));
  RunResult second = RunOnce(Config(1234));
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.json, second.json);
}

TEST(FleetDeterminismTest, DifferentSeedsExploreDifferentInterleavings) {
  RunResult first = RunOnce(Config(1234));
  RunResult second = RunOnce(Config(4321));
  EXPECT_NE(first.digest, second.digest);
  // The invariants hold under every interleaving.
  for (const RunResult* run : {&first, &second}) {
    EXPECT_EQ(run->stats.accepted_wrong, 0u);
    EXPECT_EQ(run->stats.rounds_injected,
              run->stats.rounds_completed + run->stats.rounds_timed_out + run->stats.rounds_failed);
  }
}

TEST(FleetDeterminismTest, ChaosRunsReplayBitExact) {
  FleetConfig config = Config(99);
  config.fault_mix.drop_bp = 500;
  config.fault_mix.corrupt_bp = 500;
  config.fault_seed = 7;
  config.round_timeout_ms = 200.0;
  FleetPartition partition;
  partition.start_ms = 5.0;
  partition.end_ms = 15.0;
  partition.first_machine = 0;
  partition.last_machine = 3;
  config.partitions.push_back(partition);

  RunResult first = RunOnce(config);
  RunResult second = RunOnce(config);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.json, second.json);
}

}  // namespace
}  // namespace sim
}  // namespace flicker
