// The fleet-scale simulation bench: a thousand full Flicker machines and a
// verifier farm under one discrete-event executor, driven by a seeded
// open-loop Poisson client. Reports sessions/sec, round-latency percentiles,
// verifier utilization and the batch-size distribution as BENCH_fleet.json.
//
// Determinism is part of the contract: the same seed must produce a
// byte-identical JSON file and executor order digest run after run -
// verify.sh --fleet runs this twice and cmp(1)s the outputs.
//
//   micro_fleet                          flagship 1000-machine run, summary
//                                        to stdout
//   micro_fleet --bench_json=PATH        also write the JSON report to PATH
//   micro_fleet --machines=N --rounds=N --verifiers=N --seed=N
//                                        override the flagship shape
//   micro_fleet --chaos                  arm the chaos campaign: lossy wires,
//                                        a rack partition and two power cuts
//   micro_fleet --chaos-fuzz             run the composite chaos fuzzer: N
//                                        seeded fault plans against the
//                                        invariant oracles; any violation is
//                                        shrunk to a minimal plan (exit 2)
//     --fuzz-plans=N                     campaign size (seed 1)
//     --misordered-commit                arm the test-only misordered-commit
//                                        checkpoint bug the fuzzer must find
//     --replay-out=PATH                  write the minimal plan's replay file
//     --artifact-out=PATH                write the failure artifact (crash
//                                        point census + order digest)
//   micro_fleet --replay=FILE            re-run a replay file; prints the
//                                        observed replay serialization (byte
//                                        identical run over run) and exits 0
//                                        iff the observed failure signature
//                                        matches the file's "# signature:"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "src/sim/campaign.h"
#include "src/sim/chaos_fuzz.h"
#include "src/sim/fleet.h"

namespace flicker {
namespace {

sim::FleetConfig FlagshipConfig() {
  sim::FleetConfig config;
  config.seed = 1;
  config.num_machines = 1000;
  config.num_verifiers = 8;
  config.rounds = 2000;
  config.mean_interarrival_ms = 1.0;
  config.batched_machines_bp = 5000;
  config.full_session_bp = 250;
  config.round_timeout_ms = 30000.0;
  return config;
}

void ArmChaos(sim::FleetConfig* config) {
  config->fault_mix.drop_bp = 300;
  config->fault_mix.duplicate_bp = 200;
  config->fault_mix.reorder_bp = 200;
  config->fault_mix.corrupt_bp = 300;
  config->fault_mix.delay_bp = 200;
  config->fault_seed = config->seed ^ 0xC4405ULL;

  sim::FleetPartition partition;
  partition.start_ms = 1000.0;
  partition.end_ms = 4000.0;
  partition.first_machine = 0;
  partition.last_machine = config->num_machines / 4 - 1;
  config->partitions.push_back(partition);

  for (int i = 0; i < 2; ++i) {
    sim::FleetPowerCut cut;
    cut.at_ms = 1500.0 + 1000.0 * i;
    cut.machine = (config->num_machines / 2 + i) % config->num_machines;
    config->power_cuts.push_back(cut);
  }
}

// The fuzzer's base fleet: small enough that hundreds of shrink probes stay
// cheap, arrivals sparse enough that the tail of the round schedule lands
// after the fault horizon (feeding the starvation oracle), checkpoint store
// on so crash-point power cuts have a two-phase protocol to tear.
sim::FleetConfig FuzzBaseConfig(uint64_t seed) {
  sim::FleetConfig config;
  config.seed = seed;
  config.num_machines = 4;
  config.num_verifiers = 2;
  config.rounds = 32;
  config.mean_interarrival_ms = 100.0;
  config.batched_machines_bp = 5000;
  config.round_timeout_ms = 30000.0;
  config.checkpoints.enabled = true;
  return config;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  return static_cast<bool>(out);
}

// Seed of every chaos-fuzz campaign; the plan seeds derive from it.
constexpr uint64_t kFuzzCampaignSeed = 1;

int RunChaosFuzz(int num_plans, bool misordered_commit, const std::string& replay_out,
                 const std::string& artifact_out) {
  sim::FleetConfig base = FuzzBaseConfig(kFuzzCampaignSeed);
  base.checkpoints.misordered_commit = misordered_commit;
  sim::ChaosFuzzReport report = sim::ChaosFuzz(base, kFuzzCampaignSeed, num_plans);
  std::printf("chaos-fuzz: %d plans, seed %llu%s\n", report.plans_run,
              static_cast<unsigned long long>(kFuzzCampaignSeed),
              misordered_commit ? ", misordered-commit armed" : "");
  std::printf("  violations: %d\n", report.violations);
  if (!report.found) {
    std::printf("  all invariant oracles held\n");
    return 0;
  }
  std::printf("  first violation: %s (%zu events, shrunk to %zu in %d runs)\n",
              report.signature.c_str(), report.original_events, report.minimal.events.size(),
              report.shrink_runs);
  if (!replay_out.empty() && !WriteFile(replay_out, report.replay_file)) {
    std::fprintf(stderr, "cannot write %s\n", replay_out.c_str());
    return 1;
  }
  if (!artifact_out.empty() && !WriteFile(artifact_out, report.artifact)) {
    std::fprintf(stderr, "cannot write %s\n", artifact_out.c_str());
    return 1;
  }
  std::fputs(report.artifact.c_str(), stdout);
  return 2;
}

int RunReplay(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  Result<sim::ChaosReplay> parsed = sim::ParseChaosReplay(text.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "replay parse failed: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const sim::ChaosReplay& replay = parsed.value();
  sim::ChaosOutcome outcome = sim::RunChaosPlan(replay.base, replay.plan);
  if (!outcome.ran) {
    std::fprintf(stderr, "replay run failed: %s\n", outcome.error.c_str());
    return 1;
  }
  // The observed run, re-serialized: two invocations of the same file must
  // produce byte-identical stdout (verify.sh cmp(1)s them), and the
  // signature line is the regression gate.
  std::fputs(sim::SerializeChaosReplay(replay.base, replay.plan, outcome.signature).c_str(),
             stdout);
  std::printf("# order_digest: %s\n", sim::HexDigest(outcome.stats.order_digest).c_str());
  if (outcome.signature != replay.signature) {
    std::fprintf(stderr, "signature mismatch: file says '%s', run produced '%s'\n",
                 replay.signature.c_str(), outcome.signature.c_str());
    return 3;
  }
  return 0;
}

int RunFleet(const sim::FleetConfig& config, const std::string& json_path) {
  std::FILE* out = OpenReport("micro_fleet", json_path);
  if (out == nullptr) {
    return 1;
  }
  sim::Fleet fleet(config);
  Status run = fleet.Run();
  if (!run.ok()) {
    std::fprintf(stderr, "fleet run failed: %s\n", run.ToString().c_str());
    return 1;
  }
  const sim::FleetStats& stats = fleet.stats();

  std::printf("fleet: %d machines, %d verifiers, %d rounds, seed %llu\n", config.num_machines,
              config.num_verifiers, config.rounds,
              static_cast<unsigned long long>(config.seed));
  std::printf("  outcome: %llu completed, %llu timed out, %llu failed, %llu rejected "
              "(accepted_wrong=%llu)\n",
              static_cast<unsigned long long>(stats.rounds_completed),
              static_cast<unsigned long long>(stats.rounds_timed_out),
              static_cast<unsigned long long>(stats.rounds_failed),
              static_cast<unsigned long long>(stats.rounds_rejected + stats.tampered_rejected),
              static_cast<unsigned long long>(stats.accepted_wrong));
  std::printf("  throughput: %.3f sessions/sec over %.1f simulated s\n", stats.SessionsPerSec(),
              stats.sim_duration_ms / 1000.0);
  std::printf("  latency: p50 %.1f ms, p99 %.1f ms\n", stats.LatencyPercentileMs(0.50),
              stats.LatencyPercentileMs(0.99));
  std::printf("  verifiers: %.4f utilization; batch quotes: %llu\n", stats.VerifierUtilization(),
              static_cast<unsigned long long>(stats.batch_quotes));
  std::printf("  engine: %llu events, max heap %zu, order digest %s\n",
              static_cast<unsigned long long>(stats.events_processed), stats.max_heap,
              sim::HexDigest(stats.order_digest).c_str());

  const std::string json = stats.ToJson(config);
  std::fwrite(json.data(), 1, json.size(), out);
  CloseReport(out, json_path);

  if (stats.accepted_wrong != 0) {
    std::fprintf(stderr, "INVARIANT VIOLATION: %llu tampered frames accepted\n",
                 static_cast<unsigned long long>(stats.accepted_wrong));
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace flicker

int main(int argc, char** argv) {
  flicker::sim::FleetConfig config = flicker::FlagshipConfig();
  std::string json_path;
  std::string replay_path;
  std::string replay_out;
  std::string artifact_out;
  bool chaos = false;
  bool chaos_fuzz = false;
  bool misordered_commit = false;
  int fuzz_plans = 24;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--bench_json=", 13) == 0) {
      json_path = arg + 13;
    } else if (std::strncmp(arg, "--machines=", 11) == 0) {
      config.num_machines = std::atoi(arg + 11);
    } else if (std::strncmp(arg, "--verifiers=", 12) == 0) {
      config.num_verifiers = std::atoi(arg + 12);
    } else if (std::strncmp(arg, "--rounds=", 9) == 0) {
      config.rounds = std::atoi(arg + 9);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      config.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strcmp(arg, "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(arg, "--chaos-fuzz") == 0) {
      chaos_fuzz = true;
    } else if (std::strncmp(arg, "--fuzz-plans=", 13) == 0) {
      fuzz_plans = std::atoi(arg + 13);
    } else if (std::strcmp(arg, "--misordered-commit") == 0) {
      misordered_commit = true;
    } else if (std::strncmp(arg, "--replay-out=", 13) == 0) {
      replay_out = arg + 13;
    } else if (std::strncmp(arg, "--artifact-out=", 15) == 0) {
      artifact_out = arg + 15;
    } else if (std::strncmp(arg, "--replay=", 9) == 0) {
      replay_path = arg + 9;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 1;
    }
  }
  if (!replay_path.empty()) {
    return flicker::RunReplay(replay_path);
  }
  if (chaos_fuzz) {
    return flicker::RunChaosFuzz(fuzz_plans, misordered_commit, replay_out, artifact_out);
  }
  if (chaos) {
    flicker::ArmChaos(&config);
  }
  return flicker::RunFleet(config, json_path);
}
