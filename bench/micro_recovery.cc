// Host-side microbenchmarks of the crash-recovery paths: what does coming
// back from a power loss cost in real wall time?
//
// Robustness machinery must be cheap enough that nobody is tempted to skip
// it. The bench (report: BENCH_robustness.json) asserts absolute budgets:
// the TPM_Init + TPM_Startup(ST_CLEAR) recovery path, a Startup that has to
// roll a torn NV write forward from the journal, TPM_SaveState, and a
// CrashConsistentSealedStore::Recover() classification each stay under a
// millisecond of real time, and a disabled CRASH_POINT costs nanoseconds -
// the production price of the whole fault-injection campaign.
//
// The v2 schema adds a "fleet" section: the gray-failure verifier-farm
// campaign. Six cells - 0/1/2 gray-slow verifiers, each unhedged (blind
// round-robin) and hedged (p95 hedges + breakers + admission control) - run
// in simulated time, so their numbers are seed-deterministic; the hedged
// two-gray cell is run twice and must serialize byte-identically.
// Acceptance: hedged completion stays >= 99% with p99 <= 3x the fault-free
// p99 while the unhedged control demonstrably degrades, and accepted_wrong
// stays zero everywhere (exit 2 otherwise).
//
//   micro_recovery                    run, summary to stdout
//   micro_recovery --bench_json=PATH  also write the report

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "src/common/fault.h"
#include "src/common/json.h"
#include "src/crypto/sha1.h"
#include "src/hw/clock.h"
#include "src/hw/timing.h"
#include "src/tpm/tpm.h"
#include "src/tpm/tpm_util.h"
#include "src/tpm/transport.h"
#include "src/core/sealed_state.h"
#include "src/sim/fleet.h"

namespace flicker {
namespace {

constexpr uint32_t kNvIndex = 0x00015151;

struct Rig {
  SimClock clock;
  Tpm tpm;
  TpmTransport transport;
  TpmClient client;
  Bytes owner_auth;

  Rig() : tpm(&clock, BroadcomBcm0102Profile()), transport(&tpm), client(&transport) {
    owner_auth = Sha1::Digest(BytesOf("owner"));
    (void)tpm.TakeOwnership(owner_auth);
    (void)TpmDefineNvSpace(&client, kNvIndex, 8, PcrSelection(), {}, owner_auth);
    (void)client.NvWrite(kNvIndex, Bytes(8, 0x11));
  }

  void PowerCycle() {
    transport.hardware()->Init();
    (void)client.Startup(TpmStartupType::kClear);
  }

  // Leaves a committed-but-torn NV write behind, exactly as a power cut
  // mid-apply would.
  void TearNvWrite() {
    CrashPlan plan;
    plan.crash_at_hit = 1;
    plan.only_point = "tpm.nv_write.apply";
    FaultScheduler scheduler;
    scheduler.Arm(plan);
    FaultInjectionScope scope(&scheduler);
    try {
      (void)tpm.NvWrite(kNvIndex, Bytes(8, 0x22));
    } catch (const PowerLossException&) {
    }
  }
};

// A disabled crash point is one null check; keep the loop opaque enough that
// the compiler cannot delete it.
void HitCrashPoints(int n) {
  for (int i = 0; i < n; ++i) {
    CRASH_POINT("bench.noop");
  }
}

// ---- Verifier-farm gray-failure campaign (simulated time) ----

constexpr double kGraySlowFactor = 40.0;

sim::FleetConfig FarmCampaignConfig(bool hedged, int gray) {
  sim::FleetConfig config;
  config.seed = 11;
  config.num_machines = 64;
  config.num_verifiers = 8;
  config.rounds = 256;
  config.mean_interarrival_ms = 20.0;
  config.batched_machines_bp = 5000;
  config.round_timeout_ms = 30000.0;
  // Verification is made expensive enough (50 ms) that a 40x gray verifier
  // (2 s per frame) builds a real queue behind itself: the unhedged control
  // must visibly hurt, not shrug the fault off.
  config.verify_cost_ms = 50.0;
  if (hedged) {
    config.farm.hedge = true;
    config.farm.max_outstanding = 16;
  }
  for (int v = 0; v < gray; ++v) {
    sim::FleetVerifierFault fault;
    fault.kind = sim::FleetVerifierFault::Kind::kGraySlow;
    fault.verifier = v;
    fault.start_ms = 0.0;
    fault.end_ms = 6000.0;  // Past the last arrival: gray for the whole run.
    fault.slow_factor = kGraySlowFactor;
    config.verifier_faults.push_back(fault);
  }
  return config;
}

struct FarmCell {
  const char* key;
  bool hedged;
  int gray;
  sim::FleetStats stats;
  double completion = 0;
};

int RunFarmCampaign(JsonWriter* json, bool* accepted) {
  FarmCell cells[] = {
      {"unhedged_gray0", false, 0}, {"unhedged_gray1", false, 1}, {"unhedged_gray2", false, 2},
      {"hedged_gray0", true, 0},    {"hedged_gray1", true, 1},    {"hedged_gray2", true, 2},
  };
  std::string hedged_gray2_json;
  for (FarmCell& cell : cells) {
    sim::FleetConfig config = FarmCampaignConfig(cell.hedged, cell.gray);
    sim::Fleet fleet(config);
    Status run = fleet.Run();
    if (!run.ok()) {
      std::fprintf(stderr, "micro_recovery: farm cell %s failed: %s\n", cell.key,
                   run.ToString().c_str());
      return 1;
    }
    cell.stats = fleet.stats();
    cell.completion = static_cast<double>(cell.stats.rounds_completed) /
                      static_cast<double>(cell.stats.rounds_injected);
    if (cell.hedged && cell.gray == 2) {
      hedged_gray2_json = cell.stats.ToJson(config);
    }
  }

  // Seed-determinism gate: the flagship hedged cell re-run must serialize
  // byte-identically (same seed, same event interleaving, same JSON).
  bool deterministic = false;
  {
    sim::FleetConfig config = FarmCampaignConfig(/*hedged=*/true, /*gray=*/2);
    sim::Fleet fleet(config);
    if (fleet.Run().ok()) {
      deterministic = fleet.stats().ToJson(config) == hedged_gray2_json;
    }
  }

  const FarmCell& hedged0 = cells[3];
  const FarmCell& hedged2 = cells[5];
  const FarmCell& unhedged0 = cells[0];
  const FarmCell& unhedged2 = cells[2];
  const double hedged_p99_limit = 3.0 * hedged0.stats.LatencyPercentileMs(0.99);
  const bool completion_ok = hedged2.completion >= 0.99;
  const bool p99_ok = hedged2.stats.LatencyPercentileMs(0.99) <= hedged_p99_limit;
  const bool unhedged_degrades =
      unhedged2.completion < 0.99 ||
      unhedged2.stats.LatencyPercentileMs(0.99) >
          3.0 * unhedged0.stats.LatencyPercentileMs(0.99);
  bool accepted_wrong_zero = true;
  for (const FarmCell& cell : cells) {
    accepted_wrong_zero = accepted_wrong_zero && cell.stats.accepted_wrong == 0;
  }
  *accepted =
      completion_ok && p99_ok && unhedged_degrades && accepted_wrong_zero && deterministic;

  const sim::FleetConfig base = FarmCampaignConfig(/*hedged=*/false, /*gray=*/0);
  json->Object("fleet").InlineObject("config").Int("machines", base.num_machines);
  json->Int("verifiers", base.num_verifiers).Int("rounds", base.rounds);
  json->Fixed("verify_cost_ms", base.verify_cost_ms, 1);
  json->Fixed("gray_slow_factor", kGraySlowFactor, 1).Int("seed", base.seed).End();
  json->Object("cells");
  for (const FarmCell& cell : cells) {
    json->InlineObject(cell.key).Int("completed", cell.stats.rounds_completed);
    json->Int("timed_out", cell.stats.rounds_timed_out).Fixed("completion", cell.completion, 4);
    json->Fixed("p50_ms", cell.stats.LatencyPercentileMs(0.50), 3);
    json->Fixed("p99_ms", cell.stats.LatencyPercentileMs(0.99), 3);
    json->Int("hedges_fired", cell.stats.hedges_fired).Int("hedge_wins", cell.stats.hedge_wins);
    json->Int("breaker_trips", cell.stats.breaker_trips);
    json->Int("overload_sheds", cell.stats.overload_sheds);
    json->Int("accepted_wrong", cell.stats.accepted_wrong).End();
    std::printf("farm %-14s: %5.1f%% complete, p99 %8.1f ms, %llu hedges, %llu trips\n",
                cell.key, cell.completion * 100.0, cell.stats.LatencyPercentileMs(0.99),
                static_cast<unsigned long long>(cell.stats.hedges_fired),
                static_cast<unsigned long long>(cell.stats.breaker_trips));
  }
  json->End().InlineObject("acceptance").Bool("hedged_gray2_completion_ok", completion_ok);
  json->Bool("hedged_gray2_p99_ok", p99_ok).Bool("unhedged_degrades", unhedged_degrades);
  json->Bool("accepted_wrong_zero", accepted_wrong_zero).Bool("deterministic", deterministic);
  json->End().End();
  return 0;
}

// ---- Fixed-schema report + absolute wall-time budgets ----

int RunBench(const std::string& json_path) {
  std::unique_ptr<ReportFile> out = OpenReport("micro_recovery", json_path);
  if (out == nullptr) {
    return 1;
  }
  auto micros_per_op = [](auto&& fn, double min_seconds) {
    return MeasureSecondsPerOp(fn, min_seconds, 200000) * 1e6;
  };

  Rig rig;
  Result<CrashConsistentSealedStore> created = CrashConsistentSealedStore::Create(
      &rig.client, Sha1::Digest(BytesOf("ctr")), rig.owner_auth);
  if (!created.ok()) {
    std::fprintf(stderr, "micro_recovery: store creation failed\n");
    return 1;
  }
  CrashConsistentSealedStore store = created.take();
  Bytes release_pcr = rig.client.PcrRead(17).value();
  (void)store.Seal(BytesOf("gen-1"), release_pcr, Sha1::Digest(BytesOf("blob")));

  struct Row {
    const char* key;
    double wall_us;    // Measured real time per operation.
    double budget_us;  // Absolute ceiling; exceeding it fails the bench.
  };
  Row rows[] = {
      {"init_startup_clear", micros_per_op([&] { rig.PowerCycle(); }, 0.5), 1000.0},
      {"startup_journal_replay",
       micros_per_op(
           [&] {
             rig.TearNvWrite();
             rig.PowerCycle();
           },
           0.5),
       1500.0},
      {"save_state", micros_per_op([&] { DoNotOptimize(rig.client.SaveState()); }, 0.5), 1000.0},
      {"store_recover", micros_per_op([&] { DoNotOptimize(store.Recover()); }, 0.5), 1000.0},
      {"crash_point_disabled", micros_per_op([&] { HitCrashPoints(1024); }, 0.2) / 1024.0, 0.05},
  };

  bool within_budget = true;
  JsonWriter json;
  json.Object().String("schema", "flicker-bench-robustness-v2").Object("operations");
  for (const Row& row : rows) {
    bool ok = row.wall_us < row.budget_us;
    within_budget = within_budget && ok;
    json.InlineObject(row.key).Fixed("wall_us", row.wall_us, 4);
    json.Fixed("budget_us", row.budget_us, 2).End();
    std::printf("%-22s: %10.4f us real (budget %8.2f us)%s\n", row.key, row.wall_us,
                row.budget_us, ok ? "" : "  OVER BUDGET");
  }
  json.End();
  bool farm_accepted = false;
  int farm_rc = RunFarmCampaign(&json, &farm_accepted);
  if (farm_rc != 0) {
    return farm_rc;
  }
  json.Bool("within_budget", within_budget).End();
  if (!CloseReport(std::move(out), json.Take())) {
    return 1;
  }
  std::printf("within_budget=%s, farm_accepted=%s\n", within_budget ? "true" : "false",
              farm_accepted ? "true" : "false");
  return within_budget && farm_accepted ? 0 : 2;
}

}  // namespace
}  // namespace flicker

int main(int argc, char** argv) {
  std::string json_path;
  if (!flicker::ParseBenchJsonFlag(argc, argv, &json_path)) {
    return 1;
  }
  return flicker::RunBench(json_path);
}
