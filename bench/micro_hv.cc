// The concurrent-execution bench: classic whole-machine suspend vs the
// minimal-hypervisor mode, plus the cross-core adversarial campaign.
//
// Part one is the Fig. 9-style app-impact comparison: the same PAL run N
// times in each mode on identical machines, reporting the OS-visible pause
// per session. Classic pauses the machine for the whole session (suspend +
// SKINIT + PAL + resume); concurrent pauses it only for the hypercall and
// world-switch slivers. The bench asserts the headline acceptance
// criterion - at least a 5x reduction in OS-visible pause - and that the
// two modes produce byte-identical outputs and PCR 17 chains.
//
// Part two runs the §13 fleet campaign (src/hv/hv_campaign): Poisson
// session rounds on multi-core machines under continuous OS-driven DMA,
// guest-memory and malicious-hypercall attack. Reports fleet sessions/sec,
// p99 round latency and the typed-denial ledger; accepted_wrong or a
// mistyped denial is an invariant violation (exit 2).
//
// Determinism is part of the contract: the same seed must produce a
// byte-identical BENCH_hv.json run after run - verify.sh --hv runs this
// twice per seed and cmp(1)s the outputs.
//
//   micro_hv                        flagship run, summary to stdout
//   micro_hv --bench_json=PATH      also write the JSON report to PATH
//   micro_hv --seed=N               campaign seed
//   micro_hv --quiet                short campaign horizon (CI-sized)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/apps/hello.h"
#include "src/core/flicker_platform.h"
#include "src/hv/hv_campaign.h"
#include "src/sim/campaign.h"

namespace flicker {
namespace {

using sim::F3;

struct ModeComparison {
  int sessions = 0;
  double classic_pause_ms_mean = 0;
  double concurrent_pause_ms_mean = 0;
  double classic_total_ms_mean = 0;
  double concurrent_total_ms_mean = 0;
  // The one-time hypervisor SKINIT, amortized across every session until
  // the next reboot; reported separately from the steady-state means.
  double hv_launch_pause_ms = 0;
  bool parity_ok = true;

  double PauseReduction() const {
    return concurrent_pause_ms_mean <= 0 ? 0
                                         : classic_pause_ms_mean / concurrent_pause_ms_mean;
  }
};

// The same PAL, N sessions per mode, on identically configured machines.
// The concurrent platform keeps the default mirrored-PCR config, so the
// comparison also checks the production parity path end to end.
Result<ModeComparison> CompareModes(int sessions) {
  ModeComparison cmp;
  cmp.sessions = sessions;

  Result<PalBinary> built = BuildPal(std::make_shared<HelloWorldPal>());
  if (!built.ok()) {
    return built.status();
  }
  const PalBinary binary = built.take();
  const Bytes inputs = BytesOf("micro-hv-input");

  FlickerPlatformConfig classic_config;
  FlickerPlatform classic(classic_config);
  FlickerPlatformConfig concurrent_config;
  concurrent_config.mode = SessionMode::kConcurrent;
  FlickerPlatform concurrent(concurrent_config);

  // Launch the hypervisor up front: its SKINIT is paid once per boot, so
  // the per-session comparison measures steady state (Fig. 9's regime).
  FLICKER_RETURN_IF_ERROR(concurrent.EnsureHypervisorResident());
  cmp.hv_launch_pause_ms =
      static_cast<double>(concurrent.hypervisor()->stats().os_pause_ns) / 1e6;

  for (int i = 0; i < sessions; ++i) {
    Result<FlickerSessionResult> a = classic.ExecuteSession(binary, inputs);
    if (!a.ok()) {
      return a.status();
    }
    Result<FlickerSessionResult> b = concurrent.ExecuteSession(binary, inputs);
    if (!b.ok()) {
      return b.status();
    }
    cmp.classic_pause_ms_mean += a.value().os_pause_ms;
    cmp.concurrent_pause_ms_mean += b.value().os_pause_ms;
    cmp.classic_total_ms_mean += a.value().session_total_ms;
    cmp.concurrent_total_ms_mean += b.value().session_total_ms;
    if (a.value().record.outputs != b.value().record.outputs ||
        a.value().record.pcr17_final != b.value().record.pcr17_final ||
        a.value().record.pcr17_during_execution != b.value().record.pcr17_during_execution) {
      cmp.parity_ok = false;
    }
  }
  cmp.classic_pause_ms_mean /= sessions;
  cmp.concurrent_pause_ms_mean /= sessions;
  cmp.classic_total_ms_mean /= sessions;
  cmp.concurrent_total_ms_mean /= sessions;
  return cmp;
}

int RunBench(int sessions, const hv::HvCampaignConfig& config, const std::string& json_path) {
  std::FILE* out = OpenReport("micro_hv", json_path);
  if (out == nullptr) {
    return 1;
  }
  Result<ModeComparison> compared = CompareModes(sessions);
  if (!compared.ok()) {
    std::fprintf(stderr, "mode comparison failed: %s\n", compared.status().ToString().c_str());
    return 1;
  }
  const ModeComparison& cmp = compared.value();

  std::printf("hv: %d sessions per mode (hello-world PAL)\n", cmp.sessions);
  std::printf("  classic:    pause %.3f ms/session (total %.3f ms)\n",
              cmp.classic_pause_ms_mean, cmp.classic_total_ms_mean);
  std::printf("  concurrent: pause %.3f ms/session (total %.3f ms, one-time launch %.3f ms)\n",
              cmp.concurrent_pause_ms_mean, cmp.concurrent_total_ms_mean,
              cmp.hv_launch_pause_ms);
  std::printf("  OS-visible pause reduction: %.1fx, mode parity %s\n", cmp.PauseReduction(),
              cmp.parity_ok ? "ok" : "VIOLATED");

  Result<hv::HvCampaignStats> run = hv::RunHvCampaign(config);
  if (!run.ok()) {
    std::fprintf(stderr, "hv campaign failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const hv::HvCampaignStats& stats = run.value();

  std::printf("hv campaign: %d machines x %d cores, %.0f ms horizon, seed %llu\n",
              config.num_machines, hv::kCampaignCpus, config.duration_ms,
              static_cast<unsigned long long>(config.seed));
  std::printf("  rounds: %llu injected, %llu completed, %llu failed (%llu dual, %llu attacked)\n",
              static_cast<unsigned long long>(stats.rounds_injected),
              static_cast<unsigned long long>(stats.rounds_completed),
              static_cast<unsigned long long>(stats.rounds_failed),
              static_cast<unsigned long long>(stats.dual_rounds),
              static_cast<unsigned long long>(stats.attacked_rounds));
  std::printf("  fleet: %.1f sessions/sec, round latency p50 %.3f ms, p99 %.3f ms\n",
              stats.SessionsPerSecond(), stats.LatencyPercentileMs(0.50),
              stats.LatencyPercentileMs(0.99));
  std::printf("  attacks: %llu launched, %llu denied, %llu mistyped, accepted_wrong=%llu\n",
              static_cast<unsigned long long>(stats.attacks_launched),
              static_cast<unsigned long long>(stats.attacks_denied),
              static_cast<unsigned long long>(stats.attacks_mistyped),
              static_cast<unsigned long long>(stats.accepted_wrong));
  std::printf("  protections: %llu DMA blocked, %llu NPT faults; pause %.3f ms vs classic-equiv "
              "%.3f ms (%.1fx)\n",
              static_cast<unsigned long long>(stats.dma_blocked),
              static_cast<unsigned long long>(stats.npt_blocked), stats.os_pause_ms_total,
              stats.classic_equiv_pause_ms_total, stats.PauseReduction());
  std::printf("  engine: %llu events, max heap %zu, order digest %s\n",
              static_cast<unsigned long long>(stats.events_processed), stats.max_heap,
              sim::HexDigest(stats.order_digest).c_str());

  std::string json = "{\n";
  json += "  \"schema\": \"flicker-bench-hv-v1\",\n";
  json += "  \"comparison\": {\"sessions_per_mode\": " + std::to_string(cmp.sessions);
  json += ", \"classic_pause_ms\": " + F3(cmp.classic_pause_ms_mean);
  json += ", \"concurrent_pause_ms\": " + F3(cmp.concurrent_pause_ms_mean);
  json += ", \"classic_total_ms\": " + F3(cmp.classic_total_ms_mean);
  json += ", \"concurrent_total_ms\": " + F3(cmp.concurrent_total_ms_mean);
  json += ", \"hv_launch_pause_ms\": " + F3(cmp.hv_launch_pause_ms);
  json += ", \"pause_reduction\": " + F3(cmp.PauseReduction());
  json += std::string(", \"parity\": ") + (cmp.parity_ok ? "true" : "false") + "},\n";
  json += "  \"adversarial_campaign\": ";
  json += stats.ToJson(config);
  json += "}\n";
  std::fwrite(json.data(), 1, json.size(), out);
  CloseReport(out, json_path);

  bool violated = false;
  if (!cmp.parity_ok) {
    std::fprintf(stderr, "INVARIANT VIOLATION: classic and concurrent sessions diverged\n");
    violated = true;
  }
  if (cmp.PauseReduction() < 5.0) {
    std::fprintf(stderr, "INVARIANT VIOLATION: pause reduction %.1fx is below the 5x floor\n",
                 cmp.PauseReduction());
    violated = true;
  }
  if (stats.accepted_wrong != 0 || stats.attacks_mistyped != 0) {
    std::fprintf(stderr,
                 "INVARIANT VIOLATION: %llu attacks accepted, %llu denied for the wrong reason\n",
                 static_cast<unsigned long long>(stats.accepted_wrong),
                 static_cast<unsigned long long>(stats.attacks_mistyped));
    violated = true;
  }
  return violated ? 2 : 0;
}

}  // namespace
}  // namespace flicker

int main(int argc, char** argv) {
  flicker::hv::HvCampaignConfig config;
  int sessions = 20;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--bench_json=", 13) == 0) {
      json_path = arg + 13;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      config.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strcmp(arg, "--quiet") == 0) {
      config.duration_ms = 6000.0;
      config.num_machines = 2;
      sessions = 5;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 1;
    }
  }
  return flicker::RunBench(sessions, config, json_path);
}
