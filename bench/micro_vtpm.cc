// The vTPM multiplexer bench: the noisy-neighbor + power-cut chaos campaign
// under the discrete-event engine. Six tenants share one hardware TPM; one
// floods at ~50x its fair rate, one crash-loops with a bad owner auth, and
// two mid-campaign power cuts force the crash-consistent recovery path.
// Reports per-tenant completion, fairness (Jain's index over healthy
// tenants), healthy-tenant latency percentiles and the robustness counters
// as BENCH_vtpm.json.
//
// Determinism is part of the contract: the same seed must produce a
// byte-identical JSON file and executor order digest run after run -
// verify.sh --vtpm runs this twice per seed and cmp(1)s the outputs.
//
//   micro_vtpm                      flagship campaign, summary to stdout
//   micro_vtpm --bench_json=PATH    also write the JSON report to PATH
//   micro_vtpm --seed=N             campaign seed

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "src/common/json.h"
#include "src/vtpm/vtpm_campaign.h"

namespace flicker {
namespace {

vtpm::VtpmCampaignConfig FlagshipConfig() {
  vtpm::VtpmCampaignConfig config;
  config.seed = 1;
  config.num_tenants = 6;
  config.flooding_tenant = 0;
  config.crashloop_tenant = 1;
  config.duration_ms = 120000.0;
  config.power_cut_at_ms = {30000.0, 75000.0};
  return config;
}

int RunCampaign(const vtpm::VtpmCampaignConfig& config, const std::string& json_path) {
  std::unique_ptr<ReportFile> out = OpenReport("micro_vtpm", json_path);
  if (out == nullptr) {
    return 1;
  }
  Result<vtpm::VtpmCampaignStats> run = vtpm::RunVtpmCampaign(config);
  if (!run.ok()) {
    std::fprintf(stderr, "vtpm campaign failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const vtpm::VtpmCampaignStats& stats = run.value();

  std::printf("vtpm: %d tenants (flood=%d crashloop=%d), %.0f ms horizon, seed %llu\n",
              config.num_tenants, config.flooding_tenant, config.crashloop_tenant,
              config.duration_ms, static_cast<unsigned long long>(config.seed));
  for (size_t i = 0; i < stats.tenants.size(); ++i) {
    const vtpm::VtpmTenantCampaignStats& tenant = stats.tenants[i];
    std::printf("  tenant %zu: %llu injected, %llu completed, %llu failed, %llu shed, "
                "%llu breaker trips\n",
                i, static_cast<unsigned long long>(tenant.injected),
                static_cast<unsigned long long>(tenant.completed),
                static_cast<unsigned long long>(tenant.failed),
                static_cast<unsigned long long>(tenant.shed),
                static_cast<unsigned long long>(tenant.breaker_trips));
  }
  std::printf("  fairness: healthy completion %.4f, Jain %.4f\n",
              stats.HealthyCompletionRate(config), stats.HealthyJainIndex(config));
  std::printf("  healthy latency: p50 %.1f ms, p99 %.1f ms\n",
              stats.HealthyLatencyPercentileMs(0.50), stats.HealthyLatencyPercentileMs(0.99));
  std::printf("  robustness: %llu rollbacks detected, %llu quarantines, %llu shed, "
              "%llu power cuts\n",
              static_cast<unsigned long long>(stats.rollbacks_detected),
              static_cast<unsigned long long>(stats.quarantines),
              static_cast<unsigned long long>(stats.shed_total),
              static_cast<unsigned long long>(stats.power_cuts));
  std::printf("  verifier: %llu verified, %llu rejected, accepted_wrong=%llu\n",
              static_cast<unsigned long long>(stats.responses_verified),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.accepted_wrong));
  std::printf("  engine: %llu events, max heap %zu, order digest %s\n",
              static_cast<unsigned long long>(stats.events_processed), stats.max_heap,
              HexDigest(stats.order_digest).c_str());

  if (!CloseReport(std::move(out), stats.ToJson(config))) {
    return 1;
  }

  if (stats.accepted_wrong != 0) {
    std::fprintf(stderr, "INVARIANT VIOLATION: %llu quotes answered the wrong challenge\n",
                 static_cast<unsigned long long>(stats.accepted_wrong));
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace flicker

int main(int argc, char** argv) {
  flicker::vtpm::VtpmCampaignConfig config = flicker::FlagshipConfig();
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--bench_json=", 13) == 0) {
      json_path = arg + 13;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      if (!flicker::ParseFlagNumber(arg, 7, &config.seed)) {
        return 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 1;
    }
  }
  return flicker::RunCampaign(config, json_path);
}
