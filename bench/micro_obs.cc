// Observability cost + export tool.
//
// Tracing must be free at the timescale the simulation models, and invisible
// to the simulation itself: installing a tracer never advances the simulated
// clock, so every table and figure is bit-identical with tracing on or off.
// The --bench_json mode asserts both properties: the measured wall-clock
// cost a tracer adds to one full attestation round stays under 1% of the
// *modeled* round latency, and the simulated duration of the round is
// exactly identical traced and untraced.
//
// The other modes are the operator surface of the unified stream:
//   --trace_json=PATH       run one SSH attestation round (both PALs) under
//                           a tracer; export the Chrome trace_event JSON
//                           (load in chrome://tracing or ui.perfetto.dev).
//   --dump_metrics          same round; plain-text metrics dump to stdout.
//   --dump_metrics_md=PATH  regenerate docs/METRICS.md from the metric
//                           definition tables ("-" writes to stdout).
//                           verify.sh diffs this against the committed copy.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "src/apps/hello.h"
#include "src/apps/ssh.h"
#include "src/common/json.h"
#include "src/core/remote_attestation.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flicker {
namespace {

// One challenged platform + verifier pair; Round() is the full wire-level
// attestation exchange (challenge -> PAL session -> quote -> verify).
struct AttestRig {
  FlickerPlatform platform;
  PalBinary binary;
  PrivacyCa ca;
  AikCertificate cert;
  AttestationService service;
  AttestationVerifier verifier;

  AttestRig()
      : binary(BuildPal(std::make_shared<HelloWorldPal>()).take()),
        cert(ca.Certify(platform.tpm()->aik_public(), "bench-host")),
        service(&platform, cert),
        verifier(&binary, ca.public_key()) {}

  bool Round() {
    Bytes challenge = verifier.MakeChallenge();
    Result<Bytes> reply = service.HandleChallenge(challenge, binary, BytesOf("bench"));
    if (!reply.ok()) {
      return false;
    }
    return verifier.CheckReply(reply.value()).status.ok();
  }
};

struct RunStats {
  double wall_us_per_round = 0;
  double sim_ms_per_round = 0;
  bool all_ok = true;
};

RunStats MeasureRounds(AttestRig* rig, int rounds) {
  using Clock = std::chrono::steady_clock;
  RunStats stats;
  stats.all_ok = rig->Round();  // Warm-up (untimed wall, but sim time counts).
  const uint64_t sim_start_us = rig->platform.clock()->NowMicros();
  const Clock::time_point wall_start = Clock::now();
  for (int i = 0; i < rounds; ++i) {
    stats.all_ok = rig->Round() && stats.all_ok;
  }
  const double wall_s = std::chrono::duration<double>(Clock::now() - wall_start).count();
  const uint64_t sim_us = rig->platform.clock()->NowMicros() - sim_start_us;
  stats.wall_us_per_round = wall_s * 1e6 / rounds;
  stats.sim_ms_per_round = static_cast<double>(sim_us) / 1000.0 / rounds;
  return stats;
}

int RunJsonBench(const std::string& path) {
  std::unique_ptr<ReportFile> out = OpenReport("micro_obs", path);
  if (out == nullptr) {
    return 1;
  }
  constexpr int kRounds = 12;

  // Untraced: no tracer installed - the per-site cost is one global pointer
  // load + branch.
  AttestRig untraced_rig;
  RunStats untraced = MeasureRounds(&untraced_rig, kRounds);

  // Traced: a live tracer captures the full span stream.
  AttestRig traced_rig;
  RunStats traced;
  size_t spans = 0;
  {
    obs::ScopedTracer tracer(traced_rig.platform.clock());
    traced = MeasureRounds(&traced_rig, kRounds);
    spans = tracer.spans().size();
  }

  const double spans_per_round = static_cast<double>(spans) / (kRounds + 1);
  const double overhead_percent =
      (traced.wall_us_per_round - untraced.wall_us_per_round) /
      (untraced.sim_ms_per_round * 1000.0) * 100.0;
  // The load-bearing invariant: tracing observes simulated time, never
  // spends it. Byte-identical tables depend on exact equality here.
  const bool sim_identical = traced.sim_ms_per_round == untraced.sim_ms_per_round;
  const bool within_budget =
      untraced.all_ok && traced.all_ok && sim_identical && overhead_percent < 1.0;

  JsonWriter json;
  json.Object().String("schema", "flicker-bench-obs-v2");
  json.Fixed("overhead_budget_percent", 1.0, 1).Int("rounds", kRounds);
  json.InlineObject("untraced").Fixed("wall_us_per_round", untraced.wall_us_per_round, 3);
  json.Fixed("sim_ms_per_round", untraced.sim_ms_per_round, 3).End();
  json.InlineObject("traced").Fixed("wall_us_per_round", traced.wall_us_per_round, 3);
  json.Fixed("sim_ms_per_round", traced.sim_ms_per_round, 3);
  json.Fixed("spans_per_round", spans_per_round, 1).End();
  json.Fixed("tracing_overhead_percent", overhead_percent, 4);
  json.Bool("sim_time_identical", sim_identical).Bool("within_budget", within_budget).End();
  if (!CloseReport(std::move(out), json.Take())) {
    return 1;
  }

  std::printf("attestation round: %.3f us wall untraced, %.3f us wall traced "
              "(%.1f spans/round), %.1f ms simulated\n",
              untraced.wall_us_per_round, traced.wall_us_per_round, spans_per_round,
              untraced.sim_ms_per_round);
  std::printf("tracing overhead: %.4f%% of the modeled round budget; "
              "sim time identical: %s\n",
              overhead_percent, sim_identical ? "yes" : "NO");
  std::printf("within_budget=%s\n", within_budget ? "true" : "false");
  return within_budget ? 0 : 2;
}

// One full SSH round under a tracer: setup PAL + attestation, then a login
// frame through the second PAL - the span tree runs from app.ssh_* down to
// individual TPM ordinals. Returns the exported Chrome JSON via *trace and
// the final metrics dump via *metrics.
bool RunSshRound(std::string* trace, std::string* metrics) {
  FlickerPlatform platform;
  PalBuildOptions options;
  options.measurement_stub = true;
  PalBinary binary = BuildPal(std::make_shared<SshPal>(), options).value();

  SshServer server(&platform, &binary);
  if (!server.AddUser("alice", "correct horse", "a1b2c3d4").ok()) {
    return false;
  }
  PrivacyCa ca;
  AikCertificate cert = ca.Certify(platform.tpm()->aik_public(), "ssh-server");
  SshClient client(&binary, ca.public_key(), cert);

  obs::ScopedTracer tracer(platform.clock());

  Bytes setup_nonce = client.MakeNonce();
  Result<SshServer::SetupResult> setup = server.Setup(setup_nonce);
  bool ok = setup.ok() && client.VerifyServerSetup(setup.value(), setup_nonce).ok();

  if (ok) {
    Bytes login_nonce = client.MakeNonce();
    Result<Bytes> ciphertext = client.EncryptPassword("correct horse", login_nonce);
    ok = ciphertext.ok();
    if (ok) {
      SshLoginRequest request;
      request.username = "alice";
      request.encrypted_password = ciphertext.value();
      request.login_nonce = login_nonce;
      Result<Bytes> verdict = server.HandleLoginFrame(request.Serialize());
      ok = verdict.ok() && verdict.value().size() == 1 && verdict.value()[0] == 1;
    }
  }

  if (trace != nullptr) {
    *trace = tracer.ExportChromeTrace();
  }
  if (metrics != nullptr) {
    std::ostringstream os;
    obs::MetricsRegistry::Global()->DumpText(os);
    *metrics = os.str();
  }
  return ok;
}

int RunTraceExport(const std::string& path) {
  std::string trace;
  if (!RunSshRound(&trace, nullptr)) {
    std::fprintf(stderr, "micro_obs: SSH round failed\n");
    return 1;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "micro_obs: cannot open %s for writing\n", path.c_str());
    return 1;
  }
  out << trace;
  out.close();
  std::printf("wrote %s (%zu bytes; load in chrome://tracing or ui.perfetto.dev)\n",
              path.c_str(), trace.size());
  return 0;
}

int RunMetricsDump() {
  std::string metrics;
  if (!RunSshRound(nullptr, &metrics)) {
    std::fprintf(stderr, "micro_obs: SSH round failed\n");
    return 1;
  }
  std::fputs(metrics.c_str(), stdout);
  return 0;
}

int RunMetricsMarkdown(const std::string& path) {
  if (path == "-") {
    obs::MetricsRegistry::DumpMarkdown(std::cout);
    return 0;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "micro_obs: cannot open %s for writing\n", path.c_str());
    return 1;
  }
  obs::MetricsRegistry::DumpMarkdown(out);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace flicker

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    constexpr const char kBench[] = "--bench_json=";
    constexpr const char kTrace[] = "--trace_json=";
    constexpr const char kMd[] = "--dump_metrics_md=";
    if (std::strncmp(argv[i], kBench, sizeof(kBench) - 1) == 0) {
      return flicker::RunJsonBench(argv[i] + sizeof(kBench) - 1);
    }
    if (std::strncmp(argv[i], kTrace, sizeof(kTrace) - 1) == 0) {
      return flicker::RunTraceExport(argv[i] + sizeof(kTrace) - 1);
    }
    if (std::strncmp(argv[i], kMd, sizeof(kMd) - 1) == 0) {
      return flicker::RunMetricsMarkdown(argv[i] + sizeof(kMd) - 1);
    }
    if (std::strcmp(argv[i], "--dump_metrics") == 0) {
      return flicker::RunMetricsDump();
    }
  }
  std::fprintf(stderr,
               "usage: micro_obs --bench_json=PATH | --trace_json=PATH |\n"
               "                 --dump_metrics | --dump_metrics_md=PATH|-\n");
  return 1;
}
