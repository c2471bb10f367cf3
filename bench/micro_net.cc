// Session-layer behavior under loss: what does the reliable-session machinery
// cost, and what does it deliver, when the wire starts eating datagrams?
//
// The bench (report: BENCH_net.json) runs 200 request/response exchanges
// (256-byte payloads, default SessionConfig) at 0 / 1 / 5 / 20 % drop rates
// on seeded schedules and reports the completion-time distribution (p50 /
// p95 / max, simulated milliseconds), the retransmit count, the goodput in
// kbit/s of simulated time, and the fail-closed count. Everything runs on
// the simulated clock with fixed seeds, so the report is byte-identical
// across runs and machines - a drift in it is a behavior change, not noise.
//
// The within_budget verdict asserts the headline claims: a clean wire
// completes every call with zero retransmits at ~1 RTT, and 20 % loss still
// completes the overwhelming majority inside the deadline - the rest fail
// CLOSED, never hang, never return garbage (exit 2 otherwise).
//
//   micro_net                    run, summary to stdout
//   micro_net --bench_json=PATH  also write the report

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/json.h"
#include "src/net/session.h"

namespace flicker {
namespace {

constexpr int kCallsPerRate = 200;
constexpr size_t kPayloadBytes = 256;

struct RateReport {
  uint32_t loss_bp = 0;
  int completed = 0;
  int failed_closed = 0;
  uint64_t retransmits = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double max_ms = 0;
  double goodput_kbps = 0;  // Delivered payload bits per simulated second.
};

RateReport RunAtLossRate(uint32_t loss_bp) {
  SimClock clock;
  LossyChannel channel(&clock);
  NetFaultMix mix;
  mix.drop_bp = loss_bp;
  channel.set_fault_schedule(NetFaultSchedule(0x6e65ULL + loss_bp, mix));
  SessionClient client(&channel, NetEndpoint::kClient);
  SessionServer server(&channel, NetEndpoint::kServer);
  SessionServer::Handler echo = [](const Bytes& request) -> Result<Bytes> {
    return request;
  };
  SessionClient::PeerPump pump = [&](double deadline_ms) {
    server.ServePending(deadline_ms, echo);
  };

  RateReport report;
  report.loss_bp = loss_bp;
  const Bytes payload(kPayloadBytes, 0x42);
  std::vector<double> completion_ms;
  const double start_ms = clock.NowMillis();
  for (int i = 0; i < kCallsPerRate; ++i) {
    const double call_start_ms = clock.NowMillis();
    Result<Bytes> reply = client.Call(payload, pump);
    if (reply.ok() && reply.value() == payload) {
      ++report.completed;
      completion_ms.push_back(clock.NowMillis() - call_start_ms);
    } else {
      ++report.failed_closed;  // Typed error within deadline; never garbage.
    }
  }
  report.retransmits = client.retransmits();

  if (!completion_ms.empty()) {
    std::sort(completion_ms.begin(), completion_ms.end());
    report.p50_ms = completion_ms[completion_ms.size() / 2];
    report.p95_ms = completion_ms[completion_ms.size() * 95 / 100];
    report.max_ms = completion_ms.back();
  }
  const double elapsed_s = (clock.NowMillis() - start_ms) / 1000.0;
  if (elapsed_s > 0) {
    report.goodput_kbps =
        static_cast<double>(report.completed) * kPayloadBytes * 8.0 / elapsed_s / 1000.0;
  }
  return report;
}

// ---- Fixed-schema, deterministic (simulated-time) report ----

int RunBench(const std::string& json_path) {
  std::unique_ptr<ReportFile> out = OpenReport("micro_net", json_path);
  if (out == nullptr) {
    return 1;
  }

  const uint32_t rates_bp[] = {0, 100, 500, 2000};
  std::vector<RateReport> reports;
  for (uint32_t rate : rates_bp) {
    reports.push_back(RunAtLossRate(rate));
  }

  // The headline claims this report exists to defend.
  const RateReport& clean = reports.front();
  const RateReport& worst = reports.back();
  bool within_budget = true;
  within_budget &= clean.completed == kCallsPerRate && clean.retransmits == 0;
  within_budget &= clean.p95_ms < 15.0;  // ~1 RTT; no timeout window burned.
  within_budget &= worst.completed >= kCallsPerRate * 9 / 10;
  for (const RateReport& r : reports) {
    within_budget &= (r.completed + r.failed_closed) == kCallsPerRate;
    within_budget &= r.max_ms <= SessionConfig().total_deadline_ms;
  }

  JsonWriter json;
  json.Object().String("schema", "flicker-bench-net-v1").Int("calls_per_rate", kCallsPerRate);
  json.Int("payload_bytes", kPayloadBytes).Array("rates");
  for (const RateReport& r : reports) {
    json.InlineObject().Int("loss_bp", r.loss_bp).Int("completed", r.completed);
    json.Int("failed_closed", r.failed_closed).Int("retransmits", r.retransmits);
    json.Fixed("p50_ms", r.p50_ms, 4).Fixed("p95_ms", r.p95_ms, 4).Fixed("max_ms", r.max_ms, 4);
    json.Fixed("goodput_kbps", r.goodput_kbps, 3).End();
    std::printf("loss %5.2f%%: %3d/%d completed, %3d failed closed, %4llu retransmits, "
                "p50 %7.3f ms, p95 %7.3f ms, max %7.3f ms, goodput %8.3f kbit/s\n",
                r.loss_bp / 100.0, r.completed, kCallsPerRate, r.failed_closed,
                static_cast<unsigned long long>(r.retransmits), r.p50_ms, r.p95_ms, r.max_ms,
                r.goodput_kbps);
  }
  json.End().Bool("within_budget", within_budget).End();
  if (!CloseReport(std::move(out), json.Take())) {
    return 1;
  }
  std::printf("within_budget=%s\n", within_budget ? "true" : "false");
  return within_budget ? 0 : 2;
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
