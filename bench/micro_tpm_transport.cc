// Host-side microbenchmarks of the TPM byte-frame transport: what does
// marshalling a command, pushing it through TpmTransport and unmarshalling
// the response cost in real wall time, per command?
//
// The transport exists to centralize locality policy, tracing and fault
// injection - it must be free at the timescale the simulation models. The
// bench asserts exactly that: the measured wall-clock cost of a full driver
// round trip stays under 1% of the *modeled* Broadcom latency of the same
// command (Table 1), for every command benchmarked. A regression that makes
// the choke point expensive fails the bench (exit 2), not just a number.
//
//   micro_tpm_transport                    run, summary to stdout
//   micro_tpm_transport --bench_json=PATH  also write the report
//                                          (BENCH_tpm.json)

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "src/common/bytes.h"
#include "src/common/json.h"
#include "src/hw/clock.h"
#include "src/hw/timing.h"
#include "src/tpm/structures.h"
#include "src/tpm/tpm.h"
#include "src/tpm/transport.h"

namespace flicker {
namespace {

struct Rig {
  SimClock clock;
  Tpm tpm;
  TpmTransport transport;
  TpmClient client;

  Rig() : tpm(&clock, BroadcomBcm0102Profile()), transport(&tpm), client(&transport) {}
};

// ---- Fixed-schema report + <1% overhead assertion ----

int RunBench(const std::string& json_path) {
  std::unique_ptr<ReportFile> out = OpenReport("micro_tpm_transport", json_path);
  if (out == nullptr) {
    return 1;
  }
  auto micros_per_op = [](auto&& fn) { return MeasureSecondsPerOp(fn, 0.5, 200000) * 1e6; };

  Rig rig;
  const TpmTimingProfile profile = BroadcomBcm0102Profile();
  Bytes measurement(kPcrSize, 0xEF);

  struct Row {
    const char* key;
    double wall_us;     // Measured driver round trip, real time.
    double modeled_ms;  // Calibrated Broadcom command latency.
  };
  Row rows[] = {
      {"pcr_read", micros_per_op([&] { DoNotOptimize(rig.client.PcrRead(0)); }),
       profile.pcr_read_ms},
      {"pcr_extend", micros_per_op([&] { DoNotOptimize(rig.client.PcrExtend(0, measurement)); }),
       profile.pcr_extend_ms},
      {"get_random", micros_per_op([&] { DoNotOptimize(rig.client.GetRandom(20)); }),
       profile.get_random_ms},
  };

  // The full round trip includes the device model's work; the overhead bound
  // still must hold because the modeled latency is the budget a real driver
  // has while the physical TPM grinds.
  bool within_budget = true;
  JsonWriter json;
  json.Object().String("schema", "flicker-bench-tpm-v1");
  json.Fixed("overhead_budget_percent", 1.0, 1).Object("commands");
  for (const Row& row : rows) {
    double overhead_percent = row.wall_us / (row.modeled_ms * 1000.0) * 100.0;
    within_budget = within_budget && overhead_percent < 1.0;
    json.InlineObject(row.key).Fixed("wall_us", row.wall_us, 3);
    json.Fixed("modeled_ms", row.modeled_ms, 1).Fixed("overhead_percent", overhead_percent, 4);
    json.End();
    std::printf("%-10s: %8.3f us real vs %6.1f ms modeled (%.4f%% overhead)\n", row.key,
                row.wall_us, row.modeled_ms, overhead_percent);
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
