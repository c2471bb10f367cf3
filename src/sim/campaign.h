// The campaign kit: the helpers every harness on the engine shares (the
// fleet, the vTPM and hv campaigns, the chaos fuzzer), defined once so their
// same-seed reports stay byte-comparable.
//
//   * F3 - the fixed three-decimal float every report and replay file uses.
//   * Percentile - one latency percentile: index round(p * (n - 1)) into the
//     sorted samples, clamped to the last one.
//   * WriteLatencyJson - the `"latency_ms": {p50, p90, p99, max}` report
//     block, sorting the samples once.
//   * ExponentialGapMs - one Poisson inter-arrival gap drawn from a seeded
//     Drbg.

#ifndef FLICKER_SRC_SIM_CAMPAIGN_H_
#define FLICKER_SRC_SIM_CAMPAIGN_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/crypto/drbg.h"

namespace flicker {
namespace sim {

// Fixed-precision float for byte-identical same-seed output.
std::string F3(double value);

// The p-quantile (p in [0, 1]) of `samples`; 0 when there are none.
double Percentile(std::vector<double> samples, double p);

// Writes `  "latency_ms": {"p50": .., "p90": .., "p99": .., "max": ..},\n`.
void WriteLatencyJson(std::ostream& os, std::vector<double> samples_ms);

// One exponential gap with mean `mean_ms`: u = (k + 1) / 2^30 for a uniform
// k in [0, 2^30), gap = -mean_ms * ln(u). The fleet keeps its own draw (a
// 2^30 + 1 denominator), which this must not be folded into.
double ExponentialGapMs(Drbg* rng, double mean_ms);

}  // namespace sim
}  // namespace flicker

#endif  // FLICKER_SRC_SIM_CAMPAIGN_H_
