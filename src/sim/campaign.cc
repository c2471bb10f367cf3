#include "src/sim/campaign.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace flicker {
namespace sim {

namespace {

double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  double rank = p * static_cast<double>(sorted.size() - 1);
  size_t index = static_cast<size_t>(rank + 0.5);
  if (index >= sorted.size()) {
    index = sorted.size() - 1;
  }
  return sorted[index];
}

}  // namespace

std::string F3(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

double Percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return PercentileOfSorted(samples, p);
}

void WriteLatencyJson(std::ostream& os, std::vector<double> samples_ms) {
  std::sort(samples_ms.begin(), samples_ms.end());
  os << "  \"latency_ms\": {\"p50\": " << F3(PercentileOfSorted(samples_ms, 0.50))
     << ", \"p90\": " << F3(PercentileOfSorted(samples_ms, 0.90))
     << ", \"p99\": " << F3(PercentileOfSorted(samples_ms, 0.99))
     << ", \"max\": " << F3(PercentileOfSorted(samples_ms, 1.0)) << "},\n";
}

double ExponentialGapMs(Drbg* rng, double mean_ms) {
  const double u = (static_cast<double>(rng->UniformUint64(1ULL << 30)) + 1.0) /
                   static_cast<double>(1ULL << 30);
  return -mean_ms * std::log(u);
}

}  // namespace sim
}  // namespace flicker
