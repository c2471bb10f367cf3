#include "src/common/backoff.h"

#include "src/common/splitmix64.h"

namespace flicker {

double BackoffSchedule::DelayForRetry(int retry) const {
  double delay = policy_.initial_ms;
  for (int i = 0; i < retry; ++i) {
    delay *= policy_.multiplier;
    if (policy_.max_ms > 0 && delay >= policy_.max_ms) {
      delay = policy_.max_ms;
      break;
    }
  }
  if (policy_.max_ms > 0 && delay > policy_.max_ms) {
    delay = policy_.max_ms;
  }
  if (policy_.full_jitter) {
    uint64_t draw = SplitMix64(jitter_seed_ ^ (0x6a697466ULL + static_cast<uint64_t>(retry)));
    double u = static_cast<double>(draw % 10000) / 10000.0;  // [0, 1).
    delay *= u;
  } else if (policy_.jitter_fraction > 0) {
    uint64_t draw = SplitMix64(jitter_seed_ ^ (0x6e65744aULL + static_cast<uint64_t>(retry)));
    double u = static_cast<double>(draw % 10000) / 10000.0;  // [0, 1).
    delay *= 1.0 - policy_.jitter_fraction * u;
  }
  return delay;
}

double BackoffSchedule::NextDelayMs() { return DelayForRetry(retries_++); }

}  // namespace flicker
