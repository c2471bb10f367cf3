// Shared retry/backoff policy.
//
// Every layer that retries over an unreliable medium (the tqd against a
// lossy TPM transport, a network session against a lossy channel) needs the
// same shape: capped exponential backoff with optional deterministic jitter.
// Hand-rolled copies drift apart - one caps, one doesn't, one jitters with
// wall-clock randomness that breaks replayability - so the policy lives here
// once and both layers instantiate it.
//
// Jitter is deterministic (splitmix64 over seed x retry index): two
// schedules built from the same policy and seed emit identical delays, so a
// failing seed in a chaos campaign replays bit-exact.

#ifndef FLICKER_SRC_COMMON_BACKOFF_H_
#define FLICKER_SRC_COMMON_BACKOFF_H_

#include <cstdint>

namespace flicker {

struct BackoffPolicy {
  double initial_ms = 2.0;     // Delay before the first retry.
  double multiplier = 2.0;     // Growth factor per retry.
  double max_ms = 0;           // Cap on a single delay; 0 = uncapped.
  // Fraction of each delay randomized away: delay *= 1 - jitter * u with
  // u in [0, 1). 0 keeps the schedule exact (the tqd's pinned 2/4/8 ms).
  double jitter_fraction = 0;
  // Full jitter (AWS style): each delay is drawn uniformly from
  // [0, capped exponential delay) instead of shaving a fraction off the
  // exponential value. Decorrelates retry storms - a fleet of clients that
  // all saw the same overload signal spread their resends across the whole
  // window instead of returning in lockstep. Overrides jitter_fraction.
  // Still deterministic: the draw is splitmix64 over seed x retry index.
  bool full_jitter = false;
};

// Iterates a policy's delays. Not thread-safe; one schedule per operation.
class BackoffSchedule {
 public:
  explicit BackoffSchedule(const BackoffPolicy& policy, uint64_t jitter_seed = 0)
      : policy_(policy), jitter_seed_(jitter_seed) {}

  // Delay (simulated ms) to wait before the next retry; ratchets the
  // schedule forward. The first call returns ~initial_ms.
  double NextDelayMs();

  void Reset() { retries_ = 0; }

 private:
  double DelayForRetry(int retry) const;

  BackoffPolicy policy_;
  uint64_t jitter_seed_;
  int retries_ = 0;
};

}  // namespace flicker

#endif  // FLICKER_SRC_COMMON_BACKOFF_H_
