// Client-side health tracking for a farm of attestation verifiers.
//
// Gray failures are the verifier tier's signature pathology: a worker that
// is not down - it still accepts frames - but answers 10x slower than its
// peers, so naive round-robin turns one slow node into head-of-line
// blocking for 1/N of the fleet. Nothing in the response says "slow"; the
// only signal is comparative latency. This tracker owns that signal:
//
//   * a pooled ring of recent ack round-trip samples yields the p95 the
//     hedge delay derives from ("fire a second copy once this request has
//     taken longer than 95% of recent successes"),
//   * per-verifier consecutive-miss counts drive a circuit breaker: after
//     `breaker_threshold` hedge-detected misses the verifier is skipped
//     outright for `breaker_cooldown_ms`, then a single half-open probe
//     either re-closes the breaker (and records the MTTR sample) or
//     re-opens it for another cooldown,
//   * per-verifier outstanding-request depth doubles as farm-side admission
//     control: when every candidate sits at the depth cap the farm sheds
//     with a distinct kOverloaded verdict instead of queueing unboundedly.
//
// Pure logic, no I/O, deterministic: the tracker never reads a clock - all
// times arrive as arguments in simulated milliseconds - so the fleet
// harness and unit tests drive it bit-exactly.

#ifndef FLICKER_SRC_ATTEST_VERIFIER_HEALTH_H_
#define FLICKER_SRC_ATTEST_VERIFIER_HEALTH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flicker {

struct VerifierHealthConfig {
  int num_verifiers = 1;
  // Hedge delay = clamp(p95 of pooled ack samples, min, max); before
  // `min_samples` acks have been pooled the default applies.
  double hedge_default_ms = 200.0;
  double hedge_min_ms = 10.0;
  double hedge_max_ms = 2000.0;
  int min_samples = 8;
  // Breaker: consecutive misses to open, cooldown before the half-open probe.
  int breaker_threshold = 3;
  double breaker_cooldown_ms = 2000.0;
  // Admission control: max outstanding requests per verifier; 0 disables
  // shedding (legacy unbounded queueing).
  int max_outstanding = 0;
  size_t latency_window = 128;  // Pooled ack-sample ring capacity.
};

class VerifierHealthTracker {
 public:
  explicit VerifierHealthTracker(const VerifierHealthConfig& config);

  // ---- Selection ----
  //
  // Next verifier for a fresh request: round-robin over verifiers whose
  // breaker admits traffic at `now_ms` (closed, or open-and-cooled-down
  // enough to probe), skipping `exclude` (the hedge must not re-pick the
  // verifier it is hedging against; pass -1 for none). Falls back to plain
  // round-robin when every breaker is open - a fully-broken farm still
  // gets probe traffic, otherwise no breaker could ever close again.
  int PickVerifier(double now_ms, int exclude);

  // True when `verifier` is at or over the outstanding-request cap (never
  // true when max_outstanding == 0).
  bool ShouldShed(int verifier) const;

  // ---- Signals from the wire ----
  void OnDispatch(int verifier);  // Request handed to the verifier.
  // Well-formed answer observed after `latency_ms`. Only an answer at
  // healthy speed (within 2x the current hedge delay) counts as evidence of
  // health: it clears the miss streak, closes an open breaker (recording
  // MTTR relative to when it opened) and pools the sample. A slower answer
  // is the gray-failure signature and changes nothing - a half-open probe
  // answered at gray speed restarts the cooldown instead of re-closing.
  void OnSuccess(int verifier, double latency_ms, double now_ms);
  // Hedge fired / timeout expired against the verifier: one consecutive
  // miss; opens the breaker at the configured threshold.
  void OnMiss(int verifier, double now_ms);
  // Response abandoned without an answer (round resolved elsewhere or timed
  // out); only releases the outstanding slot.
  void OnAbandoned(int verifier);

  // ---- Derived views ----
  double HedgeDelayMs() const;  // p95-derived, clamped; default until warm.
  int outstanding(int verifier) const { return state_[verifier].outstanding; }
  uint64_t breaker_trips() const { return breaker_trips_; }
  const std::vector<double>& mttr_samples_ms() const { return mttr_samples_ms_; }

 private:
  struct VerifierState {
    int outstanding = 0;
    int consecutive_misses = 0;
    bool open = false;
    double opened_at_ms = 0;
    double last_probe_ms = 0;
  };

  bool AdmitsTraffic(const VerifierState& s, double now_ms) const;

  VerifierHealthConfig config_;
  std::vector<VerifierState> state_;
  std::vector<double> latency_ring_;
  size_t ring_next_ = 0;
  bool ring_full_ = false;
  int rr_next_ = 0;
  uint64_t breaker_trips_ = 0;
  std::vector<double> mttr_samples_ms_;
};

}  // namespace flicker

#endif  // FLICKER_SRC_ATTEST_VERIFIER_HEALTH_H_
