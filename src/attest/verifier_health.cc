#include "src/attest/verifier_health.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace flicker {

VerifierHealthTracker::VerifierHealthTracker(const VerifierHealthConfig& config)
    : config_(config), state_(static_cast<size_t>(config.num_verifiers)) {
  latency_ring_.reserve(config_.latency_window);
}

bool VerifierHealthTracker::AdmitsTraffic(const VerifierState& s, double now_ms) const {
  if (!s.open) {
    return true;
  }
  // Half-open: after the cooldown one probe per cooldown window may pass.
  return now_ms - s.opened_at_ms >= config_.breaker_cooldown_ms &&
         (s.last_probe_ms < s.opened_at_ms ||
          now_ms - s.last_probe_ms >= config_.breaker_cooldown_ms);
}

int VerifierHealthTracker::PickVerifier(double now_ms, int exclude) {
  const int n = config_.num_verifiers;
  for (int scanned = 0; scanned < n; ++scanned) {
    int candidate = rr_next_;
    rr_next_ = (rr_next_ + 1) % n;
    if (candidate == exclude) {
      continue;
    }
    VerifierState& s = state_[candidate];
    if (!AdmitsTraffic(s, now_ms)) {
      continue;
    }
    if (s.open) {
      s.last_probe_ms = now_ms;  // This request is the half-open probe.
    }
    return candidate;
  }
  // Every breaker open (or only the excluded verifier admits): plain
  // round-robin so the farm keeps receiving probe traffic.
  int candidate = rr_next_;
  rr_next_ = (rr_next_ + 1) % n;
  if (candidate == exclude && n > 1) {
    candidate = rr_next_;
    rr_next_ = (rr_next_ + 1) % n;
  }
  state_[candidate].last_probe_ms = now_ms;
  return candidate;
}

bool VerifierHealthTracker::ShouldShed(int verifier) const {
  return config_.max_outstanding > 0 &&
         state_[verifier].outstanding >= config_.max_outstanding;
}

void VerifierHealthTracker::OnDispatch(int verifier) { ++state_[verifier].outstanding; }

void VerifierHealthTracker::OnSuccess(int verifier, double latency_ms, double now_ms) {
  VerifierState& s = state_[verifier];
  s.outstanding = std::max(0, s.outstanding - 1);
  // The gray-failure trap: a slow verifier still ANSWERS, so a naive
  // breaker re-closes on every late success and the oscillation keeps
  // feeding it traffic. An answer is only evidence of health when it
  // arrives at healthy speed - within a small multiple of the current
  // hedge delay. Slower answers leave the breaker state untouched (a
  // half-open probe answered at gray speed stays open) and stay out of
  // the latency pool, which would otherwise drag the p95 hedge delay up
  // toward the gray latency and disarm hedging entirely.
  const bool healthy_speed = latency_ms <= 2.0 * HedgeDelayMs();
  if (!healthy_speed) {
    if (s.open) {
      s.opened_at_ms = now_ms;  // Probe answered, but gray: restart cooldown.
    }
    return;
  }
  s.consecutive_misses = 0;
  if (s.open) {
    s.open = false;
    double mttr_ms = now_ms - s.opened_at_ms;
    mttr_samples_ms_.push_back(mttr_ms);
    obs::ObserveMs(obs::Hist::kFleetVerifierMttrMs, mttr_ms);
  }
  if (latency_ring_.size() < config_.latency_window) {
    latency_ring_.push_back(latency_ms);
  } else {
    latency_ring_[ring_next_] = latency_ms;
    ring_full_ = true;
  }
  ring_next_ = (ring_next_ + 1) % config_.latency_window;
}

void VerifierHealthTracker::OnMiss(int verifier, double now_ms) {
  VerifierState& s = state_[verifier];
  s.outstanding = std::max(0, s.outstanding - 1);
  if (s.open) {
    // The half-open probe missed: restart the cooldown from here.
    s.opened_at_ms = now_ms;
    return;
  }
  if (++s.consecutive_misses >= config_.breaker_threshold) {
    s.open = true;
    s.opened_at_ms = now_ms;
    s.last_probe_ms = 0;
    s.consecutive_misses = 0;
    ++breaker_trips_;
    obs::Count(obs::Ctr::kFleetVerifierBreakerTrips);
  }
}

void VerifierHealthTracker::OnAbandoned(int verifier) {
  VerifierState& s = state_[verifier];
  s.outstanding = std::max(0, s.outstanding - 1);
}

double VerifierHealthTracker::HedgeDelayMs() const {
  size_t count = latency_ring_.size();
  if (count < static_cast<size_t>(config_.min_samples)) {
    return config_.hedge_default_ms;
  }
  std::vector<double> sorted(latency_ring_.begin(), latency_ring_.begin() + count);
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank p95: 1-based rank round(0.95 * n). This is not the
  // campaign percentile (src/sim/campaign.h, index round(p * (n - 1))): the
  // two pick different samples when n ≡ 11 (mod 20). The hedge delay is a
  // control input, so switching formulas would move every hedged fleet run;
  // it stays as is.
  size_t rank = static_cast<size_t>(0.95 * static_cast<double>(count) + 0.5);
  rank = std::min(std::max<size_t>(rank, 1), count);
  double p95 = sorted[rank - 1];
  return std::min(std::max(p95, config_.hedge_min_ms), config_.hedge_max_ms);
}

}  // namespace flicker
