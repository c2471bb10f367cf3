#include "src/vtpm/vtpm_mux.h"

#include <utility>

#include "src/crypto/sha1.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {
namespace vtpm {

namespace {

// Per-tenant hardware retry budget, passed through to the quote daemon.
constexpr double kTenantDeadlineMs = 8000.0;

}  // namespace

VtpmMultiplexer::VtpmMultiplexer(VtpmManager* manager, TpmQuoteDaemon* tqd,
                                 VtpmMuxConfig /*config*/)
    : manager_(manager), tqd_(tqd) {}

uint64_t VtpmMultiplexer::NowMicros() const {
  return manager_->machine()->clock()->NowMicros();
}

Bytes VtpmMultiplexer::BoundNonce(const Bytes& tenant_tag, const Bytes& composite,
                                  const Bytes& nonce) {
  Sha1 hash;
  hash.Update(BytesOf("vtpm-quote"));
  hash.Update(tenant_tag);
  hash.Update(composite);
  hash.Update(nonce);
  return hash.Finish();
}

bool VtpmMultiplexer::TenantBreakerOpen(const std::string& tenant) const {
  auto it = lanes_.find(tenant);
  return it != lanes_.end() && it->second.breaker_open;
}

bool VtpmMultiplexer::LaneAllows(TenantLane* lane) {
  if (!lane->breaker_open) {
    return true;
  }
  double open_ms =
      static_cast<double>(NowMicros() - lane->breaker_opened_at_us) / 1000.0;
  if (open_ms < kBreakerCooldownMs) {
    return false;
  }
  // Half-open: let traffic probe again; the next failure re-opens with a
  // fresh cooldown, so a still-sick tenant stays rate-limited.
  lane->breaker_open = false;
  lane->consecutive_failures = 0;
  lane->overflow_streak = 0;
  return true;
}

void VtpmMultiplexer::OpenBreaker(const std::string& tenant, TenantLane* lane) {
  if (lane->breaker_open) {
    return;
  }
  lane->breaker_open = true;
  lane->breaker_opened_at_us = NowMicros();
  ++quarantines_total_;
  ++counters_[tenant].breaker_trips;
  obs::Count(obs::Ctr::kVtpmQuarantines);
  obs::Instant("vtpm", "vtpm.breaker_open");
}

void VtpmMultiplexer::NoteFailure(const std::string& tenant, TenantLane* lane) {
  ++lane->consecutive_failures;
  if (lane->consecutive_failures >= kBreakerThreshold) {
    OpenBreaker(tenant, lane);
  }
}

void VtpmMultiplexer::Complete(VtpmQuoteCompletion completion) {
  VtpmTenantCounters& counters = counters_[completion.tenant];
  if (completion.status.ok()) {
    ++counters.completed;
    obs::Count(obs::Ctr::kVtpmQuotes);
  } else if (completion.status.code() == StatusCode::kUnavailable) {
    ++counters.shed;
  } else {
    ++counters.failed;
  }
  if (completion.queue_age_ms > counters.max_queue_age_ms) {
    counters.max_queue_age_ms = completion.queue_age_ms;
  }
  obs::ObserveMs(obs::Hist::kVtpmQueueAgeMs, completion.queue_age_ms);
  if (sink_) {
    sink_(completion);
  }
}

void VtpmMultiplexer::Shed(const std::string& tenant, const PendingRequest& request,
                           double queue_age_ms, const std::string& why) {
  ++shed_total_;
  obs::Count(obs::Ctr::kVtpmShed);
  VtpmQuoteCompletion completion;
  completion.tenant = tenant;
  completion.nonce = request.nonce;
  completion.status = UnavailableError("vtpm request shed: " + why);
  completion.queue_age_ms = queue_age_ms;
  Complete(std::move(completion));
}

Status VtpmMultiplexer::Submit(const std::string& tenant, const Bytes& nonce,
                               const Bytes& owner_auth) {
  TenantLane& lane = lanes_[tenant];
  ++counters_[tenant].submitted;
  if (!LaneAllows(&lane)) {
    ++shed_total_;
    ++counters_[tenant].shed;
    obs::Count(obs::Ctr::kVtpmShed);
    return UnavailableError("tenant breaker open: " + tenant);
  }
  if (lane.queue.size() >= kMaxQueuePerTenant) {
    ++shed_total_;
    ++counters_[tenant].shed;
    obs::Count(obs::Ctr::kVtpmShed);
    // Sustained overflow is the flooding signature: quarantine the lane so
    // the flood degrades to shed-at-submit.
    if (++lane.overflow_streak >= kFloodThreshold) {
      OpenBreaker(tenant, &lane);
    }
    return UnavailableError("tenant queue full: " + tenant);
  }
  lane.overflow_streak = 0;
  PendingRequest request;
  request.nonce = nonce;
  request.owner_auth = owner_auth;
  request.enqueued_at_us = NowMicros();
  lane.queue.push_back(std::move(request));
  return Status::Ok();
}

bool VtpmMultiplexer::HasPending() const {
  for (const auto& [tenant, lane] : lanes_) {
    if (!lane.queue.empty()) {
      return true;
    }
  }
  return false;
}

size_t VtpmMultiplexer::pending_count() const {
  size_t total = 0;
  for (const auto& [tenant, lane] : lanes_) {
    total += lane.queue.size();
  }
  return total;
}

void VtpmMultiplexer::DispatchOne(const std::string& tenant, TenantLane* lane) {
  obs::ScopedSpan span("vtpm", "vtpm.dispatch");
  PendingRequest request = std::move(lane->queue.front());
  lane->queue.pop_front();
  const double queue_age_ms =
      static_cast<double>(NowMicros() - request.enqueued_at_us) / 1000.0;

  if (!LaneAllows(lane)) {
    Shed(tenant, request, queue_age_ms, "breaker opened while queued");
    return;
  }
  if (queue_age_ms > kMaxQueueAgeMs) {
    // The challenger has long since timed out; don't burn a hardware turn.
    Shed(tenant, request, queue_age_ms, "deadline exceeded in queue");
    return;
  }

  VtpmQuoteCompletion completion;
  completion.tenant = tenant;
  completion.nonce = request.nonce;
  completion.queue_age_ms = queue_age_ms;

  Result<VirtualTpm*> vt = manager_->ResidentTenant(tenant);
  if (!vt.ok()) {
    completion.status = vt.status();
    NoteFailure(tenant, lane);
    Complete(std::move(completion));
    return;
  }
  if (!vt.value()->CheckOwnerAuth(request.owner_auth)) {
    completion.status = PermissionDeniedError("tenant owner auth mismatch: " + tenant);
    NoteFailure(tenant, lane);
    Complete(std::move(completion));
    return;
  }

  completion.composite = vt.value()->CompositeDigest();
  completion.bound_nonce =
      BoundNonce(TenantTag(tenant), completion.composite, request.nonce);
  Result<AttestationResponse> response = tqd_->HandleChallenge(
      completion.bound_nonce, PcrSelection({kSkinitPcr}), kTenantDeadlineMs);
  if (!response.ok()) {
    completion.status = response.status();
    NoteFailure(tenant, lane);
    Complete(std::move(completion));
    return;
  }
  lane->consecutive_failures = 0;
  completion.status = Status::Ok();
  completion.response = response.take();
  Complete(std::move(completion));
}

bool VtpmMultiplexer::PumpOne() {
  if (lanes_.empty()) {
    return false;
  }
  // Round-robin: resume just past the cursor, wrapping once.
  auto start = lanes_.upper_bound(cursor_);
  for (size_t step = 0; step < lanes_.size(); ++step) {
    if (start == lanes_.end()) {
      start = lanes_.begin();
    }
    if (!start->second.queue.empty()) {
      cursor_ = start->first;
      DispatchOne(start->first, &start->second);
      return true;
    }
    ++start;
  }
  return false;
}

void VtpmMultiplexer::PumpAll() {
  while (PumpOne()) {
  }
}

void VtpmMultiplexer::OnPowerLoss() {
  for (auto& [tenant, lane] : lanes_) {
    lane.queue.clear();
    // Breaker state is RAM too; a rebooted multiplexer starts every tenant
    // closed and re-learns the faulty ones.
    lane.breaker_open = false;
    lane.consecutive_failures = 0;
    lane.overflow_streak = 0;
  }
}

}  // namespace vtpm
}  // namespace flicker
