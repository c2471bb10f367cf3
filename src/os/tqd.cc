#include "src/os/tqd.h"

#include <algorithm>

#include "src/common/backoff.h"
#include "src/common/fault.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flicker {

namespace {

// One initial try plus up to three retries, waiting 2/4/8 ms between them
// (BackoffPolicy's defaults).
constexpr int kMaxAttempts = 4;

uint64_t MsToNs(double ms) { return static_cast<uint64_t>(ms * 1e6 + 0.5); }

}  // namespace

Result<AttestationResponse> TpmQuoteDaemon::QuoteOnce(const Bytes& nonce,
                                                      const PcrSelection& selection) {
  Result<TpmQuote> quote = machine_->tpm()->Quote(nonce, selection);
  if (!quote.ok()) {
    return quote.status();
  }
  AttestationResponse response;
  response.quote = quote.take();
  response.aik_public = machine_->tpm()->aik_public().Serialize();
  return response;
}

void TpmQuoteDaemon::NoteTpmFailure() {
  ++consecutive_tpm_failures_;
  if (!breaker_open_ && consecutive_tpm_failures_ >= kBreakerThreshold) {
    breaker_open_ = true;
    breaker_opened_at_us_ = machine_->clock()->NowMicros();
    obs::Count(obs::Ctr::kTqdBreakerTrips);
    obs::Instant("tqd", "tqd.breaker_open");
    ArmBreakerProbe();
  }
}

bool TpmQuoteDaemon::BreakerAllows() {
  if (!breaker_open_) {
    return true;
  }
  double open_ms = static_cast<double>(machine_->clock()->NowMicros() - breaker_opened_at_us_) /
                   1000.0;
  if (open_ms < kBreakerCooldownMs) {
    return false;
  }
  // Half-open probe: GetTestResult is accepted even in failure mode, so it
  // is the cheapest way to ask whether the device self-tests clean now.
  Result<uint32_t> probe = machine_->tpm()->GetTestResult();
  if (probe.ok() && probe.value() == kTpmTestPassed) {
    breaker_open_ = false;
    consecutive_tpm_failures_ = 0;
    return true;
  }
  // Still sick: restart the cooldown so probes stay rate-limited.
  breaker_opened_at_us_ = machine_->clock()->NowMicros();
  return false;
}

// Bounded retry with exponential backoff on transient transport faults.
// The quote is a single TPM_ORD_Quote frame, so one lost frame costs one
// retry; anything other than kUnavailable is a real TPM verdict. kTpmFailed
// verdicts feed the circuit breaker (the caller reacts to breaker_open_);
// other errors surface immediately.
Result<AttestationResponse> TpmQuoteDaemon::QuoteWithRetry(const Bytes& nonce,
                                                           const PcrSelection& selection,
                                                           double deadline_ms) {
  const uint64_t challenge_start_us = machine_->clock()->NowMicros();
  BackoffSchedule backoff(BackoffPolicy{});
  Status last_failure = UnavailableError("quote never attempted");
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt > 0) {
      if (deadline_ms > 0) {
        double elapsed_ms =
            static_cast<double>(machine_->clock()->NowMicros() - challenge_start_us) / 1000.0;
        if (elapsed_ms + backoff.PeekDelayMs() > deadline_ms) {
          return Status(StatusCode::kUnavailable,
                        "quote retry deadline exceeded: " + last_failure.message());
        }
      }
      machine_->clock()->AdvanceMillis(backoff.NextDelayMs());
      ++retries_;
      obs::Count(obs::Ctr::kTqdRetries);
    }
    Result<AttestationResponse> response = QuoteOnce(nonce, selection);
    if (response.ok()) {
      consecutive_tpm_failures_ = 0;
      return response;
    }
    if (response.status().code() == StatusCode::kTpmFailed) {
      NoteTpmFailure();
      return response.status();
    }
    if (response.status().code() != StatusCode::kUnavailable) {
      return response.status();
    }
    last_failure = response.status();
  }
  return Status(StatusCode::kUnavailable,
                "quote retry budget exhausted: " + last_failure.message());
}

Result<AttestationResponse> TpmQuoteDaemon::HandleChallenge(const Bytes& nonce,
                                                            const PcrSelection& selection,
                                                            double deadline_ms) {
  obs::ScopedSpan quote_span("tqd", "tqd.quote");
  if (machine_->in_secure_session()) {
    return FailedPreconditionError("OS suspended: quote daemon not running");
  }
  if (!BreakerAllows()) {
    queued_.push_back(QueuedChallenge{nonce, selection});
    obs::Count(obs::Ctr::kTqdChallengesQueued);
    return TpmFailedError("TPM circuit breaker open; challenge queued");
  }

  Result<AttestationResponse> response = QuoteWithRetry(nonce, selection, deadline_ms);
  if (!response.ok() && response.status().code() == StatusCode::kTpmFailed && breaker_open_) {
    queued_.push_back(QueuedChallenge{nonce, selection});
    obs::Count(obs::Ctr::kTqdChallengesQueued);
    return TpmFailedError("TPM entered failure mode; challenge queued");
  }
  return response;
}

Status TpmQuoteDaemon::SubmitBatched(const Bytes& nonce, const PcrSelection& selection) {
  if (machine_->in_secure_session()) {
    return FailedPreconditionError("OS suspended: quote daemon not running");
  }
  size_t index = batches_.size();
  for (size_t i = 0; i < batches_.size(); ++i) {
    if (batches_[i].selection.mask() == selection.mask()) {
      index = i;
      break;
    }
  }
  if (index == batches_.size()) {
    PendingBatch batch;
    batch.selection = selection;
    batch.opened_at_us = machine_->clock()->NowMicros();
    batches_.push_back(std::move(batch));
  }
  batches_[index].nonces.push_back(nonce);
  if (timers_bound()) {
    if (BatchIsReady(batches_[index])) {
      // Full (or degenerate single-challenge) window: nothing to wait for.
      CancelBatchTimer(&batches_[index]);
      FlushToSink();
    } else if (!batches_[index].timer_live) {
      ArmBatchTimer(&batches_[index]);
    }
  }
  return Status::Ok();
}

bool TpmQuoteDaemon::BatchIsReady(const PendingBatch& batch) const {
  if (max_batch_size_ <= 1 || batch.nonces.size() >= max_batch_size_) {
    return true;
  }
  double age_ms =
      static_cast<double>(machine_->clock()->NowMicros() - batch.opened_at_us) / 1000.0;
  return age_ms >= kMaxBatchWaitMs;
}

bool TpmQuoteDaemon::BatchReady() const {
  return std::any_of(batches_.begin(), batches_.end(),
                     [this](const PendingBatch& batch) { return BatchIsReady(batch); });
}

size_t TpmQuoteDaemon::batched_pending() const {
  size_t total = 0;
  for (const PendingBatch& batch : batches_) {
    total += batch.nonces.size();
  }
  return total;
}

Status TpmQuoteDaemon::FlushOneBatch(PendingBatch&& batch,
                                     std::vector<BatchQuoteResponse>* responses) {
  obs::ScopedSpan flush_span("tqd", "tqd.batch_quote");
  double wait_ms =
      static_cast<double>(machine_->clock()->NowMicros() - batch.opened_at_us) / 1000.0;

  Result<MerkleTree> tree = MerkleTree::Build(batch.nonces);
  if (!tree.ok()) {
    return tree.status();
  }
  // A power cut here loses only unanswered challenges: the challengers time
  // out and re-issue, and no TPM or sealed state has been touched yet.
  CRASH_POINT("tqd.batch_flush");
  Result<AttestationResponse> quoted = QuoteWithRetry(tree.value().root(), batch.selection);
  if (!quoted.ok()) {
    batches_.push_back(std::move(batch));  // Keep the window; nothing is lost.
    // Discrete-event mode: the kept window's timer was cancelled when it
    // was selected for flushing; put it back on the retry cadence.
    ArmBatchTimer(&batches_.back());
    return quoted.status();
  }
  for (size_t i = 0; i < batch.nonces.size(); ++i) {
    BatchQuoteResponse response;
    response.nonce = batch.nonces[i];
    response.response = quoted.value();
    response.path = tree.value().PathFor(i);
    responses->push_back(std::move(response));
  }
  ++batch_quotes_;
  obs::Count(obs::Ctr::kTqdBatchQuotes);
  obs::Count(obs::Ctr::kTqdBatchedChallenges, batch.nonces.size());
  obs::ObserveMs(obs::Hist::kTqdBatchSize, static_cast<double>(batch.nonces.size()));
  obs::ObserveMs(obs::Hist::kTqdCoalesceWaitMs, wait_ms);
  return Status::Ok();
}

Status TpmQuoteDaemon::FlushReadyBatches(std::vector<BatchQuoteResponse>* responses, bool force) {
  if (machine_->in_secure_session()) {
    return FailedPreconditionError("OS suspended: quote daemon not running");
  }
  if (!BreakerAllows()) {
    // Windows simply stay open; unlike single challenges there is no
    // separate queue to move them to.
    return TpmFailedError("TPM circuit breaker open; batches held");
  }
  std::vector<PendingBatch> ready;
  for (size_t i = 0; i < batches_.size();) {
    if ((force && !batches_[i].nonces.empty()) || BatchIsReady(batches_[i])) {
      CancelBatchTimer(&batches_[i]);
      ready.push_back(std::move(batches_[i]));
      batches_.erase(batches_.begin() + static_cast<long>(i));
    } else {
      ++i;
    }
  }
  Status first_failure = Status::Ok();
  for (PendingBatch& batch : ready) {
    Status flushed = FlushOneBatch(std::move(batch), responses);
    if (!flushed.ok() && first_failure.ok()) {
      first_failure = flushed;
    }
  }
  return first_failure;
}

Status TpmQuoteDaemon::DrainQueued(std::vector<AttestationResponse>* responses) {
  if (!BreakerAllows()) {
    return TpmFailedError("TPM circuit breaker still open");
  }
  std::vector<QueuedChallenge> pending;
  pending.swap(queued_);
  for (size_t i = 0; i < pending.size(); ++i) {
    Result<AttestationResponse> response = QuoteOnce(pending[i].nonce, pending[i].selection);
    if (!response.ok()) {
      if (response.status().code() == StatusCode::kTpmFailed) {
        NoteTpmFailure();
      }
      // Put this and everything after it back, preserving order.
      queued_.insert(queued_.begin(), pending.begin() + static_cast<long>(i), pending.end());
      return response.status();
    }
    responses->push_back(response.take());
  }
  return Status::Ok();
}

// ---- Discrete-event mode ----

void TpmQuoteDaemon::BindTimers(TimerHost host,
                                std::function<void(std::vector<BatchQuoteResponse>)> batch_sink,
                                std::function<void(std::vector<AttestationResponse>)> drain_sink) {
  timer_host_ = std::move(host);
  batch_sink_ = std::move(batch_sink);
  drain_sink_ = std::move(drain_sink);
}

void TpmQuoteDaemon::ArmBatchTimer(PendingBatch* batch) {
  if (!timers_bound()) {
    return;
  }
  const uint64_t token = ++next_timer_token_;
  batch->timer_token = token;
  batch->timer_id =
      timer_host_.schedule(MsToNs(kMaxBatchWaitMs), [this, token] { OnBatchTimer(token); });
  batch->timer_live = true;
}

void TpmQuoteDaemon::CancelBatchTimer(PendingBatch* batch) {
  if (batch->timer_live && timer_host_.cancel) {
    timer_host_.cancel(batch->timer_id);
  }
  batch->timer_live = false;
}

void TpmQuoteDaemon::FlushToSink() {
  std::vector<BatchQuoteResponse> responses;
  // Failure verdicts are not lost: a window whose quote failed was re-queued
  // with a fresh retry timer, and breaker/suspended verdicts leave windows
  // (and their timers, minus the one that fired) intact.
  Status st = FlushReadyBatches(&responses);
  (void)st;
  if (!responses.empty() && batch_sink_) {
    batch_sink_(std::move(responses));
  }
}

void TpmQuoteDaemon::OnBatchTimer(uint64_t token) {
  for (PendingBatch& batch : batches_) {
    if (batch.timer_token == token) {
      batch.timer_live = false;  // This timer just fired; its id is spent.
      break;
    }
  }
  FlushToSink();
  // A window that could not flush (OS suspended, breaker open) is still here
  // with no live timer; keep it on the flush cadence rather than stranding
  // its challenges until the next submit.
  for (size_t i = 0; i < batches_.size(); ++i) {
    if (batches_[i].timer_token == token && !batches_[i].timer_live) {
      ArmBatchTimer(&batches_[i]);
      break;
    }
  }
}

void TpmQuoteDaemon::ArmBreakerProbe() {
  if (!timers_bound() || breaker_probe_armed_) {
    return;
  }
  breaker_probe_armed_ = true;
  breaker_probe_id_ =
      timer_host_.schedule(MsToNs(kBreakerCooldownMs), [this] { OnBreakerProbe(); });
}

void TpmQuoteDaemon::OnBreakerProbe() {
  breaker_probe_armed_ = false;
  if (!BreakerAllows()) {
    // Still sick: BreakerAllows restarted the cooldown; probe again then.
    ArmBreakerProbe();
    return;
  }
  std::vector<AttestationResponse> drained;
  Status st = DrainQueued(&drained);
  (void)st;
  if (!drained.empty() && drain_sink_) {
    drain_sink_(std::move(drained));
  }
  if (!queued_.empty()) {
    // The drain died partway (the breaker may have re-opened and armed its
    // own probe via NoteTpmFailure); make sure someone retries.
    ArmBreakerProbe();
  }
  if (BatchReady()) {
    FlushToSink();
  }
}

void TpmQuoteDaemon::OnPowerLoss() {
  // The daemon is a userspace process: windows, queue and timers all lived
  // in RAM. Challengers whose nonces die here simply time out and re-issue.
  for (PendingBatch& batch : batches_) {
    CancelBatchTimer(&batch);
  }
  batches_.clear();
  queued_.clear();
  if (breaker_probe_armed_ && timer_host_.cancel) {
    timer_host_.cancel(breaker_probe_id_);
  }
  breaker_probe_armed_ = false;
  breaker_open_ = false;
  consecutive_tpm_failures_ = 0;
}

}  // namespace flicker
