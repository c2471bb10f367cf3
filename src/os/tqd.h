// The TPM Quote Daemon (tqd): the userspace attestation service the paper
// runs on the untrusted OS on top of the TrouSerS TCG software stack (§6).
//
// The daemon itself is untrusted: it merely relays nonces to the TPM and
// quotes back to challengers. Security comes from the TPM's signature.
//
// The TPM sits behind a transport that can lose or delay frames, so the
// daemon retries transient (kUnavailable) quote failures with exponential
// backoff, charging the waiting time to the simulated clock like any real
// driver timeout. Permanent errors are returned immediately.
//
// A TPM that enters failure mode (kTpmFailed) trips a circuit breaker: the
// daemon stops hammering the device, queues incoming challenges, and probes
// with TPM_GetTestResult after a cooldown; once the device self-tests clean
// again the queue can be drained. The retry loop also respects a total
// simulated-clock deadline so a dead transport cannot stall a challenge
// forever.

#ifndef FLICKER_SRC_OS_TQD_H_
#define FLICKER_SRC_OS_TQD_H_

#include <functional>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/merkle.h"
#include "src/hw/machine.h"
#include "src/tpm/structures.h"

namespace flicker {

struct AttestationResponse {
  TpmQuote quote;
  // The AIK public key, shipped alongside (its certificate chain is checked
  // by the verifier against the Privacy CA).
  Bytes aik_public;
};

// One challenger's slice of a Merkle-aggregated batch quote: the shared
// quote (whose externalData nonce is the batch's Merkle root) plus the
// authentication path tying this challenger's own nonce to that root. The
// challenger recomputes the root from its OWN nonce and the path, so a
// response carrying someone else's path - or a path from another batch -
// fails verification.
struct BatchQuoteResponse {
  Bytes nonce;  // The challenge nonce this slice answers.
  AttestationResponse response;
  MerkleAuthPath path;
};

class TpmQuoteDaemon {
 public:
  // Circuit breaker: consecutive kTpmFailed verdicts that open it, and how
  // long (simulated ms) it stays open before a half-open probe.
  static constexpr int kBreakerThreshold = 3;
  static constexpr double kBreakerCooldownMs = 500.0;
  // Batch coalescing window (SubmitBatched/FlushReadyBatches): a batch is
  // flushed once it holds max_batch_size challenges or its oldest challenge
  // has waited kMaxBatchWaitMs on the simulated clock, whichever comes
  // first. A max_batch_size <= 1 disables coalescing (every submit is ready
  // immediately, as a degenerate one-leaf batch). The fleet coalesces 8;
  // every other caller takes the default.
  static constexpr double kMaxBatchWaitMs = 10.0;
  static constexpr size_t kDefaultMaxBatchSize = 32;

  explicit TpmQuoteDaemon(Machine* machine, size_t max_batch_size = kDefaultMaxBatchSize)
      : machine_(machine), max_batch_size_(max_batch_size) {}

  // Handles a challenge: quote the selected PCRs over the verifier's nonce.
  // Fails while a Flicker session holds the platform (the OS, and hence the
  // daemon, is suspended). With the breaker open the challenge is queued and
  // kTpmFailed returned; DrainQueued() serves it once the TPM recovers.
  // `deadline_ms` is the watchdog: the total simulated-clock budget this
  // challenge may consume across all retries and backoff waits, checked
  // before each retry so the daemon never sleeps past it; 0 = unlimited.
  // The vTPM multiplexer charges each tenant its own deadline this way.
  Result<AttestationResponse> HandleChallenge(const Bytes& nonce, const PcrSelection& selection,
                                              double deadline_ms = 0);

  // Re-attempts every queued challenge (oldest first). Responses for the
  // ones that now succeed are appended to `responses`; the rest stay queued.
  Status DrainQueued(std::vector<AttestationResponse>* responses);

  // Batch coalescing: adds a challenge to the open window for its PCR
  // selection (windows never mix selections, so every challenge in a batch
  // shares the quote's composite). The challenge is answered by a later
  // FlushReadyBatches() call.
  Status SubmitBatched(const Bytes& nonce, const PcrSelection& selection);

  // True when some window is ready to flush: full, or its oldest challenge
  // has waited out kMaxBatchWaitMs.
  bool BatchReady() const;

  // Quotes every ready window (all non-empty windows when `force` is set):
  // the window's nonces become a leaf-sorted Merkle tree, ONE TPM quote is
  // issued over the root through the usual retry/breaker machinery, and one
  // BatchQuoteResponse per challenge is appended to `responses`. A window
  // whose quote fails stays pending - a power cut or breaker trip mid-flush
  // loses no challenges - and the first failure status is returned after the
  // remaining ready windows have been attempted.
  Status FlushReadyBatches(std::vector<BatchQuoteResponse>* responses, bool force = false);

  // ---- Discrete-event mode ----
  //
  // In the polled mode above, callers must keep asking BatchReady() /
  // DrainQueued(); nothing happens between calls. Under the fleet executor
  // the daemon instead owns its deadlines as real heap timers: opening a
  // coalescing window arms a flush timer for kMaxBatchWaitMs (a window
  // that fills first flushes inline and the timer is cancelled), and a
  // breaker trip arms a cooldown probe that drains the queue once the TPM
  // self-tests clean. Responses produced by timer-driven work go to the
  // sinks, since there is no caller on the stack to return them to.
  //
  // The host's schedule() must measure delay from the daemon machine's
  // local clock (ScheduleAfterLocal in fleet terms) and return an id its
  // cancel() accepts; cancelling an already-fired id must be a no-op.
  struct TimerHost {
    std::function<uint64_t(uint64_t delay_ns, std::function<void()> fn)> schedule;
    std::function<void(uint64_t id)> cancel;
  };
  void BindTimers(TimerHost host,
                  std::function<void(std::vector<BatchQuoteResponse>)> batch_sink,
                  std::function<void(std::vector<AttestationResponse>)> drain_sink);

  // Power-domain hook: the daemon is an untrusted userspace process, so a
  // power cut loses every open window and queued challenge (they lived in
  // RAM) and silences its armed timers. Challengers time out and re-issue -
  // exactly the paper's recovery story for lost challenges.
  void OnPowerLoss();

  // Transient failures absorbed by retries since construction.
  uint64_t retries() const { return retries_; }
  bool breaker_open() const { return breaker_open_; }
  size_t queued_count() const { return queued_.size(); }
  // Challenges sitting in open coalescing windows.
  size_t batched_pending() const;
  uint64_t batch_quotes() const { return batch_quotes_; }

 private:
  struct QueuedChallenge {
    Bytes nonce;
    PcrSelection selection;
  };

  // An open coalescing window: challenges sharing one PCR selection.
  struct PendingBatch {
    PcrSelection selection;
    std::vector<Bytes> nonces;
    uint64_t opened_at_us = 0;
    // Discrete-event mode: the armed flush timer, if any. `timer_token` is
    // the daemon's own label (host timer ids may be reused across hosts),
    // `timer_id` what the host's cancel() wants.
    uint64_t timer_token = 0;
    uint64_t timer_id = 0;
    bool timer_live = false;
  };

  Result<AttestationResponse> QuoteOnce(const Bytes& nonce, const PcrSelection& selection);
  // The shared bounded-retry/backoff/deadline loop around QuoteOnce. On
  // kTpmFailed the breaker has already been fed; the caller decides whether
  // to queue or keep the work.
  Result<AttestationResponse> QuoteWithRetry(const Bytes& nonce, const PcrSelection& selection,
                                             double deadline_ms = 0);
  bool BatchIsReady(const PendingBatch& batch) const;
  Status FlushOneBatch(PendingBatch&& batch, std::vector<BatchQuoteResponse>* responses);
  void NoteTpmFailure();
  // True when the breaker may pass traffic again (closed, or cooldown over
  // and the half-open GetTestResult probe came back clean).
  bool BreakerAllows();
  // Discrete-event mode internals: arm one window's kMaxBatchWaitMs flush
  // timer, handle it firing, and the breaker's cooldown probe.
  bool timers_bound() const { return static_cast<bool>(timer_host_.schedule); }
  void ArmBatchTimer(PendingBatch* batch);
  void CancelBatchTimer(PendingBatch* batch);
  void OnBatchTimer(uint64_t token);
  void ArmBreakerProbe();
  void OnBreakerProbe();
  // Flushes ready windows straight into the batch sink (timer/inline paths).
  void FlushToSink();

  Machine* machine_;
  size_t max_batch_size_;
  uint64_t retries_ = 0;
  uint64_t batch_quotes_ = 0;

  bool breaker_open_ = false;
  int consecutive_tpm_failures_ = 0;
  uint64_t breaker_opened_at_us_ = 0;
  std::vector<QueuedChallenge> queued_;
  std::vector<PendingBatch> batches_;

  // Discrete-event mode state (unbound = polled mode, zero overhead).
  TimerHost timer_host_;
  std::function<void(std::vector<BatchQuoteResponse>)> batch_sink_;
  std::function<void(std::vector<AttestationResponse>)> drain_sink_;
  uint64_t next_timer_token_ = 0;
  bool breaker_probe_armed_ = false;
  uint64_t breaker_probe_id_ = 0;
};

}  // namespace flicker

#endif  // FLICKER_SRC_OS_TQD_H_
