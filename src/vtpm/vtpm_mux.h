// VtpmMultiplexer: the fair scheduler between N tenants and the one
// hardware TPM.
//
// Each tenant gets its own bounded FIFO queue; a deficit round-robin cursor
// dispatches one request at a time through the quote daemon, so a flooding
// tenant can fill only its own queue while every other tenant still gets
// its turn each rotation. Tenant faults stay the tenant's problem:
//
//   - per-tenant deadline: a request older than kMaxQueueAgeMs at
//     dispatch is shed (kUnavailable), and the hardware retry loop runs
//     under an 8000 ms per-tenant deadline;
//   - per-tenant circuit breaker: consecutive failures (bad owner auth,
//     rollback quarantine, hardware timeouts attributable to the tenant)
//     open the breaker; a breaker-open tenant's traffic is shed with
//     kUnavailable until the cooldown expires, so a crash-looping tenant
//     cannot consume hardware turns;
//   - flood quarantine: sustained queue overflow trips the same breaker, so
//     a flooding tenant degrades to shed-at-submit instead of queue churn.
//
// The quote a tenant receives is a real hardware quote whose externalData
// nonce binds the tenant's virtual PCR bank:
//   bound_nonce = SHA1("vtpm-quote" || tenant_tag || vPCR composite || nonce)
// so one hardware AIK serves every tenant while a verifier that recomputes
// the bound nonce from its own challenge still gets per-tenant freshness
// and vPCR binding.

#ifndef FLICKER_SRC_VTPM_VTPM_MUX_H_
#define FLICKER_SRC_VTPM_VTPM_MUX_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/os/tqd.h"
#include "src/vtpm/vtpm_manager.h"

namespace flicker {
namespace vtpm {

// The multiplexer's policy is compiled in (VtpmMultiplexer's constants).
// The empty type stays because perfbench's workload still constructs the
// multiplexer with VtpmMuxConfig(); it can go once that call does.
struct VtpmMuxConfig {};

// Everything the completion sink learns about one finished request.
struct VtpmQuoteCompletion {
  std::string tenant;
  Bytes nonce;        // The challenger's original nonce.
  Bytes bound_nonce;  // What the hardware quote actually signs.
  Bytes composite;    // The tenant's vPCR composite the binding covered.
  Status status;
  AttestationResponse response;  // Meaningful iff status.ok().
  double queue_age_ms = 0;       // Enqueue to dispatch.
};

struct VtpmTenantCounters {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;     // kUnavailable: breaker, overflow, or deadline.
  uint64_t failed = 0;   // Any other terminal failure.
  uint64_t breaker_trips = 0;
  double max_queue_age_ms = 0;
};

class VtpmMultiplexer {
 public:
  using CompletionSink = std::function<void(const VtpmQuoteCompletion&)>;

  static constexpr size_t kMaxQueuePerTenant = 8;
  // Shed a queued request older than this at dispatch time.
  static constexpr double kMaxQueueAgeMs = 20000.0;
  // Per-tenant breaker: consecutive failures that open it, and how long
  // (simulated ms) the tenant stays quarantined before traffic may resume.
  static constexpr int kBreakerThreshold = 3;
  static constexpr double kBreakerCooldownMs = 5000.0;
  // Queue-overflow events that count as flooding and trip the breaker.
  static constexpr int kFloodThreshold = 16;

  VtpmMultiplexer(VtpmManager* manager, TpmQuoteDaemon* tqd, VtpmMuxConfig config);

  void set_sink(CompletionSink sink) { sink_ = std::move(sink); }

  // Enqueues a quote request. Shed immediately (kUnavailable, counted) when
  // the tenant's breaker is open or its queue is full; accepted requests
  // complete through the sink when the pump dispatches them.
  Status Submit(const std::string& tenant, const Bytes& nonce, const Bytes& owner_auth);

  // Dispatches at most one queued request, advancing the round-robin cursor.
  // Returns true if any work (dispatch or shed) happened.
  bool PumpOne();
  // Pumps until every queue is empty.
  void PumpAll();

  bool HasPending() const;
  size_t pending_count() const;

  // Power-domain hook: queues lived in RAM; challengers re-issue.
  void OnPowerLoss();

  const std::map<std::string, VtpmTenantCounters>& tenant_counters() const { return counters_; }
  uint64_t shed_total() const { return shed_total_; }
  uint64_t quarantines_total() const { return quarantines_total_; }
  bool TenantBreakerOpen(const std::string& tenant) const;

  static Bytes BoundNonce(const Bytes& tenant_tag, const Bytes& composite, const Bytes& nonce);

 private:
  struct PendingRequest {
    Bytes nonce;
    Bytes owner_auth;
    uint64_t enqueued_at_us = 0;
  };
  struct TenantLane {
    std::deque<PendingRequest> queue;
    int consecutive_failures = 0;
    int overflow_streak = 0;
    bool breaker_open = false;
    uint64_t breaker_opened_at_us = 0;
  };

  uint64_t NowMicros() const;
  bool LaneAllows(TenantLane* lane);  // Closed, or cooldown expired.
  void NoteFailure(const std::string& tenant, TenantLane* lane);
  void OpenBreaker(const std::string& tenant, TenantLane* lane);
  void Shed(const std::string& tenant, const PendingRequest& request, double queue_age_ms,
            const std::string& why);
  void Complete(VtpmQuoteCompletion completion);
  void DispatchOne(const std::string& tenant, TenantLane* lane);

  VtpmManager* manager_;
  TpmQuoteDaemon* tqd_;
  CompletionSink sink_;

  std::map<std::string, TenantLane> lanes_;  // Sorted: deterministic rotation.
  std::string cursor_;                       // Last tenant served.
  std::map<std::string, VtpmTenantCounters> counters_;
  uint64_t shed_total_ = 0;
  uint64_t quarantines_total_ = 0;
};

}  // namespace vtpm
}  // namespace flicker

#endif  // FLICKER_SRC_VTPM_VTPM_MUX_H_
