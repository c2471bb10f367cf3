// The vTPM noisy-neighbor + power-cut chaos campaign, run under the
// discrete-event fleet engine.
//
// One machine hosts the manager + multiplexer; N tenant clients inject
// seeded Poisson quote rounds against it. Two tenants misbehave on purpose:
// a flooding tenant arriving orders of magnitude faster than its queue
// drains, and a crash-looping tenant whose every request carries a wrong
// owner auth. Scheduled power cuts wipe RAM (queues, resident vTPMs) and
// force the recovery path mid-campaign.
//
// The campaign's own verifier checks every accepted quote from its OWN
// records: the AIK signature over TPM_QUOTE_INFO, and that the signed
// externalData equals the bound nonce recomputed from the client's original
// challenge and the tenant's expected vPCR composite. accepted_wrong counts
// quotes that verify but answer something the client never asked -
// the invariant that must stay zero.
//
// Pass criteria the tests and the --vtpm verify campaign assert:
// healthy tenants complete 100% of their rounds with bounded p99, the
// misbehaving tenants are quarantined instead of wedging the hardware, and
// the same seed reproduces the same JSON byte for byte.

#ifndef FLICKER_SRC_VTPM_VTPM_CAMPAIGN_H_
#define FLICKER_SRC_VTPM_VTPM_CAMPAIGN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace flicker {
namespace vtpm {

struct VtpmCampaignConfig {
  uint64_t seed = 1;
  int num_tenants = 6;
  // Indices into the tenant list; -1 disables the role. The flooder's rate
  // and the healthy clients' retry loop are constants in vtpm_campaign.cc.
  int flooding_tenant = 0;
  int crashloop_tenant = 1;
  // Arrival horizon (sim ms past the setup epoch) and the healthy tenants'
  // Poisson mean inter-arrival time.
  double duration_ms = 120000.0;
  double healthy_mean_interarrival_ms = 6000.0;
  std::vector<double> power_cut_at_ms;  // Offsets past the epoch.
  size_t tpm_key_bits = 512;  // Small keys: sim latency is charged, not computed.
  size_t max_resident = 4;    // Manager working set (forces LRU evictions).
};

struct VtpmTenantCampaignStats {
  uint64_t injected = 0;   // Rounds this tenant's client started.
  uint64_t completed = 0;  // Verified quote received.
  uint64_t failed = 0;     // Gave up (attempts exhausted / expected failure).
  uint64_t shed = 0;       // Mux-level sheds (from the mux counters).
  uint64_t breaker_trips = 0;
  double max_queue_age_ms = 0;
};

struct VtpmCampaignStats {
  std::vector<VtpmTenantCampaignStats> tenants;  // Index = tenant number.
  uint64_t responses_verified = 0;
  uint64_t rejected = 0;        // Signature/verification failures (expect 0).
  uint64_t accepted_wrong = 0;  // INVARIANT: must stay zero.
  uint64_t rollbacks_detected = 0;
  uint64_t quarantines = 0;
  uint64_t shed_total = 0;
  uint64_t power_cuts = 0;
  uint64_t client_retries = 0;
  std::vector<double> healthy_latencies_ms;  // Completion order.
  double sim_duration_ms = 0;
  uint64_t events_processed = 0;
  size_t max_heap = 0;
  uint64_t order_digest = 0;

  // Over tenants that are neither flooding nor crash-looping.
  double HealthyCompletionRate(const VtpmCampaignConfig& config) const;
  double HealthyJainIndex(const VtpmCampaignConfig& config) const;
  // Nearest-rank percentile over healthy round latencies, 0 when none.
  double HealthyLatencyPercentileMs(double p) const;

  // The BENCH_vtpm.json payload: stable key order, fixed precision, so two
  // same-seed runs compare byte-identical with cmp(1).
  std::string ToJson(const VtpmCampaignConfig& config) const;
};

// Builds the platform + tenants, runs the campaign to completion, and
// returns the stats. Deterministic in `config.seed`.
Result<VtpmCampaignStats> RunVtpmCampaign(const VtpmCampaignConfig& config);

}  // namespace vtpm
}  // namespace flicker

#endif  // FLICKER_SRC_VTPM_VTPM_CAMPAIGN_H_
