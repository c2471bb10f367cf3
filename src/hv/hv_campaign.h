// The cross-core adversarial campaign for the concurrent-execution mode,
// run under the discrete-event fleet engine.
//
// A fleet of multi-core machines each late-launches the minimal hypervisor
// once, then serves seeded Poisson PAL-session rounds on its dedicated
// cores while the untrusted OS - modeled as explicit adversary events on
// the remaining cores - attacks continuously: DMA into PAL and hypervisor
// frames, guest-mode loads/stores probing protected regions, and malformed
// hypercalls (bad bases, overlapping regions, corrupt headers, bogus
// session ids, hijacked cores, double launches). A slice of the rounds are
// "attacked rounds" that fire the whole battery in the window where the
// PAL region is protected but not yet executed - the exact window a
// concurrent OS gets that a suspended one never had.
//
// The invariant the campaign asserts: every attack dies with the RIGHT
// typed denial (HvDenial / DEV block), no protected byte ever changes, and
// every session still completes with outputs and a PCR 17 chain
// byte-identical to an unattacked reference session. `accepted_wrong`
// counts attacks that succeeded or sessions that returned wrong content -
// the number that must stay zero. `attacks_mistyped` counts attacks that
// failed for the wrong reason - also held at zero.
//
// Same seed => byte-identical JSON (the --hv verify campaign diffs two
// runs), and the engine's order digest pins the exact event interleaving.

#ifndef FLICKER_SRC_HV_HV_CAMPAIGN_H_
#define FLICKER_SRC_HV_HV_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/hv/hypervisor.h"

namespace flicker {
namespace hv {

// Cores per campaign machine: with two PAL slots the top two cores are
// PAL-dedicated and the OS (and its attacks) keeps the rest.
inline constexpr int kCampaignCpus = 4;

struct HvCampaignConfig {
  uint64_t seed = 1;
  int num_machines = 4;
  // Arrival horizon (sim ms past the setup epoch); the round and attack
  // cadence are constants in hv_campaign.cc.
  double duration_ms = 30000.0;
};

struct HvCampaignStats {
  uint64_t rounds_injected = 0;
  uint64_t rounds_completed = 0;
  uint64_t rounds_failed = 0;
  uint64_t dual_rounds = 0;
  uint64_t attacked_rounds = 0;
  uint64_t hv_launches = 0;
  // Aggregated across the fleet's hypervisors after the run.
  uint64_t sessions_completed = 0;
  uint64_t exits_handled = 0;
  uint64_t denials[static_cast<size_t>(HvDenial::kCount)] = {};
  // Adversary ledger. accepted_wrong and attacks_mistyped must be zero.
  uint64_t attacks_launched = 0;
  uint64_t attacks_denied = 0;
  uint64_t attacks_mistyped = 0;
  uint64_t accepted_wrong = 0;
  uint64_t dma_blocked = 0;
  uint64_t npt_blocked = 0;
  // OS-visible pause: what the hypervisor actually charged, next to what a
  // classic whole-machine suspend would have cost for the same rounds.
  double os_pause_ms_total = 0;
  double classic_equiv_pause_ms_total = 0;
  std::vector<double> round_latencies_ms;
  double sim_duration_ms = 0;
  uint64_t events_processed = 0;
  size_t max_heap = 0;
  uint64_t order_digest = 0;

  double SessionsPerSecond() const;
  double LatencyPercentileMs(double p) const;  // Nearest-rank, p in [0,1].
  double PauseReduction() const;  // classic_equiv / os_pause (higher is better).
  std::string ToJson(const HvCampaignConfig& config) const;
};

Result<HvCampaignStats> RunHvCampaign(const HvCampaignConfig& config);

}  // namespace hv
}  // namespace flicker

#endif  // FLICKER_SRC_HV_HV_CAMPAIGN_H_
