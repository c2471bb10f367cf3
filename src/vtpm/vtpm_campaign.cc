#include "src/vtpm/vtpm_campaign.h"

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "src/attest/verifier.h"
#include "src/core/flicker_platform.h"
#include "src/crypto/drbg.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sha1.h"
#include "src/obs/metrics.h"
#include "src/sim/campaign.h"
#include "src/sim/executor.h"
#include "src/sim/fleet.h"
#include "src/vtpm/vtpm_manager.h"
#include "src/vtpm/vtpm_mux.h"

namespace flicker {
namespace vtpm {

namespace {

// The flooding tenant's Poisson mean inter-arrival time and a hard cap on
// its arrivals (event count). A hardware quote costs ~972 ms of sim time
// (Table 1), so the flood mean is far under service time by design.
constexpr double kFloodMeanInterarrivalMs = 120.0;
constexpr size_t kMaxFloodArrivals = 1200;
// Healthy-client retry loop: attempts, linear backoff, request timeout.
constexpr int kMaxAttemptsPerRound = 8;
constexpr double kClientRetryBackoffMs = 2000.0;
constexpr double kClientTimeoutMs = 30000.0;

struct Round {
  int tenant = 0;
  uint64_t seq = 0;
  Bytes nonce;
  int attempts = 0;
  uint64_t first_submit_ns = 0;
  sim::EventId timeout_id{};
  bool timeout_armed = false;
  bool done = false;
};

class Campaign {
 public:
  explicit Campaign(const VtpmCampaignConfig& config)
      : config_(config), executor_(config.seed) {}

  Result<VtpmCampaignStats> Run();

 private:
  std::string TenantName(int i) const { return "tenant-" + std::to_string(i); }
  Bytes TenantAuth(int i) const {
    return Sha1::Digest(BytesOf("tenant-auth-" + std::to_string(config_.seed) + "-" +
                                std::to_string(i)));
  }
  bool IsHealthy(int i) const {
    return i != config_.flooding_tenant && i != config_.crashloop_tenant;
  }
  Bytes RoundNonce(int tenant, uint64_t seq) const {
    return Sha1::Digest(BytesOf("vtpm-round-" + std::to_string(config_.seed) + "-" +
                                std::to_string(tenant) + "-" + std::to_string(seq)));
  }

  Status Setup();
  void ScheduleArrivals();
  void SchedulePowerCuts();
  void SchedulePump();
  void SubmitRound(Round* round);
  void RetryOrFail(Round* round, const Status& why);
  void OnCompletion(const VtpmQuoteCompletion& completion);
  void OnPowerCut();
  void FinishRound(Round* round, bool success);

  VtpmCampaignConfig config_;
  sim::SimExecutor executor_;
  std::unique_ptr<FlickerPlatform> platform_;
  std::unique_ptr<VtpmManager> manager_;
  std::unique_ptr<VtpmMultiplexer> mux_;
  Bytes owner_secret_;
  uint64_t epoch_ns_ = 0;

  sim::ActorId machine_actor_ = sim::kNoActor;
  std::vector<sim::ActorId> client_actors_;
  std::vector<std::unique_ptr<SimClock>> client_clocks_;

  std::vector<std::unique_ptr<Round>> rounds_;
  std::map<Bytes, Round*> outstanding_;  // Keyed by original nonce.
  std::vector<Bytes> expected_composite_;  // Per tenant, fixed at setup.
  bool pump_scheduled_ = false;

  VtpmCampaignStats stats_;
};

Status Campaign::Setup() {
  FlickerPlatformConfig platform_config = CompactPlatformConfig();
  platform_config.machine.tpm.key_bits = config_.tpm_key_bits;
  platform_ = std::make_unique<FlickerPlatform>(platform_config);
  owner_secret_ = Sha1::Digest(BytesOf("vtpm-owner-" + std::to_string(config_.seed)));
  FLICKER_RETURN_IF_ERROR(platform_->tpm()->TakeOwnership(owner_secret_));

  VtpmManagerConfig manager_config;
  manager_config.max_resident = config_.max_resident;
  manager_config.owner_secret = owner_secret_;
  manager_config.blob_auth = Sha1::Digest(BytesOf("vtpm-blob"));
  Result<Bytes> pcr17 = platform_->tpm()->PcrRead(kSkinitPcr);
  if (!pcr17.ok()) {
    return pcr17.status();
  }
  manager_config.release_pcr17 = pcr17.take();
  manager_ = std::make_unique<VtpmManager>(platform_->machine(), manager_config);
  mux_ = std::make_unique<VtpmMultiplexer>(manager_.get(), platform_->tqd(), VtpmMuxConfig());
  mux_->set_sink([this](const VtpmQuoteCompletion& completion) { OnCompletion(completion); });

  // Provision every tenant with a distinct workload measurement, so each
  // vPCR composite (and hence every bound nonce) is tenant-unique.
  expected_composite_.resize(static_cast<size_t>(config_.num_tenants));
  for (int i = 0; i < config_.num_tenants; ++i) {
    const std::string name = TenantName(i);
    FLICKER_RETURN_IF_ERROR(manager_->CreateTenant(name, TenantAuth(i)));
    FLICKER_RETURN_IF_ERROR(manager_->Extend(
        name, 0, TenantAuth(i), Sha1::Digest(BytesOf("workload-" + std::to_string(i)))));
    FLICKER_RETURN_IF_ERROR(manager_->SnapshotTenant(name));
    Result<VirtualTpm*> vt = manager_->ResidentTenant(name);
    if (!vt.ok()) {
      return vt.status();
    }
    expected_composite_[static_cast<size_t>(i)] = vt.value()->CompositeDigest();
  }

  machine_actor_ = executor_.RegisterActor("vtpm-host", platform_->clock());
  for (int i = 0; i < config_.num_tenants; ++i) {
    client_clocks_.push_back(std::make_unique<SimClock>());
    client_actors_.push_back(
        executor_.RegisterActor("client-" + std::to_string(i), client_clocks_.back().get()));
  }
  epoch_ns_ = platform_->clock()->NowNanos();
  stats_.tenants.resize(static_cast<size_t>(config_.num_tenants));
  return Status::Ok();
}

void Campaign::ScheduleArrivals() {
  for (int i = 0; i < config_.num_tenants; ++i) {
    const bool flooding = i == config_.flooding_tenant;
    const double mean_ms =
        flooding ? kFloodMeanInterarrivalMs : config_.healthy_mean_interarrival_ms;
    const size_t cap = flooding ? kMaxFloodArrivals : SIZE_MAX;
    Drbg arrivals(config_.seed * 1000003ULL + static_cast<uint64_t>(i));
    double t_ms = 0;
    uint64_t seq = 0;
    while (seq < cap) {
      t_ms += sim::ExponentialGapMs(&arrivals, mean_ms);
      if (t_ms > config_.duration_ms) {
        break;
      }
      auto round = std::make_unique<Round>();
      round->tenant = i;
      round->seq = seq;
      round->nonce = RoundNonce(i, seq);
      Round* raw = round.get();
      rounds_.push_back(std::move(round));
      ++stats_.tenants[static_cast<size_t>(i)].injected;
      executor_.ScheduleAt(client_actors_[static_cast<size_t>(i)],
                           epoch_ns_ + static_cast<uint64_t>(t_ms * 1e6),
                           [this, raw] { SubmitRound(raw); });
      ++seq;
    }
  }
}

void Campaign::SchedulePowerCuts() {
  for (double at_ms : config_.power_cut_at_ms) {
    executor_.ScheduleAt(machine_actor_, epoch_ns_ + static_cast<uint64_t>(at_ms * 1e6),
                         [this] { OnPowerCut(); });
  }
}

void Campaign::SchedulePump() {
  if (pump_scheduled_) {
    return;
  }
  pump_scheduled_ = true;
  // Local time: the pump serializes on the host machine's clock, modeling
  // the one hardware TPM every tenant shares.
  executor_.ScheduleAfterLocal(machine_actor_, 0, [this] {
    pump_scheduled_ = false;
    if (mux_->PumpOne() && mux_->HasPending()) {
      SchedulePump();
    }
  });
}

void Campaign::SubmitRound(Round* round) {
  if (round->done) {
    return;
  }
  ++round->attempts;
  if (round->first_submit_ns == 0) {
    round->first_submit_ns = executor_.NowNs();
  }
  // The crash-looping tenant presents a wrong owner auth on every request.
  Bytes auth = round->tenant == config_.crashloop_tenant
                   ? Sha1::Digest(BytesOf("wrong-auth"))
                   : TenantAuth(round->tenant);
  Status submitted = mux_->Submit(TenantName(round->tenant), round->nonce, auth);
  if (!submitted.ok()) {
    RetryOrFail(round, submitted);
    return;
  }
  outstanding_[round->nonce] = round;
  round->timeout_id = executor_.ScheduleAfterLocal(
      client_actors_[static_cast<size_t>(round->tenant)],
      static_cast<uint64_t>(kClientTimeoutMs * 1e6), [this, round] {
        if (round->done) {
          return;
        }
        round->timeout_armed = false;
        outstanding_.erase(round->nonce);
        RetryOrFail(round, UnavailableError("client timeout (request lost)"));
      });
  round->timeout_armed = true;
  SchedulePump();
}

void Campaign::RetryOrFail(Round* round, const Status& why) {
  (void)why;
  if (round->done) {
    return;
  }
  // Only healthy clients retry: the flood is fire-and-forget pressure, and
  // the crash-looper's failures are its expected behavior.
  if (IsHealthy(round->tenant) && round->attempts < kMaxAttemptsPerRound) {
    ++stats_.client_retries;
    const uint64_t backoff_ns = static_cast<uint64_t>(
        kClientRetryBackoffMs * 1e6 * static_cast<double>(round->attempts));
    executor_.ScheduleAfterLocal(client_actors_[static_cast<size_t>(round->tenant)], backoff_ns,
                                 [this, round] { SubmitRound(round); });
    return;
  }
  FinishRound(round, /*success=*/false);
}

void Campaign::FinishRound(Round* round, bool success) {
  if (round->done) {
    return;
  }
  round->done = true;
  if (round->timeout_armed) {
    executor_.Cancel(round->timeout_id);
    round->timeout_armed = false;
  }
  outstanding_.erase(round->nonce);
  VtpmTenantCampaignStats& tenant = stats_.tenants[static_cast<size_t>(round->tenant)];
  if (success) {
    ++tenant.completed;
    const double latency_ms =
        static_cast<double>(platform_->clock()->NowNanos() - round->first_submit_ns) / 1e6;
    obs::ObserveMs(obs::Hist::kVtpmRoundLatencyMs, latency_ms);
    if (IsHealthy(round->tenant)) {
      stats_.healthy_latencies_ms.push_back(latency_ms);
    }
  } else {
    ++tenant.failed;
  }
}

void Campaign::OnCompletion(const VtpmQuoteCompletion& completion) {
  auto it = outstanding_.find(completion.nonce);
  if (it == outstanding_.end()) {
    return;  // The client already timed out and re-issued or gave up.
  }
  Round* round = it->second;
  if (!completion.status.ok()) {
    outstanding_.erase(it);
    if (round->timeout_armed) {
      executor_.Cancel(round->timeout_id);
      round->timeout_armed = false;
    }
    RetryOrFail(round, completion.status);
    return;
  }
  // Verify from the campaign's own records: AIK signature over
  // TPM_QUOTE_INFO, then the signed nonce must equal the binding recomputed
  // from the client's challenge and the tenant's expected composite.
  Result<RsaPublicKey> aik = RsaPublicKey::Deserialize(completion.response.aik_public);
  bool signature_ok = false;
  if (aik.ok()) {
    Bytes composite = RecomputeQuoteComposite(completion.response.quote);
    Bytes info = BytesOf("QUOT");
    info.insert(info.end(), composite.begin(), composite.end());
    info.insert(info.end(), completion.response.quote.nonce.begin(),
                completion.response.quote.nonce.end());
    signature_ok = RsaVerifySha1(aik.value(), info, completion.response.quote.signature);
  }
  if (!signature_ok) {
    ++stats_.rejected;
    outstanding_.erase(it);
    if (round->timeout_armed) {
      executor_.Cancel(round->timeout_id);
      round->timeout_armed = false;
    }
    RetryOrFail(round, IntegrityFailureError("quote signature rejected"));
    return;
  }
  ++stats_.responses_verified;
  const Bytes expected = VtpmMultiplexer::BoundNonce(
      TenantTag(TenantName(round->tenant)),
      expected_composite_[static_cast<size_t>(round->tenant)], round->nonce);
  if (completion.response.quote.nonce != expected) {
    // A verified quote answering something this client never asked.
    ++stats_.accepted_wrong;
    FinishRound(round, /*success=*/false);
    return;
  }
  FinishRound(round, /*success=*/true);
}

void Campaign::OnPowerCut() {
  ++stats_.power_cuts;
  platform_->machine()->PowerCut();
  (void)platform_->tpm()->Startup(TpmStartupType::kClear);
  manager_->OnPowerLoss();
  (void)manager_->RecoverAll();
  mux_->OnPowerLoss();
  platform_->tqd()->OnPowerLoss();
}

Result<VtpmCampaignStats> Campaign::Run() {
  FLICKER_RETURN_IF_ERROR(Setup());
  ScheduleArrivals();
  SchedulePowerCuts();
  executor_.Run();

  // Fold the mux's per-tenant view into the campaign stats.
  for (int i = 0; i < config_.num_tenants; ++i) {
    auto it = mux_->tenant_counters().find(TenantName(i));
    if (it == mux_->tenant_counters().end()) {
      continue;
    }
    VtpmTenantCampaignStats& tenant = stats_.tenants[static_cast<size_t>(i)];
    tenant.shed = it->second.shed;
    tenant.breaker_trips = it->second.breaker_trips;
    tenant.max_queue_age_ms = it->second.max_queue_age_ms;
  }
  stats_.rollbacks_detected = manager_->rollbacks_detected();
  stats_.quarantines = mux_->quarantines_total();
  stats_.shed_total = mux_->shed_total();
  stats_.sim_duration_ms =
      static_cast<double>(platform_->clock()->NowNanos() - epoch_ns_) / 1e6;
  stats_.events_processed = executor_.events_processed();
  stats_.max_heap = executor_.max_heap_size();
  stats_.order_digest = executor_.OrderDigest();
  return stats_;
}

}  // namespace

double VtpmCampaignStats::HealthyCompletionRate(const VtpmCampaignConfig& config) const {
  uint64_t injected = 0;
  uint64_t completed = 0;
  for (int i = 0; i < config.num_tenants; ++i) {
    if (i == config.flooding_tenant || i == config.crashloop_tenant) {
      continue;
    }
    injected += tenants[static_cast<size_t>(i)].injected;
    completed += tenants[static_cast<size_t>(i)].completed;
  }
  return injected == 0 ? 1.0
                       : static_cast<double>(completed) / static_cast<double>(injected);
}

double VtpmCampaignStats::HealthyJainIndex(const VtpmCampaignConfig& config) const {
  std::vector<double> allocations;
  for (int i = 0; i < config.num_tenants; ++i) {
    if (i == config.flooding_tenant || i == config.crashloop_tenant) {
      continue;
    }
    allocations.push_back(static_cast<double>(tenants[static_cast<size_t>(i)].completed));
  }
  return sim::JainFairnessIndex(allocations);
}

double VtpmCampaignStats::HealthyLatencyPercentileMs(double p) const {
  return sim::Percentile(healthy_latencies_ms, p);
}

std::string VtpmCampaignStats::ToJson(const VtpmCampaignConfig& config) const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"flicker-bench-vtpm-v1\",\n";
  os << "  \"campaign\": {\"tenants\": " << config.num_tenants
     << ", \"flooding\": " << config.flooding_tenant
     << ", \"crashloop\": " << config.crashloop_tenant << ", \"seed\": " << config.seed
     << ", \"duration_ms\": " << sim::F3(config.duration_ms)
     << ", \"power_cuts\": " << config.power_cut_at_ms.size() << "},\n";
  os << "  \"tenant\": [\n";
  for (size_t i = 0; i < tenants.size(); ++i) {
    const VtpmTenantCampaignStats& t = tenants[i];
    os << "    {\"injected\": " << t.injected << ", \"completed\": " << t.completed
       << ", \"failed\": " << t.failed << ", \"shed\": " << t.shed
       << ", \"breaker_trips\": " << t.breaker_trips
       << ", \"max_queue_age_ms\": " << sim::F3(t.max_queue_age_ms) << "}"
       << (i + 1 < tenants.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  char rate[64];
  std::snprintf(rate, sizeof(rate), "%.4f", HealthyCompletionRate(config));
  char jain[64];
  std::snprintf(jain, sizeof(jain), "%.4f", HealthyJainIndex(config));
  os << "  \"fairness\": {\"healthy_completion_rate\": " << rate
     << ", \"jain_index\": " << jain << "},\n";
  sim::WriteLatencyJson(os, healthy_latencies_ms);
  os << "  \"robustness\": {\"rollbacks_detected\": " << rollbacks_detected
     << ", \"quarantines\": " << quarantines << ", \"shed_total\": " << shed_total
     << ", \"power_cuts\": " << power_cuts << ", \"client_retries\": " << client_retries
     << "},\n";
  os << "  \"verifier\": {\"verified\": " << responses_verified << ", \"rejected\": " << rejected
     << ", \"accepted_wrong\": " << accepted_wrong << "},\n";
  os << "  \"engine\": {\"events\": " << events_processed << ", \"max_heap\": " << max_heap
     << ", \"sim_duration_ms\": " << sim::F3(sim_duration_ms) << ", \"order_digest\": \""
     << sim::HexDigest(order_digest) << "\"}\n";
  os << "}\n";
  return os.str();
}

Result<VtpmCampaignStats> RunVtpmCampaign(const VtpmCampaignConfig& config) {
  if (config.num_tenants < 1) {
    return InvalidArgumentError("campaign needs at least one tenant");
  }
  Campaign campaign(config);
  return campaign.Run();
}

}  // namespace vtpm
}  // namespace flicker
