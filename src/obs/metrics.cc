#include "src/obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <ostream>

namespace flicker {
namespace obs {

namespace {

// The canonical metric set. docs/METRICS.md is generated from this table
// (micro_obs --dump_metrics_md); verify.sh fails when the checked-in copy
// drifts, so a metric cannot be added or renamed without the docs noticing.
constexpr MetricDef kCounterDefs[static_cast<size_t>(Ctr::kCount)] = {
    {"flicker_sessions_total", "count",
     "Flicker sessions executed (one per FlickerPlatform::ExecuteSession)"},
    {"skinit_launches_total", "count", "Successful SKINIT/SENTER late launches"},
    {"tpm_commands_total", "count",
     "TPM command frames dispatched through TpmTransport (incl. TIS/hardware pseudo-commands)"},
    {"tpm_transport_faults_total", "count",
     "Frames dropped/garbled/delayed by the transport fault plan"},
    {"tqd_retries_total", "count",
     "Transient quote failures absorbed by the quote daemon's retry loop"},
    {"tqd_breaker_trips_total", "count",
     "Times the quote daemon's circuit breaker opened on consecutive TPM failures"},
    {"tqd_challenges_queued_total", "count",
     "Attestation challenges queued behind an open circuit breaker"},
    {"tqd_batch_quotes_total", "count",
     "Merkle-aggregated batch quotes issued (one TPM quote per flushed window)"},
    {"tqd_batched_challenges_total", "count",
     "Attestation challenges answered through a coalesced batch quote"},
    {"net_messages_sent_total", "count", "Datagrams handed to LossyChannel::Send"},
    {"net_messages_delivered_total", "count", "Datagrams delivered to a receiving endpoint"},
    {"net_faults_injected_total", "count",
     "Datagrams faulted by the armed NetFaultSchedule (drop/dup/reorder/corrupt/delay/partition)"},
    {"session_calls_total", "count", "Reliable request/response calls issued by SessionClient"},
    {"session_retransmits_total", "count", "Request frames retransmitted after a timed-out window"},
    {"session_stale_frames_total", "count",
     "Well-formed frames ignored for carrying a stale or mismatched sequence number"},
    {"session_rejected_frames_total", "count",
     "Inbound frames rejected as malformed/corrupt (client and server sides)"},
    {"session_requests_handled_total", "count",
     "Requests executed by SessionServer handlers (at-most-once executions)"},
    {"session_duplicates_served_total", "count",
     "Duplicate requests answered from the server reply cache without re-execution"},
    {"attest_challenges_handled_total", "count",
     "Attestation challenges answered with a fresh PAL session and quote"},
    {"attest_replays_rejected_total", "count",
     "Attestation challenges refused because their nonce was already answered"},
    {"measure_hashes_total", "count",
     "SLB measurements that ran a full SHA-1 pass (cache miss or changed content)"},
    {"measure_verified_hits_total", "count",
     "SLB measurements served after a snapshot compare (written but byte-identical)"},
    {"measure_clean_hits_total", "count",
     "SLB measurements served from an untouched cache entry (no memory traffic)"},
    {"seal_recover_clean_total", "count",
     "Crash recoveries that found no staged snapshot (nothing to repair)"},
    {"seal_recover_discarded_staged_total", "count",
     "Crash recoveries that discarded a pre-increment or orphaned staged snapshot"},
    {"seal_recover_rolled_forward_total", "count",
     "Crash recoveries that promoted a staged snapshot whose counter increment had landed"},
    {"seal_recover_fail_closed_total", "count",
     "Crash recoveries that refused to serve any state (staged version ahead of the counter)"},
    {"dma_blocked_total", "count", "DMA accesses refused by the Device Exclusion Vector"},
    {"power_cuts_total", "count", "Simulated power losses (RAM erased, TPM reset line fired)"},
    {"fleet_sessions_total", "count",
     "Attestation rounds completed and verified by the fleet simulation's verifier farm"},
    {"fleet_rounds_failed_total", "count",
     "Fleet attestation rounds that failed verification, timed out, or died to a fault"},
    {"vtpm_quotes_total", "count",
     "Hardware quotes issued on behalf of virtual TPM tenants by the multiplexer"},
    {"vtpm_extends_total", "count", "Virtual PCR extend operations applied across all tenants"},
    {"vtpm_snapshots_total", "count",
     "Per-tenant vTPM state snapshots sealed through the crash-consistent store"},
    {"vtpm_rollbacks_detected_total", "count",
     "Stale vTPM snapshots rejected by the NV monotonic counter binding (fail closed)"},
    {"vtpm_quarantines_total", "count",
     "Tenants quarantined by the multiplexer's per-tenant circuit breaker"},
    {"vtpm_shed_total", "count",
     "Tenant requests shed with kUnavailable (quarantine, full queue, or deadline)"},
    {"vtpm_recoveries_total", "count",
     "Per-tenant vTPM stores recovered after a power cut (any recovery class)"},
    {"session_overload_retries_total", "count",
     "Session calls that received kOverloaded and re-entered the backoff schedule"},
    {"session_overload_sheds_total", "count",
     "Session requests shed by a server's admission control (answered, never cached)"},
    {"fleet_hedges_fired_total", "count",
     "Hedged duplicate requests fired after the p95-derived hedge delay expired"},
    {"fleet_hedge_wins_total", "count",
     "Fleet rounds resolved by the hedge copy rather than the primary verifier"},
    {"fleet_overload_sheds_total", "count",
     "Fleet responses shed by farm admission control (queue depth over the cap)"},
    {"fleet_overload_resends_total", "count",
     "Fleet responses re-sent after a full-jitter backoff following an overload shed"},
    {"fleet_verifier_breaker_trips_total", "count",
     "Per-verifier circuit breakers opened by consecutive hedge-detected misses"},
    {"fleet_verifier_faults_total", "count",
     "Verifier-farm fault activations injected by the chaos plan (gray/crash/hang)"},
    {"chaos_plans_run_total", "count",
     "Composite chaos fault plans executed by the fuzzer (including shrink re-runs)"},
    {"chaos_violations_found_total", "count",
     "Chaos plans whose run violated an invariant oracle (before shrinking)"},
    {"hv_sessions_total", "count",
     "Concurrent PAL sessions started under the minimal hypervisor"},
    {"hv_exits_total", "count",
     "Guest exits handled by the hypervisor (hypercalls and intercepted accesses)"},
    {"hv_denied_accesses_total", "count",
     "Cross-core attacks refused by the hypervisor with a typed denial"},
};

constexpr MetricDef kHistogramDefs[static_cast<size_t>(Hist::kCount)] = {
    {"tpm_command_latency_ms", "ms",
     "Simulated latency charged per dispatched TPM command frame"},
    {"skinit_latency_ms", "ms", "Simulated cost of the SKINIT/SENTER instruction per launch"},
    {"flicker_session_total_ms", "ms",
     "Simulated wall time of one full Flicker session, either mode (classic: "
     "suspend through resume; concurrent: hypercall through output collection)"},
    {"session_call_latency_ms", "ms",
     "Simulated time one SessionClient::Call spent until verdict (success or fail-closed)"},
    {"tqd_batch_size", "challenges",
     "Challenges coalesced into each flushed batch-quote window"},
    {"tqd_coalesce_wait_ms", "ms",
     "Simulated age of a batch window (oldest challenge) when its quote was issued"},
    {"sim_event_heap_size", "events",
     "Pending events on the SimExecutor heap, sampled at each dispatch"},
    {"fleet_round_latency_ms", "ms",
     "Simulated end-to-end fleet round latency (client arrival to verifier verdict)"},
    {"fleet_verifier_busy_ms", "ms",
     "Simulated time a verifier-farm worker spent verifying one fleet round"},
    {"vtpm_queue_age_ms", "ms",
     "Simulated age of a tenant request when the multiplexer dispatched (or shed) it"},
    {"vtpm_round_latency_ms", "ms",
     "Simulated end-to-end vTPM quote latency (tenant enqueue to completion callback)"},
    {"fleet_hedge_delay_ms", "ms",
     "Hedge delay in force when each hedge fired (p95 of observed ack round-trips)"},
    {"fleet_verifier_mttr_ms", "ms",
     "Simulated time a verifier's breaker stayed open before a probe re-closed it"},
    {"hv_exit_latency_ms", "ms",
     "Simulated cost of one guest exit round trip (two world switches plus handler)"},
    {"hv_session_concurrency", "sessions",
     "Concurrent hypervisor PAL sessions active, sampled at each session start"},
};

const char* TypeName(MetricType type) {
  return type == MetricType::kCounter ? "counter" : "histogram";
}

}  // namespace

const MetricDef& CounterDef(Ctr c) { return kCounterDefs[static_cast<size_t>(c)]; }
const MetricDef& HistogramDef(Hist h) { return kHistogramDefs[static_cast<size_t>(h)]; }

MetricsRegistry::MetricsRegistry() = default;

MetricsRegistry* MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

void MetricsRegistry::Observe(Hist h, double value_ms) {
  HistogramState& state = histograms_[static_cast<size_t>(h)];
  int bucket = kHistogramBucketCount - 1;
  for (int i = 0; i < kHistogramBucketCount - 1; ++i) {
    if (value_ms <= kHistogramBoundsMs[i]) {
      bucket = i;
      break;
    }
  }
  state.buckets[static_cast<size_t>(bucket)].fetch_add(1, std::memory_order_relaxed);
  state.count.fetch_add(1, std::memory_order_relaxed);
  if (value_ms > 0) {
    state.sum_us.fetch_add(static_cast<uint64_t>(value_ms * 1000.0 + 0.5),
                           std::memory_order_relaxed);
  }
}

uint64_t MetricsRegistry::HistogramCount(Hist h) const {
  return histograms_[static_cast<size_t>(h)].count.load(std::memory_order_relaxed);
}

double MetricsRegistry::HistogramSumMs(Hist h) const {
  return static_cast<double>(
             histograms_[static_cast<size_t>(h)].sum_us.load(std::memory_order_relaxed)) /
         1000.0;
}

uint64_t MetricsRegistry::HistogramBucket(Hist h, int bucket) const {
  if (bucket < 0 || bucket >= kHistogramBucketCount) {
    return 0;
  }
  return histograms_[static_cast<size_t>(h)].buckets[static_cast<size_t>(bucket)].load(
      std::memory_order_relaxed);
}

void MetricsRegistry::DumpText(std::ostream& os) const {
  os << "# flicker metrics dump\n";
  for (size_t i = 0; i < static_cast<size_t>(Ctr::kCount); ++i) {
    os << kCounterDefs[i].name << " " << counters_[i].load(std::memory_order_relaxed) << "\n";
  }
  for (size_t i = 0; i < static_cast<size_t>(Hist::kCount); ++i) {
    const HistogramState& state = histograms_[i];
    os << kHistogramDefs[i].name << "_count " << state.count.load(std::memory_order_relaxed)
       << "\n";
    char sum[64];
    std::snprintf(sum, sizeof(sum), "%.3f",
                  static_cast<double>(state.sum_us.load(std::memory_order_relaxed)) / 1000.0);
    os << kHistogramDefs[i].name << "_sum_ms " << sum << "\n";
    for (int b = 0; b < kHistogramBucketCount; ++b) {
      uint64_t count = state.buckets[static_cast<size_t>(b)].load(std::memory_order_relaxed);
      if (count == 0) {
        continue;  // Sparse: only occupied buckets print.
      }
      if (b < kHistogramBucketCount - 1) {
        char bound[32];
        std::snprintf(bound, sizeof(bound), "%g", kHistogramBoundsMs[b]);
        os << kHistogramDefs[i].name << "_bucket{le=\"" << bound << "\"} " << count << "\n";
      } else {
        os << kHistogramDefs[i].name << "_bucket{le=\"+inf\"} " << count << "\n";
      }
    }
  }
}

void MetricsRegistry::DumpMarkdown(std::ostream& os) {
  os << "# Metrics reference\n"
     << "\n"
     << "Generated by `micro_obs --dump_metrics_md=docs/METRICS.md` from the\n"
     << "definition table in `src/obs/metrics.cc`. Do not edit by hand:\n"
     << "`verify.sh` fails when this file drifts from the code.\n"
     << "\n"
     << "All values aggregate over the life of the process in the global\n"
     << "`obs::MetricsRegistry`. Histograms use the shared bucket bounds\n";
  os << "`{";
  for (int i = 0; i < kHistogramBucketCount - 1; ++i) {
    char bound[32];
    std::snprintf(bound, sizeof(bound), "%g", kHistogramBoundsMs[i]);
    os << (i > 0 ? ", " : "") << bound;
  }
  os << ", +inf}` (simulated milliseconds).\n"
     << "\n"
     << "| Metric | Type | Unit | Description |\n"
     << "|---|---|---|---|\n";
  for (const MetricDef& def : kCounterDefs) {
    os << "| `" << def.name << "` | " << TypeName(MetricType::kCounter) << " | " << def.unit
       << " | " << def.help << " |\n";
  }
  for (const MetricDef& def : kHistogramDefs) {
    os << "| `" << def.name << "` | " << TypeName(MetricType::kHistogram) << " | " << def.unit
       << " | " << def.help << " |\n";
  }
}

void MetricsRegistry::ResetValuesForTesting() {
  for (auto& counter : counters_) {
    counter.store(0, std::memory_order_relaxed);
  }
  for (auto& state : histograms_) {
    for (auto& bucket : state.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    state.count.store(0, std::memory_order_relaxed);
    state.sum_us.store(0, std::memory_order_relaxed);
  }
}

}  // namespace obs
}  // namespace flicker
