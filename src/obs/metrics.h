// Central metrics registry: one process-wide home for every counter and
// latency histogram the reproduction maintains.
//
// Before this layer, counters lived wherever the code that bumped them
// happened to be (`replays_rejected` in AttestationService, retransmit
// counts in SessionClient, cache hits in SlbMeasurementCache, ...), so no
// single dump could answer "what did this run do?". The registry is the
// canonical aggregate: every standard metric is declared once in the table
// in metrics.cc (name, type, unit, help), instrumentation sites increment
// by enum id (an array index - no map lookup on the hot path), and the
// whole set exports as a plain-text dump or as the generated
// docs/METRICS.md reference table.
//
// Per-instance accessors (e.g. SessionClient::retransmits()) remain - tests
// and callers want the local view - but the registry sees every increment,
// so the global totals and the local counts can never tell different
// stories.
//
// Thread safety: counters and histogram buckets are atomics. The simulation
// itself is single-threaded, but the registry must not be the reason a
// future multi-platform harness races.

#ifndef FLICKER_SRC_OBS_METRICS_H_
#define FLICKER_SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>

namespace flicker {
namespace obs {

// Standard counters. Adding one: extend this enum (before kCount) and its
// row in kCounterDefs in metrics.cc; docs/METRICS.md is regenerated from
// that table, never edited by hand.
enum class Ctr : int {
  kFlickerSessions = 0,
  kSkinitLaunches,
  kTpmCommands,
  kTpmTransportFaults,
  kTqdRetries,
  kTqdBreakerTrips,
  kTqdChallengesQueued,
  kTqdBatchQuotes,
  kTqdBatchedChallenges,
  kNetMessagesSent,
  kNetMessagesDelivered,
  kNetFaultsInjected,
  kSessionCalls,
  kSessionRetransmits,
  kSessionStaleFrames,
  kSessionRejectedFrames,
  kSessionRequestsHandled,
  kSessionDuplicatesServed,
  kAttestChallengesHandled,
  kAttestReplaysRejected,
  kMeasureHashes,
  kMeasureVerifiedHits,
  kMeasureCleanHits,
  kSealRecoverClean,
  kSealRecoverDiscardedStaged,
  kSealRecoverRolledForward,
  kSealRecoverFailClosed,
  kDmaBlocked,
  kPowerCuts,
  kFleetSessions,
  kFleetRoundsFailed,
  kVtpmQuotes,
  kVtpmExtends,
  kVtpmSnapshots,
  kVtpmRollbacksDetected,
  kVtpmQuarantines,
  kVtpmShed,
  kVtpmRecoveries,
  kSessionOverloadRetries,
  kSessionOverloadSheds,
  kFleetHedgesFired,
  kFleetHedgeWins,
  kFleetOverloadSheds,
  kFleetOverloadResends,
  kFleetVerifierBreakerTrips,
  kFleetVerifierFaults,
  kChaosPlansRun,
  kChaosViolationsFound,
  kHvSessions,
  kHvExits,
  kHvDeniedAccesses,
  kCount
};

// Standard latency histograms (fixed bucket bounds, simulated milliseconds).
enum class Hist : int {
  kTpmCommandLatencyMs = 0,
  kSkinitLatencyMs,
  kFlickerSessionTotalMs,
  kSessionCallLatencyMs,
  kTqdBatchSize,
  kTqdCoalesceWaitMs,
  kSimEventHeapSize,
  kFleetRoundLatencyMs,
  kFleetVerifierBusyMs,
  kVtpmQueueAgeMs,
  kVtpmRoundLatencyMs,
  kFleetHedgeDelayMs,
  kFleetVerifierMttrMs,
  kHvExitLatencyMs,
  kHvSessionConcurrency,
  kCount
};

enum class MetricType { kCounter, kHistogram };

struct MetricDef {
  const char* name;  // Canonical dotted-to-underscore name, e.g. "tpm_commands_total".
  const char* unit;  // "count", "ms", ...
  const char* help;  // One-line description for the generated reference.
};

// Fixed bucket upper bounds shared by every histogram, in milliseconds; the
// last bucket is +inf. Chosen to straddle the paper's measured range: a PCR
// extend is ~1 ms, a Quote ~1 s (Table 1).
inline constexpr double kHistogramBoundsMs[] = {0.1, 0.5, 1, 2, 5,  10,  20,   50,
                                                100, 200, 500, 1000, 2000, 5000};
inline constexpr int kHistogramBucketCount =
    static_cast<int>(sizeof(kHistogramBoundsMs) / sizeof(kHistogramBoundsMs[0])) + 1;

const MetricDef& CounterDef(Ctr c);
const MetricDef& HistogramDef(Hist h);

class MetricsRegistry {
 public:
  MetricsRegistry();

  // The process-wide registry every instrumentation site increments.
  static MetricsRegistry* Global();

  // ---- Hot path (standard metrics; lock-free) ----
  void Inc(Ctr c, uint64_t n = 1) {
    counters_[static_cast<size_t>(c)].fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Get(Ctr c) const {
    return counters_[static_cast<size_t>(c)].load(std::memory_order_relaxed);
  }
  void Observe(Hist h, double value_ms);
  uint64_t HistogramCount(Hist h) const;
  double HistogramSumMs(Hist h) const;
  uint64_t HistogramBucket(Hist h, int bucket) const;

  // ---- Exports ----
  //
  // Plain-text operator dump: every metric with its current value, counters
  // first, then histograms with per-bucket counts. Deterministic order
  // (definition table order).
  void DumpText(std::ostream& os) const;
  // The generated docs/METRICS.md: the canonical name/type/unit/help table.
  static void DumpMarkdown(std::ostream& os);

  // Zeroes every value.
  void ResetValuesForTesting();

 private:
  struct HistogramState {
    std::array<std::atomic<uint64_t>, kHistogramBucketCount> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_us{0};  // Accumulated in integer microseconds.
  };

  std::array<std::atomic<uint64_t>, static_cast<size_t>(Ctr::kCount)> counters_{};
  std::array<HistogramState, static_cast<size_t>(Hist::kCount)> histograms_{};
};

// Shorthand for instrumentation sites: bump a standard counter in the
// global registry.
inline void Count(Ctr c, uint64_t n = 1) { MetricsRegistry::Global()->Inc(c, n); }
inline void ObserveMs(Hist h, double value_ms) { MetricsRegistry::Global()->Observe(h, value_ms); }

}  // namespace obs
}  // namespace flicker

#endif  // FLICKER_SRC_OBS_METRICS_H_
