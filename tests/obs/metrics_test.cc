// MetricsRegistry: the process-wide home for counters and histograms.
// Exactness under concurrency, fixed histogram bucketing, and deterministic
// text export.

#include "src/obs/metrics.h"

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace flicker {
namespace obs {
namespace {

TEST(MetricsRegistryTest, CountersStartAtZeroAndAccumulate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.Get(Ctr::kTpmCommands), 0u);
  registry.Inc(Ctr::kTpmCommands);
  registry.Inc(Ctr::kTpmCommands, 41);
  EXPECT_EQ(registry.Get(Ctr::kTpmCommands), 42u);
  // Other counters are untouched.
  EXPECT_EQ(registry.Get(Ctr::kFlickerSessions), 0u);
}

TEST(MetricsRegistryTest, EveryStandardMetricHasNameUnitAndHelp) {
  for (int i = 0; i < static_cast<int>(Ctr::kCount); ++i) {
    const MetricDef& def = CounterDef(static_cast<Ctr>(i));
    EXPECT_NE(def.name[0], '\0') << "counter " << i;
    EXPECT_NE(def.unit[0], '\0') << "counter " << i;
    EXPECT_NE(def.help[0], '\0') << "counter " << i;
  }
  for (int i = 0; i < static_cast<int>(Hist::kCount); ++i) {
    const MetricDef& def = HistogramDef(static_cast<Hist>(i));
    EXPECT_NE(def.name[0], '\0') << "histogram " << i;
    EXPECT_NE(def.unit[0], '\0') << "histogram " << i;
    EXPECT_NE(def.help[0], '\0') << "histogram " << i;
  }
}

TEST(MetricsRegistryTest, StandardMetricNamesAreUnique) {
  std::vector<std::string> names;
  for (int i = 0; i < static_cast<int>(Ctr::kCount); ++i) {
    names.push_back(CounterDef(static_cast<Ctr>(i)).name);
  }
  for (int i = 0; i < static_cast<int>(Hist::kCount); ++i) {
    names.push_back(HistogramDef(static_cast<Hist>(i)).name);
  }
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

TEST(MetricsRegistryTest, HistogramBucketsFollowTheFixedBounds) {
  MetricsRegistry registry;
  registry.Observe(Hist::kTpmCommandLatencyMs, 0.05);   // <= 0.1 -> bucket 0
  registry.Observe(Hist::kTpmCommandLatencyMs, 0.1);    // boundary lands low
  registry.Observe(Hist::kTpmCommandLatencyMs, 1.5);    // <= 2 -> bucket 3
  registry.Observe(Hist::kTpmCommandLatencyMs, 972.0);  // <= 1000 -> bucket 11
  registry.Observe(Hist::kTpmCommandLatencyMs, 9999.0); // > 5000 -> +inf
  EXPECT_EQ(registry.HistogramBucket(Hist::kTpmCommandLatencyMs, 0), 2u);
  EXPECT_EQ(registry.HistogramBucket(Hist::kTpmCommandLatencyMs, 3), 1u);
  EXPECT_EQ(registry.HistogramBucket(Hist::kTpmCommandLatencyMs, 11), 1u);
  EXPECT_EQ(registry.HistogramBucket(Hist::kTpmCommandLatencyMs, kHistogramBucketCount - 1), 1u);
  EXPECT_EQ(registry.HistogramCount(Hist::kTpmCommandLatencyMs), 5u);
  EXPECT_NEAR(registry.HistogramSumMs(Hist::kTpmCommandLatencyMs), 10972.65, 0.01);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.Inc(Ctr::kNetMessagesSent);
        registry.Observe(Hist::kSessionCallLatencyMs, 1.0);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.Get(Ctr::kNetMessagesSent),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.HistogramCount(Hist::kSessionCallLatencyMs),
            static_cast<uint64_t>(kThreads) * kPerThread);
  // value 1.0 lands in the `le=1` bucket every time - no lost updates.
  EXPECT_EQ(registry.HistogramBucket(Hist::kSessionCallLatencyMs, 2),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, DumpTextIsDeterministicAndSparse) {
  MetricsRegistry registry;
  registry.Inc(Ctr::kFlickerSessions, 2);
  registry.Observe(Hist::kSkinitLatencyMs, 14.3);

  std::ostringstream a;
  registry.DumpText(a);
  std::ostringstream b;
  registry.DumpText(b);
  EXPECT_EQ(a.str(), b.str());

  const std::string dump = a.str();
  EXPECT_NE(dump.find("flicker_sessions_total 2"), std::string::npos);
  EXPECT_NE(dump.find("skinit_latency_ms_count 1"), std::string::npos);
  EXPECT_NE(dump.find("skinit_latency_ms_bucket{le=\"20\"} 1"), std::string::npos);
  // Sparse: empty buckets never print.
  EXPECT_EQ(dump.find("skinit_latency_ms_bucket{le=\"0.1\"}"), std::string::npos);
}

TEST(MetricsRegistryTest, MarkdownReferenceListsEveryStandardMetric) {
  std::ostringstream os;
  MetricsRegistry::DumpMarkdown(os);
  const std::string md = os.str();
  for (int i = 0; i < static_cast<int>(Ctr::kCount); ++i) {
    EXPECT_NE(md.find(CounterDef(static_cast<Ctr>(i)).name), std::string::npos);
  }
  for (int i = 0; i < static_cast<int>(Hist::kCount); ++i) {
    EXPECT_NE(md.find(HistogramDef(static_cast<Hist>(i)).name), std::string::npos);
  }
  EXPECT_NE(md.find("Do not edit by hand"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetZeroesValues) {
  MetricsRegistry registry;
  registry.Inc(Ctr::kPowerCuts, 7);
  registry.Observe(Hist::kFlickerSessionTotalMs, 100.0);

  registry.ResetValuesForTesting();
  EXPECT_EQ(registry.Get(Ctr::kPowerCuts), 0u);
  EXPECT_EQ(registry.HistogramCount(Hist::kFlickerSessionTotalMs), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace flicker
