// Tracer mechanics: span nesting, session tagging, the EmitComplete path
// the TPM transport and the lossy wire use, the shared sim-clock nanosecond
// epoch their records sit on, and the deterministic Chrome trace_event
// export.

#include "src/obs/trace.h"

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/hw/clock.h"
#include "src/hw/timing.h"
#include "src/net/lossy_channel.h"
#include "src/tpm/transport.h"

namespace flicker {
namespace obs {
namespace {

TEST(TracerTest, SpansNestByStackDiscipline) {
  SimClock clock;
  Tracer tracer(&clock);
  uint64_t outer = tracer.BeginSpan("test", "outer");
  clock.AdvanceMillis(5);
  uint64_t inner = tracer.BeginSpan("test", "inner");
  clock.AdvanceMillis(2);
  tracer.EndSpan(inner);
  clock.AdvanceMillis(1);
  tracer.EndSpan(outer);

  ASSERT_EQ(tracer.spans().size(), 2u);
  const SpanRecord& outer_span = tracer.spans()[0];
  const SpanRecord& inner_span = tracer.spans()[1];
  EXPECT_EQ(outer_span.parent_id, 0u);
  EXPECT_EQ(inner_span.parent_id, outer_span.id);
  EXPECT_EQ(outer_span.start_ns, 0u);
  EXPECT_EQ(outer_span.end_ns, 8'000'000u);
  EXPECT_EQ(inner_span.start_ns, 5'000'000u);
  EXPECT_EQ(inner_span.end_ns, 7'000'000u);
  EXPECT_FALSE(outer_span.open);
  EXPECT_EQ(tracer.open_depth(), 0u);
}

TEST(TracerTest, MismatchedEndClosesEverythingAbove) {
  SimClock clock;
  Tracer tracer(&clock);
  uint64_t a = tracer.BeginSpan("test", "a");
  tracer.BeginSpan("test", "b");
  tracer.BeginSpan("test", "c");
  tracer.EndSpan(a);  // Instrumentation bug: b and c were never ended.
  EXPECT_EQ(tracer.open_depth(), 0u);
  for (const SpanRecord& span : tracer.spans()) {
    EXPECT_FALSE(span.open) << span.name;
  }
}

TEST(TracerTest, EmitCompleteParentsUnderInnermostOpenSpan) {
  SimClock clock;
  Tracer tracer(&clock);
  uint64_t parent = tracer.BeginSpan("test", "parent");
  clock.AdvanceMillis(10);
  tracer.EmitComplete("tpm", "TPM_ORD_Extend", NowNs(&clock) - 1'000'000, NowNs(&clock));
  tracer.EndSpan(parent);

  ASSERT_EQ(tracer.spans().size(), 2u);
  const SpanRecord& cmd = tracer.spans()[1];
  EXPECT_EQ(cmd.parent_id, parent);
  EXPECT_EQ(cmd.name, "TPM_ORD_Extend");
  EXPECT_EQ(cmd.end_ns - cmd.start_ns, 1'000'000u);
  EXPECT_FALSE(cmd.open);
}

TEST(TracerTest, EmitCompleteClampsBackwardsIntervals) {
  SimClock clock;
  Tracer tracer(&clock);
  tracer.EmitComplete("test", "backwards", 500, 100);
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].start_ns, 500u);
  EXPECT_EQ(tracer.spans()[0].end_ns, 500u);
}

TEST(TracerTest, EmitCompleteKeepsItsArgs) {
  SimClock clock;
  Tracer tracer(&clock);
  tracer.EmitComplete("tpm", "TPM_ORD_PcrRead", 0, 400'000, {{"locality", "0"}, {"rc", "0x0"}});
  const std::string json = tracer.ExportChromeTrace();
  EXPECT_NE(json.find("\"locality\":\"0\",\"rc\":\"0x0\""), std::string::npos) << json;
}

TEST(TracerTest, SessionTagsOnlySpansInsideTheScope) {
  SimClock clock;
  Tracer tracer(&clock);
  tracer.BeginSpan("test", "before");
  uint64_t previous = tracer.SetSession(3);
  EXPECT_EQ(previous, 0u);
  tracer.BeginSpan("test", "inside");
  tracer.Instant("test", "inside_instant");
  tracer.SetSession(previous);
  tracer.BeginSpan("test", "after");

  EXPECT_EQ(tracer.spans()[0].session_id, 0u);
  EXPECT_EQ(tracer.spans()[1].session_id, 3u);
  EXPECT_EQ(tracer.instants()[0].session_id, 3u);
  EXPECT_EQ(tracer.spans()[2].session_id, 0u);
}

TEST(TracerTest, ScopedHelpersNoOpWithoutGlobalTracer) {
  ASSERT_EQ(GlobalTracer(), nullptr);
  {
    ScopedSpan span("test", "orphan");
    span.Arg("key", std::string("value"));
    Instant("test", "orphan_instant");
    ScopedSession session(7);
  }
  // Nothing crashed, nothing recorded anywhere: that is the whole contract.
}

TEST(TracerTest, ScopedHelpersRecordAgainstInstalledTracer) {
  SimClock clock;
  ScopedTracer tracer(&clock);
  {
    ScopedSession session(4);
    ScopedSpan span("test", "scoped");
    span.Arg("bytes", static_cast<uint64_t>(512));
    clock.AdvanceMillis(3);
    Instant("test", "marker");
  }
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].session_id, 4u);
  EXPECT_EQ(tracer.spans()[0].end_ns, 3'000'000u);
  ASSERT_EQ(tracer.spans()[0].args.size(), 1u);
  EXPECT_EQ(tracer.spans()[0].args[0].key, "bytes");
  EXPECT_EQ(tracer.spans()[0].args[0].value, "512");
  ASSERT_EQ(tracer.instants().size(), 1u);
  EXPECT_EQ(tracer.instants()[0].session_id, 4u);
  EXPECT_EQ(tracer.current_session(), 0u);  // ScopedSession restored.
}

TEST(TracerTest, ScopedTracerRestoresThePreviousTracer) {
  SimClock clock;
  ScopedTracer outer(&clock);
  {
    ScopedTracer inner(&clock);
    EXPECT_EQ(GlobalTracer(), &inner);
  }
  EXPECT_EQ(GlobalTracer(), &outer);
}

TEST(TracerTest, InstalledTracersArePerThread) {
  SimClock clock;
  ScopedTracer main_tracer(&clock);
  Tracer* seen_by_worker = &main_tracer;
  std::thread worker([&] { seen_by_worker = GlobalTracer(); });
  worker.join();
  EXPECT_EQ(seen_by_worker, nullptr);
  EXPECT_EQ(GlobalTracer(), &main_tracer);
}

// One task's records: nested spans, an instant between them, and a span
// stamped with an explicit interval.
void RecordTask(const std::string& name) {
  ScopedSpan outer("test", name);
  {
    ScopedSpan inner("test", name + ".inner");
    inner.Arg("task", name);
  }
  Instant("test", "tick", {{"task", name}});
  GlobalTracer()->EmitComplete("test", name + ".done", 5, 9);
}

TEST(TracerTest, ForksAppendedInOrderMatchASerialRecording) {
  SimClock clock;
  Tracer serial(&clock);
  {
    ScopedInstall install(&serial);
    ScopedProcess process(7);
    ScopedSpan root("test", "root");
    RecordTask("a");
    RecordTask("b");
  }

  // The same two tasks, recorded on two threads into forks, the second one
  // finishing first; appending the forks in task order undoes the race.
  Tracer pooled(&clock);
  {
    ScopedInstall install(&pooled);
    ScopedProcess process(7);
    ScopedSpan root("test", "root");
    std::vector<Tracer> forks(2, pooled.Fork());
    std::thread second([&] {
      ScopedInstall task(&forks[1]);
      RecordTask("b");
    });
    second.join();
    {
      ScopedInstall task(&forks[0]);
      RecordTask("a");
    }
    pooled.Append(std::move(forks[0]));
    pooled.Append(std::move(forks[1]));
  }

  ASSERT_EQ(pooled.spans().size(), serial.spans().size());
  for (size_t i = 0; i < serial.spans().size(); ++i) {
    const SpanRecord& want = serial.spans()[i];
    const SpanRecord& got = pooled.spans()[i];
    EXPECT_EQ(got.id, want.id) << want.name;
    EXPECT_EQ(got.parent_id, want.parent_id) << want.name;
    EXPECT_EQ(got.pid, 7u) << want.name;
    EXPECT_EQ(got.name, want.name);
  }
  EXPECT_EQ(pooled.instants().size(), serial.instants().size());
  EXPECT_EQ(pooled.open_depth(), 0u);
  EXPECT_EQ(pooled.ExportChromeTrace(), serial.ExportChromeTrace());
}

TEST(TracerTest, ExportIsByteIdenticalForIdenticalHistories) {
  auto record = [](Tracer* tracer, SimClock* clock) {
    uint64_t span = tracer->BeginSpan("test", "work");
    clock->AdvanceMillis(7);
    tracer->Instant("test", "tick", {{"n", "1"}});
    tracer->EndSpan(span);
  };
  SimClock clock_a;
  Tracer tracer_a(&clock_a);
  record(&tracer_a, &clock_a);
  SimClock clock_b;
  Tracer tracer_b(&clock_b);
  record(&tracer_b, &clock_b);
  EXPECT_EQ(tracer_a.ExportChromeTrace(), tracer_b.ExportChromeTrace());
}

TEST(TracerTest, ExportRendersExactMicrosecondTimestamps) {
  SimClock clock;
  Tracer tracer(&clock);
  clock.AdvanceMicros(1234);
  uint64_t span = tracer.BeginSpan("test", "precise");
  clock.AdvanceMicros(501);
  tracer.EndSpan(span);
  const std::string json = tracer.ExportChromeTrace();
  // Integer nanoseconds render as exact microseconds with three decimals:
  // no float formatting drift between runs or platforms.
  EXPECT_NE(json.find("\"ts\":1234.000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":501.000"), std::string::npos) << json;
}

TEST(TracerTest, ExportEscapesHostileStrings) {
  SimClock clock;
  Tracer tracer(&clock);
  uint64_t span = tracer.BeginSpan("test", "quote\"and\\slash");
  tracer.AddSpanArg(span, "msg", "line\nbreak");
  tracer.EndSpan(span);
  const std::string json = tracer.ExportChromeTrace();
  EXPECT_NE(json.find("quote\\\"and\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
}

TEST(TracerTest, SessionIdBecomesChromeTid) {
  SimClock clock;
  Tracer tracer(&clock);
  tracer.SetSession(12);
  uint64_t span = tracer.BeginSpan("test", "in_session");
  tracer.EndSpan(span);
  const std::string json = tracer.ExportChromeTrace();
  EXPECT_NE(json.find("\"tid\":12"), std::string::npos) << json;
}

// ---- The shared epoch: TPM and wire records on one nanosecond clock ----

const SpanRecord* LastSpanNamed(const Tracer& tracer, const std::string& name) {
  const SpanRecord* last = nullptr;
  for (const SpanRecord& span : tracer.spans()) {
    if (span.name == name) {
      last = &span;
    }
  }
  return last;
}

TEST(TracerTest, TpmSpansSitOnTheSimClockNanosecondEpoch) {
  SimClock clock;
  Tpm tpm(&clock, BroadcomBcm0102Profile());
  TpmTransport transport(&tpm);
  TpmClient client(&transport);
  ScopedTracer tracer(&clock);

  clock.AdvanceMicros(2500);  // A non-zero epoch offset the span must carry.
  ASSERT_TRUE(client.PcrRead(0).ok());
  const SpanRecord* read = LastSpanNamed(tracer, "TPM_ORD_PcrRead");
  ASSERT_NE(read, nullptr);
  // Dispatch completed exactly now, and the charged latency began after the
  // pre-advance epoch.
  EXPECT_EQ(read->end_ns, NowNs(&clock));
  EXPECT_EQ(read->start_ns, 2'500'000u);
}

TEST(TracerTest, WireRecordsSitOnTheSimClockNanosecondEpoch) {
  SimClock clock;
  LossyChannel channel(&clock);
  ScopedTracer tracer(&clock);

  clock.AdvanceMicros(1200);
  const uint64_t sent_ns = NowNs(&clock);
  channel.Send(NetEndpoint::kClient, BytesOf("hello"));
  Bytes out;
  ASSERT_TRUE(channel.Receive(NetEndpoint::kServer, &out));

  const SpanRecord* send = LastSpanNamed(tracer, "net.send");
  ASSERT_NE(send, nullptr);
  EXPECT_EQ(send->start_ns, sent_ns);
  // Receive() advanced the clock exactly to the scheduled arrival.
  EXPECT_EQ(send->end_ns, NowNs(&clock));
  EXPECT_GT(send->end_ns, send->start_ns);
}

TEST(TracerTest, CrossLayerRecordsOrderOnTheSharedEpoch) {
  // One clock drives both layers, as on the simulated platform: a network
  // frame arrives, then the TPM command it triggered runs. The export lists
  // the frame first, and its arrival precedes the command's completion.
  SimClock clock;
  Tpm tpm(&clock, BroadcomBcm0102Profile());
  TpmTransport transport(&tpm);
  TpmClient client(&transport);
  LossyChannel channel(&clock);
  ScopedTracer tracer(&clock);

  channel.Send(NetEndpoint::kClient, BytesOf("challenge"));
  Bytes frame;
  ASSERT_TRUE(channel.Receive(NetEndpoint::kServer, &frame));
  ASSERT_TRUE(client.PcrRead(0).ok());

  const SpanRecord* send = LastSpanNamed(tracer, "net.send");
  const SpanRecord* read = LastSpanNamed(tracer, "TPM_ORD_PcrRead");
  ASSERT_NE(send, nullptr);
  ASSERT_NE(read, nullptr);
  EXPECT_LE(send->start_ns, send->end_ns);
  EXPECT_LE(send->end_ns, read->start_ns);
  const std::string json = tracer.ExportChromeTrace();
  EXPECT_LT(json.find("net.send"), json.find("TPM_ORD_PcrRead")) << json;
}

}  // namespace
}  // namespace obs
}  // namespace flicker
