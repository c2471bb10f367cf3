// Virtual time for the simulated platform.
//
// Every latency the paper measures (SKINIT transfer, TPM command times, PAL
// compute) is charged to a SimClock by the component that models it. Benches
// then report simulated milliseconds, which is what reproduces the paper's
// tables regardless of host speed.
//
// Time is kept in integer nanoseconds, the same unit and epoch the unified
// trace stream (obs::NowNs) reports in - TPM command spans and wire records
// included - so there is no second epoch to convert to. AdvanceMillis
// rounds each charge to the microsecond (the resolution the calibrated
// tables were captured at) before widening to ns, so the migration to a ns
// epoch did not move any bench number.
//
// Time discipline: a SimClock may only move forward through the advancement
// verbs below, and only from the discrete-event engine (src/sim/) or one of
// the hardware-model charge sites enumerated in
// tools/time_discipline.allow - verify.sh greps every other caller away.
// Components that want "run X later" semantics post an event on a
// sim::SimExecutor instead of spinning the clock themselves.

#ifndef FLICKER_SRC_HW_CLOCK_H_
#define FLICKER_SRC_HW_CLOCK_H_

#include <cstdint>

namespace flicker {

class SimClock {
 public:
  SimClock() = default;

  uint64_t NowNanos() const { return now_ns_; }
  uint64_t NowMicros() const { return now_ns_ / 1000; }
  double NowMillis() const { return static_cast<double>(now_ns_) / 1e6; }

  void AdvanceMicros(uint64_t micros) { now_ns_ += micros * 1000; }
  // Quantized to the microsecond grain (then widened to ns): fractional-µs
  // charges accumulate exactly as they did when the clock counted µs, which
  // keeps the calibrated bench tables byte-identical across the ns
  // migration.
  void AdvanceMillis(double millis) {
    if (millis > 0) {
      now_ns_ += static_cast<uint64_t>(millis * 1000.0 + 0.5) * 1000;
    }
  }
  // Moves to an absolute instant, never backwards: the verb the event engine
  // (and scheduled-delivery channels) use to land on an event's timestamp.
  void AdvanceToNanos(uint64_t ns) {
    if (ns > now_ns_) {
      now_ns_ = ns;
    }
  }

 private:
  uint64_t now_ns_ = 0;
};

// RAII span measuring elapsed simulated time, used by benches to attribute
// costs to protocol phases.
class SimStopwatch {
 public:
  explicit SimStopwatch(const SimClock* clock) : clock_(clock), start_ns_(clock->NowNanos()) {}

  double ElapsedMillis() const {
    return static_cast<double>(clock_->NowNanos() - start_ns_) / 1e6;
  }

 private:
  const SimClock* clock_;
  uint64_t start_ns_;
};

}  // namespace flicker

#endif  // FLICKER_SRC_HW_CLOCK_H_
