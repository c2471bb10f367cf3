#include "src/os/interactivity.h"

#include <gtest/gtest.h>

namespace flicker {
namespace {

TEST(InteractivityTest, NoSessionsNoLoss) {
  InteractivityParams params;
  params.session_ms = 0;
  params.os_window_ms = 1000;
  InteractivityReport report = SimulateUserInputDuringSessions(params);
  EXPECT_GT(report.events_total, 0u);
  EXPECT_EQ(report.events_lost, 0u);
}

TEST(InteractivityTest, LongSessionsDropInput) {
  InteractivityParams params;
  params.session_ms = 8300;
  params.os_window_ms = 37;
  params.duration_ms = 60'000;
  InteractivityReport report = SimulateUserInputDuringSessions(params);
  // 8.3 s at 30 Hz is ~249 events per session; the 16-slot buffer saves
  // only a fraction.
  EXPECT_GT(report.loss_fraction, 0.5);
  EXPECT_DOUBLE_EQ(report.longest_hang_ms, 8300);
}

TEST(InteractivityTest, ShortSessionsFitTheBuffer) {
  InteractivityParams params;
  params.session_ms = 400;  // 12 events at 30 Hz: fits in 16 slots.
  params.os_window_ms = 100;
  InteractivityReport report = SimulateUserInputDuringSessions(params);
  EXPECT_EQ(report.events_lost, 0u);
}

TEST(InteractivityTest, LossMonotoneInSessionLength) {
  double previous = -1;
  for (double session_ms : {500.0, 1000.0, 2000.0, 4000.0, 8000.0}) {
    InteractivityParams params;
    params.session_ms = session_ms;
    params.duration_ms = 120'000;
    double loss = SimulateUserInputDuringSessions(params).loss_fraction;
    EXPECT_GE(loss, previous) << "session " << session_ms;
    previous = loss;
  }
}

TEST(InteractivityTest, DegenerateParamsSafe) {
  InteractivityParams params;
  params.duration_ms = 0;
  EXPECT_EQ(SimulateUserInputDuringSessions(params).events_total, 0u);
}

}  // namespace
}  // namespace flicker
