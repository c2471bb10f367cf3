#include "src/os/interactivity.h"

#include <cmath>

namespace flicker {

namespace {

constexpr double kEventRateHz = 30.0;
constexpr int kControllerBufferEvents = 16;

}  // namespace

InteractivityReport SimulateUserInputDuringSessions(const InteractivityParams& params) {
  InteractivityReport report;
  if (params.duration_ms <= 0) {
    return report;
  }
  const double event_period_ms = 1000.0 / kEventRateHz;
  const double cycle_ms = params.session_ms + params.os_window_ms;

  auto os_suspended = [&](double t) {
    if (params.session_ms <= 0) {
      return false;
    }
    return std::fmod(t, cycle_ms) < params.session_ms;
  };

  int buffered = 0;
  double t = event_period_ms;
  while (t <= params.duration_ms) {
    ++report.events_total;
    if (os_suspended(t)) {
      if (buffered < kControllerBufferEvents) {
        ++buffered;  // Held in the controller FIFO, delivered on resume.
      } else {
        ++report.events_lost;
      }
    } else {
      buffered = 0;  // The OS drained the FIFO during its window.
    }
    t += event_period_ms;
  }

  report.loss_fraction = report.events_total == 0
                             ? 0.0
                             : static_cast<double>(report.events_lost) /
                                   static_cast<double>(report.events_total);
  report.longest_hang_ms = params.session_ms;
  return report;
}

}  // namespace flicker
