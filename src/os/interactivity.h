// User-interactivity impact model for Flicker sessions (§7.5 discussion:
// "While a Flicker session runs, the user will perceive a hang on the
// machine. Keyboard and mouse input during the Flicker session may be
// lost.").
//
// Input events arrive at a steady rate; the keyboard/mouse controller
// buffers a handful while the OS cannot service interrupts, and overflow
// events are lost. This quantifies the trade-off behind §6.2's advice to
// break long computations into multiple sessions.

#ifndef FLICKER_SRC_OS_INTERACTIVITY_H_
#define FLICKER_SRC_OS_INTERACTIVITY_H_

#include <cstdint>

namespace flicker {

// Input arrives at 30 Hz (sustained typing + mouse movement) into a
// 16-event i8042-style controller FIFO, which holds events while
// interrupts are off.
struct InteractivityParams {
  // Session pattern, as in the block-device model.
  double session_ms = 8300.0;
  double os_window_ms = 37.0;
  double duration_ms = 60'000.0;
};

struct InteractivityReport {
  uint64_t events_total = 0;
  uint64_t events_lost = 0;
  double loss_fraction = 0.0;
  double longest_hang_ms = 0.0;  // Longest stretch without event servicing.
};

InteractivityReport SimulateUserInputDuringSessions(const InteractivityParams& params);

}  // namespace flicker

#endif  // FLICKER_SRC_OS_INTERACTIVITY_H_
