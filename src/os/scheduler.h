// Process scheduling and CPU hotplug.
//
// The only scheduling behaviour Flicker depends on is the §4.2 suspend
// sequence: CPU-hotplug deschedules every Application Processor so the
// flicker-module can park the APs with INIT IPIs before SKINIT. No task is
// ever modelled, so there are no run queues.

#ifndef FLICKER_SRC_OS_SCHEDULER_H_
#define FLICKER_SRC_OS_SCHEDULER_H_

#include "src/common/status.h"
#include "src/hw/machine.h"

namespace flicker {

class Scheduler {
 public:
  explicit Scheduler(Machine* machine) : machine_(machine) {}

  // The OS runs for `ms` of simulated time between sessions.
  void RunFor(double ms);

  // CPU hotplug offline: mark the APs idle, so they can accept INIT IPIs.
  Status DescheduleAps();

  // Post-session: send Startup IPIs to parked APs, resume the idle ones.
  Status RestoreAps();

 private:
  Machine* machine_;
};

}  // namespace flicker

#endif  // FLICKER_SRC_OS_SCHEDULER_H_
