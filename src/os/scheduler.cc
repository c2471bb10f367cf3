#include "src/os/scheduler.h"

namespace flicker {

void Scheduler::RunFor(double ms) { machine_->clock()->AdvanceMillis(ms); }

Status Scheduler::DescheduleAps() {
  for (int cpu = 1; cpu < machine_->num_cpus(); ++cpu) {
    machine_->cpu(cpu)->state = CpuState::kIdle;
  }
  return Status::Ok();
}

Status Scheduler::RestoreAps() {
  for (int cpu = 1; cpu < machine_->num_cpus(); ++cpu) {
    if (machine_->cpu(cpu)->state == CpuState::kInit) {
      FLICKER_RETURN_IF_ERROR(machine_->apic()->SendStartupIpi(cpu));
    } else {
      machine_->cpu(cpu)->state = CpuState::kRunning;
    }
  }
  return Status::Ok();
}

}  // namespace flicker
