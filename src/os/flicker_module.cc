#include "src/os/flicker_module.h"

#include "src/slb/slb_core.h"

namespace flicker {

FlickerModule::FlickerModule(Machine* machine, OsKernel* kernel, Scheduler* scheduler)
    : machine_(machine), kernel_(kernel), scheduler_(scheduler) {}

Status FlickerModule::WriteSlb(const Bytes& image) {
  if (image.size() != kSlbRegionSize) {
    return InvalidArgumentError("SLB image must be exactly 64 KB");
  }
  staged_slb_ = image;
  return Status::Ok();
}

Status FlickerModule::WriteInputs(const Bytes& inputs) {
  if (inputs.size() + 4 > kSlbIoPageSize) {
    return ResourceExhaustedError("inputs exceed the 4 KB input page");
  }
  staged_inputs_ = inputs;
  return Status::Ok();
}

Result<SkinitLaunch> FlickerModule::StartSession() {
  if (staged_slb_.empty()) {
    return FailedPreconditionError("no SLB staged; write the slb entry first");
  }
  if (machine_->in_secure_session()) {
    return FailedPreconditionError("a session is already active");
  }

  // "Initialize the SLB": patch the skeleton GDT/TSS for the load address.
  Bytes patched = staged_slb_;
  PatchSlbImage(&patched, kSlbFixedBase);
  if (corrupt_slb_before_launch_) {
    patched[kSlbCodeOffset + 100] ^= 0xff;  // Malicious-OS tampering.
  }
  FLICKER_RETURN_IF_ERROR(machine_->memory()->Write(kSlbFixedBase, patched));
  FLICKER_RETURN_IF_ERROR(
      WriteIoPage(machine_->memory(), kSlbFixedBase + kSlbInputsOffset, staged_inputs_));

  // "Suspend OS": save kernel state to the well-known page, then use CPU
  // hotplug to idle the APs and park them with INIT IPIs.
  Bytes saved_state;
  PutUint64(&saved_state, machine_->bsp()->cr3);
  FLICKER_RETURN_IF_ERROR(
      WriteIoPage(machine_->memory(), kSlbFixedBase + kSlbSavedStateOffset, saved_state));

  FLICKER_RETURN_IF_ERROR(scheduler_->DescheduleAps());
  for (int cpu = 1; cpu < machine_->num_cpus(); ++cpu) {
    FLICKER_RETURN_IF_ERROR(machine_->apic()->SendInitIpi(cpu));
  }

  Result<SkinitLaunch> launch = machine_->Skinit(machine_->bsp()->id, kSlbFixedBase);
  if (!launch.ok()) {
    // Roll back the suspension so the OS keeps running.
    Status st = scheduler_->RestoreAps();
    (void)st;
    return launch.status();
  }
  session_prepared_ = true;
  return launch;
}

namespace {

// WriteIoPage, but through the guest-access path: in hypervisor mode the
// module runs as a guest and its stores are subject to nested paging.
Status GuestWriteIoPage(Machine* machine, int cpu, uint64_t page_addr, const Bytes& data) {
  if (data.size() + 4 > kSlbIoPageSize) {
    return ResourceExhaustedError("payload exceeds 4 KB I/O page");
  }
  Bytes page;
  PutUint32(&page, static_cast<uint32_t>(data.size()));
  page.insert(page.end(), data.begin(), data.end());
  return machine->GuestWrite(cpu, page_addr, page);
}

}  // namespace

Status FlickerModule::StageForHypervisorAt(uint64_t base) {
  if (staged_slb_.empty()) {
    return FailedPreconditionError("no SLB staged; write the slb entry first");
  }
  const int bsp = machine_->bsp()->id;

  // Same untrusted pre-launch steps as StartSession, minus the suspend
  // dance: patch for the load address, copy image + inputs + saved state.
  Bytes patched = staged_slb_;
  PatchSlbImage(&patched, base);
  if (corrupt_slb_before_launch_) {
    patched[kSlbCodeOffset + 100] ^= 0xff;  // Malicious-OS tampering.
  }
  FLICKER_RETURN_IF_ERROR(machine_->GuestWrite(bsp, base, patched));
  FLICKER_RETURN_IF_ERROR(
      GuestWriteIoPage(machine_, bsp, base + kSlbInputsOffset, staged_inputs_));

  Bytes saved_state;
  PutUint64(&saved_state, machine_->bsp()->cr3);
  return GuestWriteIoPage(machine_, bsp, base + kSlbSavedStateOffset, saved_state);
}

Status FlickerModule::CollectOutputsAt(uint64_t base) {
  const int bsp = machine_->bsp()->id;
  Result<Bytes> header = machine_->GuestRead(bsp, base + kSlbOutputsOffset, 4);
  if (!header.ok()) {
    return header.status();
  }
  uint32_t len = GetUint32(header.value(), 0);
  if (len + 4 > kSlbIoPageSize) {
    return InvalidArgumentError("corrupt I/O page length");
  }
  return machine_->GuestRead(bsp, base + kSlbOutputsOffset + 4, len).status();
}

Status FlickerModule::FinishSession() {
  if (!session_prepared_) {
    return FailedPreconditionError("no session to finish");
  }
  session_prepared_ = false;

  // The well-known output page must parse; a corrupt one fails teardown.
  FLICKER_RETURN_IF_ERROR(
      ReadIoPage(*machine_->memory(), kSlbFixedBase + kSlbOutputsOffset).status());

  // Wake the APs and resume multiprocessing.
  FLICKER_RETURN_IF_ERROR(scheduler_->RestoreAps());
  return Status::Ok();
}

}  // namespace flicker
