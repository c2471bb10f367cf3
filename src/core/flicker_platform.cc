#include "src/core/flicker_platform.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flicker {

FlickerPlatformConfig CompactPlatformConfig() {
  FlickerPlatformConfig config;
  config.machine.memory_bytes = 0x180000;  // 1.5 MB.
  config.kernel.text_base = 0x120000;
  config.kernel.text_size = 64 * 1024;
  config.kernel.syscall_table_base = 0x134000;
  config.kernel.syscall_table_size = 4096;
  config.kernel.modules_base = 0x136000;
  config.kernel.modules = {{"tpm_tis", 16 * 1024}};
  return config;
}

FlickerPlatform::FlickerPlatform(const FlickerPlatformConfig& config)
    : mode_(config.mode),
      machine_(config.machine),
      kernel_(&machine_, config.kernel),
      scheduler_(&machine_),
      module_(&machine_, &kernel_, &scheduler_),
      tqd_(&machine_, config.tqd_max_batch_size),
      hv_(&machine_, config.hv) {
  machine_.set_measurement_engine(&measurement_cache_);
}

Status FlickerPlatform::EnsureHypervisorResident() {
  if (hv_.resident()) {
    return Status::Ok();
  }
  // The one-time launch is a classic SKINIT: park the APs around it, then
  // every core resumes under the hypervisor.
  FLICKER_RETURN_IF_ERROR(scheduler_.DescheduleAps());
  for (int cpu = 1; cpu < machine_.num_cpus(); ++cpu) {
    FLICKER_RETURN_IF_ERROR(machine_.apic()->SendInitIpi(cpu));
  }
  Status launched = hv_.LateLaunch();
  Status restored = scheduler_.RestoreAps();
  FLICKER_RETURN_IF_ERROR(launched);
  return restored;
}

Result<FlickerSessionResult> FlickerPlatform::ExecuteSession(const PalBinary& binary,
                                                             const Bytes& inputs,
                                                             const SlbCoreOptions& options) {
  FlickerSessionResult result;
  // Ids are assigned whether or not a tracer is installed, so a session's
  // identity is stable across traced and untraced runs of the same seed.
  result.session_id = ++sessions_started_;
  obs::Count(obs::Ctr::kFlickerSessions);
  obs::ScopedSession session_scope(result.session_id);
  obs::ScopedSpan session_span("core", "flicker.session");
  session_span.Arg("id", result.session_id);
  const uint64_t session_start_ns = obs::NowNs(machine_.clock());

  Result<FlickerSessionResult> completed =
      mode_ == SessionMode::kConcurrent
          ? ExecuteConcurrentSession(binary, inputs, options, std::move(result))
          : ExecuteClassicSession(binary, inputs, options, std::move(result));
  if (completed.ok()) {
    obs::ObserveMs(obs::Hist::kFlickerSessionTotalMs,
                   static_cast<double>(obs::NowNs(machine_.clock()) - session_start_ns) / 1e6);
  }
  return completed;
}

Result<FlickerSessionResult> FlickerPlatform::ExecuteClassicSession(
    const PalBinary& binary, const Bytes& inputs, const SlbCoreOptions& options,
    FlickerSessionResult result) {
  SimStopwatch total_watch(machine_.clock());

  // Untrusted staging via the sysfs interface.
  {
    obs::ScopedSpan stage_span("core", "platform.stage");
    FLICKER_RETURN_IF_ERROR(module_.WriteSlb(binary.image));
    FLICKER_RETURN_IF_ERROR(module_.WriteInputs(inputs));
  }

  SimStopwatch suspend_watch(machine_.clock());
  Result<SkinitLaunch> launch = [&]() {
    // AP parking, kernel state save and the SKINIT instruction itself; the
    // hw.skinit child span marks where suspend ends and the launch begins.
    obs::ScopedSpan suspend_span("core", "platform.suspend_skinit");
    return module_.StartSession();
  }();
  if (!launch.ok()) {
    return launch.status();
  }
  result.launch = launch.value();
  // StartSession covers both the suspend dance and SKINIT; attribute the
  // modeled SKINIT cost to skinit_ms and the remainder to suspend_ms.
  result.skinit_ms = machine_.timing().SkinitMillis(result.launch.slb_length);
  result.suspend_ms = suspend_watch.ElapsedMillis() - result.skinit_ms;
  if (result.suspend_ms < 0) {
    result.suspend_ms = 0;
  }

  Result<SessionRecord> record = SlbCore::Run(&machine_, result.launch, binary, options);
  if (!record.ok()) {
    // The platform is wedged mid-session; surface the error after forcing
    // the machine back to a sane state.
    machine_.Reboot();
    return record.status();
  }
  result.record = record.take();

  {
    obs::ScopedSpan resume_span("core", "platform.resume");
    FLICKER_RETURN_IF_ERROR(module_.FinishSession());
  }
  result.session_total_ms = total_watch.ElapsedMillis();
  // Classically the whole machine is suspended for the session's duration.
  result.os_pause_ms = result.session_total_ms;
  return result;
}

Result<FlickerSessionResult> FlickerPlatform::ExecuteConcurrentSession(
    const PalBinary& binary, const Bytes& inputs, const SlbCoreOptions& options,
    FlickerSessionResult result) {
  SimStopwatch total_watch(machine_.clock());
  const uint64_t pause_before_ns = hv_.stats().os_pause_ns;

  {
    obs::ScopedSpan stage_span("core", "platform.stage");
    FLICKER_RETURN_IF_ERROR(module_.WriteSlb(binary.image));
    FLICKER_RETURN_IF_ERROR(module_.WriteInputs(inputs));
  }

  FLICKER_RETURN_IF_ERROR(EnsureHypervisorResident());
  const uint64_t slot = hv_.FreeSlotBase();
  if (slot == 0) {
    return ResourceExhaustedError("no free hypervisor PAL slot");
  }
  FLICKER_RETURN_IF_ERROR(module_.StageForHypervisorAt(slot));

  Result<uint64_t> session_id = [&]() {
    obs::ScopedSpan start_span("core", "platform.hv_start_session");
    return hv_.HcStartSession(slot);
  }();
  if (!session_id.ok()) {
    return session_id.status();
  }
  result.hv_session_id = session_id.value();

  Result<SessionRecord> record = [&]() {
    obs::ScopedSpan run_span("core", "platform.hv_run_session");
    return hv_.RunSession(result.hv_session_id, binary, options);
  }();
  if (!record.ok()) {
    // The hypervisor already tore the session down; the OS never stopped.
    return record.status();
  }
  result.record = record.take();
  // The launch descriptor is what the hypervisor measured when it
  // protected the slot - the same fields SKINIT would have produced.
  if (const hv::HvSession* session = hv_.FindSession(result.hv_session_id)) {
    result.launch = session->launch;
  }

  {
    obs::ScopedSpan collect_span("core", "platform.hv_collect");
    FLICKER_RETURN_IF_ERROR(module_.CollectOutputsAt(slot));
    Result<Bytes> collected = hv_.HcCollectOutputs(result.hv_session_id);
    if (!collected.ok()) {
      return collected.status();
    }
  }

  result.skinit_ms = 0;   // No per-session SKINIT: that is the whole point.
  result.suspend_ms = 0;  // The OS was never suspended.
  result.session_total_ms = total_watch.ElapsedMillis();
  result.os_pause_ms =
      static_cast<double>(hv_.stats().os_pause_ns - pause_before_ns) / 1e6;
  return result;
}

}  // namespace flicker
