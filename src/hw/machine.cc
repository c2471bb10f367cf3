#include "src/hw/machine.h"

#include "src/common/fault.h"
#include "src/crypto/sha1.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flicker {

Bytes SinitAcmMeasurement() {
  // A fixed, public stand-in for the chipset vendor's signed SINIT module.
  return Sha1::Digest(BytesOf("flicker-sim-sinit-acm-v1"));
}

Machine::Machine(const MachineConfig& config)
    : tech_(config.tech),
      timing_(config.timing),
      memory_(config.memory_bytes),
      cpus_(static_cast<size_t>(config.num_cpus)),
      apic_(&cpus_),
      tpm_(&clock_, config.timing.tpm, config.tpm),
      tpm_transport_(&tpm_),
      tpm_client_(&tpm_transport_) {
  for (int i = 0; i < config.num_cpus; ++i) {
    cpus_[static_cast<size_t>(i)].id = i;
    cpus_[static_cast<size_t>(i)].is_bsp = (i == 0);
  }
}

Result<SkinitLaunch> Machine::Skinit(int cpu_index, uint64_t slb_base) {
  if (cpu_index < 0 || cpu_index >= num_cpus()) {
    return InvalidArgumentError("SKINIT: CPU index out of range");
  }
  Cpu& cpu = cpus_[static_cast<size_t>(cpu_index)];

  // SKINIT is a privileged instruction (§5.1.2: only ring 0 may invoke it).
  if (cpu.ring != 0) {
    return PermissionDeniedError("SKINIT is privileged; requires ring 0");
  }
  if (tech_ == LateLaunchTech::kIntelTxt && !cpu.smx_enabled) {
    return FailedPreconditionError("GETSEC[SENTER] requires SMX to be enabled");
  }
  // Multiprocessor preconditions (§4.2): BSP only, all APs parked via INIT.
  if (!cpu.is_bsp) {
    return FailedPreconditionError("SKINIT may only execute on the BSP");
  }
  if (!apic_.AllApsParked()) {
    return FailedPreconditionError("SKINIT requires every AP to have accepted an INIT IPI");
  }
  if (in_secure_session_) {
    return FailedPreconditionError("a secure session is already active");
  }
  if (!memory_.InBounds(slb_base, kSlbRegionSize)) {
    return InvalidArgumentError("SLB region exceeds physical memory");
  }
  // The launch handshake talks to the TPM; a TPM that has not been started
  // up (or is in failure mode) cannot accept the dynamic-PCR reset.
  if (tpm_.lifecycle_state() != TpmLifecycleState::kOperational) {
    return FailedPreconditionError("SKINIT requires an operational TPM (run TPM_Startup)");
  }
  CRASH_POINT("skinit.enter");

  // Preconditions all hold: the launch proper starts here. The span covers
  // measurement, the locality-4 PCR-17 handshake and the modeled SKINIT
  // latency charge - its TPM_HW_SkinitReset child is the paper's dynamic
  // PCR reset event.
  obs::ScopedSpan skinit_span("hw", "hw.skinit");
  obs::Count(obs::Ctr::kSkinitLaunches);
  const uint64_t skinit_start_ns = obs::NowNs(&clock_);

  // Parse and validate the SLB header: first two 16-bit words are length and
  // entry point (§2.4).
  Result<Bytes> header = memory_.Read(slb_base, 4);
  if (!header.ok()) {
    return header.status();
  }
  uint16_t length = static_cast<uint16_t>(header.value()[0] | (header.value()[1] << 8));
  uint16_t entry = static_cast<uint16_t>(header.value()[2] | (header.value()[3] << 8));
  if (length < 4) {
    return InvalidArgumentError("SLB length field smaller than its own header");
  }
  if (entry >= length) {
    return InvalidArgumentError("SLB entry point beyond its length");
  }

  // Hardware protections: DMA exclusion over the full 64 KB region,
  // interrupts off, hardware debugging off (§2.4).
  dev_.Protect(slb_base, kSlbRegionSize);
  cpu.interrupts_enabled = false;
  cpu.debug_access_enabled = false;

  // Measure the SLB contents (length bytes) and stream them to the TPM:
  // dynamic PCRs reset to 0, PCR 17 extended with the measurement. The
  // stream is the dominant latency (Table 2). The host-side digest may come
  // from the measurement cache; the modeled TPM transfer cost is charged
  // regardless, since the hardware streams the bytes every launch.
  Bytes measurement;
  if (measurement_engine_ != nullptr) {
    Result<Bytes> cached = measurement_engine_->Measure(&memory_, slb_base, length, nullptr);
    if (!cached.ok()) {
      return cached.status();
    }
    measurement = cached.take();
  } else {
    Result<Bytes> slb_bytes = memory_.Read(slb_base, length);
    if (!slb_bytes.ok()) {
      return slb_bytes.status();
    }
    measurement = Sha1::Digest(slb_bytes.value());
  }
  CRASH_POINT("skinit.measured");
  if (tech_ == LateLaunchTech::kIntelTxt) {
    // SENTER: the SINIT ACM is authenticated and measured first, then the
    // launched environment - PCR 17 gains the extra well-known link.
    tpm_transport_.hardware()->SkinitReset(SinitAcmMeasurement());
    tpm_transport_.hardware()->ExtendIdentityPcr(measurement);
  } else {
    tpm_transport_.hardware()->SkinitReset(measurement);
  }
  CRASH_POINT("skinit.pcr_extended");
  clock_.AdvanceMillis(timing_.SkinitMillis(length));
  obs::ObserveMs(obs::Hist::kSkinitLatencyMs,
                 static_cast<double>(obs::NowNs(&clock_) - skinit_start_ns) / 1e6);
  skinit_span.Arg("slb_length", static_cast<uint64_t>(length));

  // CPU enters flat 32-bit protected mode at the SLB entry point.
  cpu.paging_enabled = false;
  cpu.ring = 0;
  cpu.LoadFlatSegments();

  in_secure_session_ = true;
  active_slb_base_ = slb_base;

  SkinitLaunch launch;
  launch.slb_base = slb_base;
  launch.slb_length = length;
  launch.entry_point = entry;
  launch.measurement = measurement;
  return launch;
}

Status Machine::ExitSecureMode(int cpu_index, uint64_t restored_cr3) {
  if (cpu_index < 0 || cpu_index >= num_cpus()) {
    return InvalidArgumentError("CPU index out of range");
  }
  if (!in_secure_session_) {
    return FailedPreconditionError("no secure session active");
  }
  CRASH_POINT("machine.exit_secure");
  Cpu& cpu = cpus_[static_cast<size_t>(cpu_index)];
  cpu.LoadFlatSegments();
  cpu.paging_enabled = true;
  cpu.cr3 = restored_cr3;
  cpu.ring = 0;
  cpu.interrupts_enabled = true;
  cpu.debug_access_enabled = true;
  dev_.Unprotect(active_slb_base_, kSlbRegionSize);
  Status locality_dropped = tpm_transport_.hardware()->SetLocality(0);
  (void)locality_dropped;  // Hardware transitions to locality 0 always succeed.
  in_secure_session_ = false;
  active_slb_base_ = 0;
  return Status::Ok();
}

Status Machine::DmaWrite(uint64_t addr, const Bytes& data) {
  if (dev_.Blocks(addr, data.size())) {
    ++dma_blocked_count_;
    obs::Count(obs::Ctr::kDmaBlocked);
    return PermissionDeniedError("DMA write blocked by Device Exclusion Vector");
  }
  return memory_.Write(addr, data);
}

Result<Bytes> Machine::DmaRead(uint64_t addr, size_t len) {
  if (dev_.Blocks(addr, len)) {
    ++dma_blocked_count_;
    obs::Count(obs::Ctr::kDmaBlocked);
    return PermissionDeniedError("DMA read blocked by Device Exclusion Vector");
  }
  return memory_.Read(addr, len);
}

Status Machine::GuestWrite(int cpu_index, uint64_t addr, const Bytes& data) {
  if (cpu_index < 0 || cpu_index >= num_cpus()) {
    return InvalidArgumentError("guest access: CPU index out of range");
  }
  const Cpu& cpu = cpus_[static_cast<size_t>(cpu_index)];
  if (cpu.guest_mode && guest_guard_ != nullptr &&
      guest_guard_->FaultsGuestAccess(cpu_index, addr, data.size(), /*is_write=*/true)) {
    ++npt_blocked_count_;
    return PermissionDeniedError("guest write blocked by nested page protection");
  }
  return memory_.Write(addr, data);
}

Result<Bytes> Machine::GuestRead(int cpu_index, uint64_t addr, size_t len) {
  if (cpu_index < 0 || cpu_index >= num_cpus()) {
    return InvalidArgumentError("guest access: CPU index out of range");
  }
  const Cpu& cpu = cpus_[static_cast<size_t>(cpu_index)];
  if (cpu.guest_mode && guest_guard_ != nullptr &&
      guest_guard_->FaultsGuestAccess(cpu_index, addr, len, /*is_write=*/false)) {
    ++npt_blocked_count_;
    return PermissionDeniedError("guest read blocked by nested page protection");
  }
  return memory_.Read(addr, len);
}

void Machine::Reboot() {
  tpm_transport_.hardware()->PowerCycle();
  ResetCommon();
}

// Shared tail of both reset kinds: everything except what happens to RAM
// and to the TPM.
void Machine::ResetCommon() {
  dev_.Clear();
  guest_guard_ = nullptr;
  ++reset_epoch_;
  in_secure_session_ = false;
  active_slb_base_ = 0;
  for (Cpu& cpu : cpus_) {
    cpu.state = CpuState::kRunning;
    cpu.ring = 0;
    cpu.interrupts_enabled = true;
    cpu.debug_access_enabled = true;
    cpu.paging_enabled = true;
    cpu.guest_mode = false;
    cpu.pal_dedicated = false;
    cpu.LoadFlatSegments();
  }
}

void Machine::PowerCut() {
  obs::Count(obs::Ctr::kPowerCuts);
  obs::Instant("hw", "hw.power_cut");
  // RAM loses its contents; Erase also dirties measurement-cache watches so
  // no cached SLB digest survives the outage.
  Status erased = memory_.Erase(0, memory_.size());
  (void)erased;  // Erasing the whole address space cannot go out of bounds.
  // The TPM reset line fires via Hardware::Init - no TPM_Startup - so the
  // device refuses commands until recovery software issues one.
  tpm_transport_.hardware()->Init();
  ResetCommon();
}

}  // namespace flicker
