// The simulated SVM platform: CPUs, physical memory, DEV, APIC and TPM wired
// together, with the SKINIT instruction's full state machine.
//
// SKINIT here enforces exactly the preconditions and effects §2.4 and §4.2
// describe: ring-0 + BSP-only + APs-parked preconditions; then interrupts
// off, hardware debug off, DEV armed over the 64 KB SLB region, dynamic PCRs
// reset, SLB measured into PCR 17, and the CPU dropped into flat 32-bit
// protected mode at the SLB entry point. Latency is charged per Table 2's
// calibration (linear in the bytes streamed to the TPM).

#ifndef FLICKER_SRC_HW_MACHINE_H_
#define FLICKER_SRC_HW_MACHINE_H_

#include <cstdint>
#include <memory>

#include "src/common/bytes.h"
#include "src/common/fault.h"
#include "src/common/status.h"
#include "src/hw/clock.h"
#include "src/hw/cpu.h"
#include "src/hw/memory.h"
#include "src/hw/timing.h"
#include "src/tpm/tpm.h"
#include "src/tpm/transport.h"

namespace flicker {

// The architectural SLB limit: SKINIT measures and protects at most 64 KB.
constexpr size_t kSlbRegionSize = 64 * 1024;

// Which late-launch technology the platform implements (§2.4). AMD SVM's
// SKINIT measures the SLB directly into PCR 17. Intel TXT's GETSEC[SENTER]
// first authenticates and measures the chipset vendor's SINIT ACM, then the
// launched environment - so the PCR 17 chain gains one extra (well-known)
// link, and SMX must be enabled.
enum class LateLaunchTech {
  kAmdSvm,
  kIntelTxt,
};

struct MachineConfig {
  size_t memory_bytes = 64 * 1024 * 1024;
  int num_cpus = 2;  // The paper's test machine is a dual-core Athlon64 X2.
  // Kept settable: the paper's platform is AMD SVM; the Intel TXT variant
  // (§2.4) is what the adversary tests switch on to check its extra link.
  LateLaunchTech tech = LateLaunchTech::kAmdSvm;
  TimingModel timing = DefaultTimingModel();
  TpmConfig tpm = TpmConfig();
};

// Measurement of the (synthetic) SINIT Authenticated Code Module that TXT
// platforms load; a verifier must know it to reconstruct PCR 17.
Bytes SinitAcmMeasurement();

// What SKINIT hands to the secure loader: the validated header and the
// measurement the TPM now holds.
struct SkinitLaunch {
  uint64_t slb_base = 0;
  uint16_t slb_length = 0;
  uint16_t entry_point = 0;
  Bytes measurement;  // SHA-1 of the measured SLB bytes.
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config = MachineConfig());

  SimClock* clock() { return &clock_; }
  const TimingModel& timing() const { return timing_; }
  PhysicalMemory* memory() { return &memory_; }
  DeviceExclusionVector* dev() { return &dev_; }
  // Software-side TPM access: every command crosses the byte-marshalled
  // transport; no layer above the machine touches the device model directly.
  TpmClient* tpm() { return &tpm_client_; }
  // The transport itself, and with it the Hardware facade (SKINIT reset,
  // TPM_Init): the Machine holds the one capability that can reset PCR 17,
  // and the hypervisor reaches it only through here.
  TpmTransport* tpm_transport() { return &tpm_transport_; }
  Apic* apic() { return &apic_; }

  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  Cpu* cpu(int index) { return &cpus_[index]; }
  Cpu* bsp() { return &cpus_[0]; }

  // Optional measurement engine (the SLB measurement cache). When set, the
  // SKINIT and SLB-core hash paths route through it; when null they hash
  // directly. The engine must outlive the machine's use of it.
  void set_measurement_engine(MeasurementEngine* engine) { measurement_engine_ = engine; }
  MeasurementEngine* measurement_engine() { return measurement_engine_; }

  LateLaunchTech tech() const { return tech_; }

  // ---- The late-launch instruction ----
  //
  // On an SVM machine this is SKINIT; on a TXT machine it behaves as
  // GETSEC[SENTER] (SINIT ACM measured first, SMX required). The bytes
  // streamed to the TPM are the SLB header's length field, so a small
  // measurement-stub SLB transfers only its own few KB (§7.2) while the
  // full 64 KB region is always DEV-protected.
  Result<SkinitLaunch> Skinit(int cpu_index, uint64_t slb_base);
  // The Intel spelling; identical semantics modulo the TXT differences.
  Result<SkinitLaunch> Senter(int cpu_index, uint64_t mle_base) {
    return Skinit(cpu_index, mle_base);
  }

  // True while a late-launched environment is active (between Skinit and
  // ExitSecureMode).
  bool in_secure_session() const { return in_secure_session_; }
  uint64_t active_slb_base() const { return active_slb_base_; }

  // The SLB core's resume path: restore flat segments + paging with the
  // saved cr3, drop DEV protection of the SLB region, re-enable interrupts
  // and hardware debug. (§4.2 "Resume OS".)
  Status ExitSecureMode(int cpu_index, uint64_t restored_cr3);

  // ---- DMA port: every simulated DMA-capable device goes through these ----
  Status DmaWrite(uint64_t addr, const Bytes& data);
  Result<Bytes> DmaRead(uint64_t addr, size_t len);
  uint64_t dma_blocked_count() const { return dma_blocked_count_; }

  // ---- Nested paging (SVM hypervisor mode) ----
  //
  // The minimal hypervisor installs itself as the guest-access guard and
  // flips the OS cores into guest mode; from then on OS-originated memory
  // traffic must go through GuestRead/GuestWrite, which take a nested page
  // fault (kPermissionDenied) on hypervisor- or PAL-owned frames. With no
  // guard installed (the classic machine) these are plain memory accesses.
  void set_guest_guard(GuestAccessGuard* guard) { guest_guard_ = guard; }
  GuestAccessGuard* guest_guard() { return guest_guard_; }
  Status GuestWrite(int cpu_index, uint64_t addr, const Bytes& data);
  Result<Bytes> GuestRead(int cpu_index, uint64_t addr, size_t len);
  uint64_t npt_blocked_count() const { return npt_blocked_count_; }

  // Bumped by every reset flavour (Reboot, PowerCut). The
  // hypervisor keys its residency on this: any reset evicts it.
  uint64_t reset_epoch() const { return reset_epoch_; }

  // Platform reboot: TPM_Init then the BIOS's TPM_Startup(ST_CLEAR) frame
  // (dynamic PCRs to -1, statics to zero), CPUs reset, DEV cleared. RAM is
  // kept.
  void Reboot();

  // ---- Power domain / reset model ----
  //
  // PowerCut models the cord being pulled: RAM contents are lost (zeroed),
  // the TPM reset line fires (TPM_Init, volatile state gone), and every CPU
  // comes back at its reset vector. It does not run the BIOS's TPM_Startup -
  // recovery software must issue it, which is exactly what the crash matrix
  // exercises. A cut mid-operation is simulated by the FaultScheduler
  // throwing PowerLossException from a CRASH_POINT; the test harness catches
  // it and calls this to complete the crash.
  void PowerCut();

  // The machine's fault scheduler: arm it (and install it via
  // FaultInjectionScope) to make the Nth CRASH_POINT throw. Owned here so
  // the power domain and its crash plan travel with the platform.
  FaultScheduler* fault_scheduler() { return &fault_scheduler_; }

 private:
  void ResetCommon();

  SimClock clock_;
  LateLaunchTech tech_;
  TimingModel timing_;
  PhysicalMemory memory_;
  DeviceExclusionVector dev_;
  std::vector<Cpu> cpus_;
  Apic apic_;
  Tpm tpm_;
  TpmTransport tpm_transport_;
  TpmClient tpm_client_;

  MeasurementEngine* measurement_engine_ = nullptr;
  GuestAccessGuard* guest_guard_ = nullptr;
  FaultScheduler fault_scheduler_;

  bool in_secure_session_ = false;
  uint64_t active_slb_base_ = 0;
  uint64_t dma_blocked_count_ = 0;
  uint64_t npt_blocked_count_ = 0;
  uint64_t reset_epoch_ = 0;
};

}  // namespace flicker

#endif  // FLICKER_SRC_HW_MACHINE_H_
