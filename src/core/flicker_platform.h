// FlickerPlatform: the top-level runtime tying the whole stack together.
//
// One object owns the simulated machine, the untrusted OS (kernel,
// scheduler, flicker-module, quote daemon) and exposes the paper's Fig. 2
// session lifecycle as a single call:
//
//   FlickerPlatform platform;
//   auto binary = BuildPal(std::make_shared<MyPal>(), options);
//   auto result = platform.ExecuteSession(binary.value(), inputs);
//
// ExecuteSession = stage SLB + inputs -> suspend OS -> SKINIT -> SLB core
// (PAL, cleanup, extends) -> resume OS -> collect outputs, with a per-phase
// simulated-time breakdown benches print directly.

#ifndef FLICKER_SRC_CORE_FLICKER_PLATFORM_H_
#define FLICKER_SRC_CORE_FLICKER_PLATFORM_H_

#include <cstdint>
#include <memory>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/hv/hypervisor.h"
#include "src/hw/machine.h"
#include "src/os/flicker_module.h"
#include "src/os/kernel.h"
#include "src/os/scheduler.h"
#include "src/os/tqd.h"
#include "src/slb/measurement_cache.h"
#include "src/slb/slb_core.h"
#include "src/slb/slb_layout.h"

namespace flicker {

// How ExecuteSession runs a PAL. Classic is the paper's Fig. 2 lifecycle
// (suspend OS, SKINIT, resume); concurrent is the §9 future-work mode where
// a resident minimal hypervisor pins the PAL to one core while the OS keeps
// running on the rest.
enum class SessionMode {
  kClassic,
  kConcurrent,
};

struct FlickerPlatformConfig {
  MachineConfig machine;
  KernelConfig kernel;
  TqdConfig tqd;
  SessionMode mode = SessionMode::kClassic;
  hv::HvConfig hv;
};

// The compact machine image campaigns build by the hundred. The default
// 64 MB MachineConfig is infeasible a thousand times over, so the kernel is
// relocated to just above the 64 KB SLB region at kSlbFixedBase (1 MB):
// text at 1.125 MB, a one-module set, everything inside 1.5 MB.
FlickerPlatformConfig CompactPlatformConfig();

// Everything a completed session yields, including the timing breakdown the
// evaluation tables report.
struct FlickerSessionResult {
  uint64_t session_id = 0;       // Monotonic platform-assigned id (1-based).
  SessionRecord record;          // PAL status, outputs, PCR values, in-session timings.
  SkinitLaunch launch;           // What SKINIT measured.
  double suspend_ms = 0;         // AP deschedule + INIT IPIs + state save.
  double skinit_ms = 0;          // The SKINIT instruction itself.
  double session_total_ms = 0;   // Suspend through resume.
  // Simulated time the OS was actually paused: the whole session in classic
  // mode, only the hypercall/world-switch slivers in concurrent mode.
  double os_pause_ms = 0;
  uint64_t hv_session_id = 0;    // Hypervisor session id (concurrent mode only).

  const Bytes& outputs() const { return record.outputs; }
  bool ok() const { return record.pal_status.ok(); }
};

class FlickerPlatform {
 public:
  explicit FlickerPlatform(const FlickerPlatformConfig& config = FlickerPlatformConfig());

  Machine* machine() { return &machine_; }
  SlbMeasurementCache* measurement_cache() { return &measurement_cache_; }
  OsKernel* kernel() { return &kernel_; }
  Scheduler* scheduler() { return &scheduler_; }
  FlickerModule* flicker_module() { return &module_; }
  TpmQuoteDaemon* tqd() { return &tqd_; }
  TpmClient* tpm() { return machine_.tpm(); }
  SimClock* clock() { return machine_.clock(); }
  hv::Hypervisor* hypervisor() { return &hv_; }
  SessionMode mode() const { return mode_; }

  // Concurrent mode: late-launches the hypervisor if it is not resident
  // (first session after boot or after any reset). The one-time launch
  // parks the APs around SKINIT, then the OS resumes on every core.
  Status EnsureHypervisorResident();

  // Runs one full Flicker session for `binary` with `inputs`. `options`
  // carries the attestation nonce (extended into PCR 17 when present).
  Result<FlickerSessionResult> ExecuteSession(const PalBinary& binary, const Bytes& inputs,
                                              const SlbCoreOptions& options = SlbCoreOptions());

  // Count of sessions this platform has started (successful or not), which
  // is also the id of the most recently started session: ids are 1-based
  // and assigned in start order, so session k is the k-th ever started and
  // the next one will get sessions_started() + 1.
  uint64_t sessions_started() const { return sessions_started_; }

 private:
  Result<FlickerSessionResult> ExecuteClassicSession(const PalBinary& binary, const Bytes& inputs,
                                                     const SlbCoreOptions& options,
                                                     FlickerSessionResult result);
  Result<FlickerSessionResult> ExecuteConcurrentSession(const PalBinary& binary,
                                                        const Bytes& inputs,
                                                        const SlbCoreOptions& options,
                                                        FlickerSessionResult result);

  uint64_t sessions_started_ = 0;
  SessionMode mode_;
  Machine machine_;
  SlbMeasurementCache measurement_cache_;
  OsKernel kernel_;
  Scheduler scheduler_;
  FlickerModule module_;
  TpmQuoteDaemon tqd_;
  hv::Hypervisor hv_;
};

}  // namespace flicker

#endif  // FLICKER_SRC_CORE_FLICKER_PLATFORM_H_
