// The minimal SVM hypervisor: Flicker's §9 "concurrent execution" future
// work, realized the TrustVisor way.
//
// One SKINIT late launch measures the hypervisor loader block (HLB) into
// PCR 17 exactly like an SLB; the hypervisor then stays resident, arms DEV
// over its own frames, flips the OS cores into guest mode behind a
// nested-page guard, and from then on PAL sessions cost two world switches
// instead of a whole-machine suspend: the PAL is pinned to a dedicated
// core behind nested-page + DEV protections while the untrusted OS keeps
// running on the remaining cores - no AP parking, no suspend/resume.
//
// The guest interface is deliberately tiny and fully typed: three
// hypercalls (start session / run is host-side / collect outputs), every
// malformed or malicious parameter dies with an HvDenial, and the
// cross-core adversarial campaign (src/hv/hv_campaign) asserts that no
// attack is ever accepted.
//
// PCR 17 under the hypervisor: each session gets a software µPCR seeded
// with the SKINIT chain value SHA1(0^20 || H(PAL)). With
// `mirror_hardware_pcr` (the default for single-session platforms) the
// hypervisor also context-switches the hardware PCR 17 to the PAL's chain
// for the session's duration - it retains the dynamic-launch privilege, so
// sealed storage and quotes bind exactly as in classic mode and session
// outputs are byte-identical between modes. Mirrored sessions are
// exclusive (the hardware TPM has one PCR 17); non-mirrored sessions may
// run concurrently on as many PAL slots/cores as configured.

#ifndef FLICKER_SRC_HV_HYPERVISOR_H_
#define FLICKER_SRC_HV_HYPERVISOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/hw/machine.h"
#include "src/slb/slb_core.h"
#include "src/slb/slb_layout.h"

namespace flicker {
namespace hv {

// Every way the hypervisor refuses a guest. Each denial is typed so the
// adversarial campaign can assert both "the attack failed" and "it failed
// for the right reason".
enum class HvDenial : int {
  kNotLaunched = 0,     // Hypercall before LateLaunch / after a reset.
  kAlreadyLaunched,     // Second LateLaunch while resident.
  kBadRegion,           // PAL region out of bounds or not a configured slot.
  kRegionOverlap,       // PAL region overlaps hypervisor or an active session.
  kBadHeader,           // SLB header fails the SKINIT validation rules.
  kNoFreeCore,          // No dedicated core available for the session.
  kBadCore,             // Guest addressed a core it does not own.
  kSessionNotFound,     // Session id does not name a live session.
  kSessionNotRunning,   // Session exists but is not in the expected state.
  kTpmBusy,             // Mirrored session while another mirrored one runs.
  kNptViolation,        // Guest memory access into protected frames.
  kBadHypercallParam,   // Any other malformed hypercall argument.
  kCount
};

const char* HvDenialName(HvDenial denial);

// Where the hypervisor loader block lives. Sits above the kernel module
// images in every platform map this repo uses.
inline constexpr uint64_t kHvBase = 0x140000;

struct HvConfig {
  // Physical bases PAL sessions may be staged at. Slot 0 defaults to the
  // classic fixed base so a concurrent session's patched image - and hence
  // its measurement - is bit-identical to the classic mode's.
  std::vector<uint64_t> pal_slot_bases = {kSlbFixedBase};
  // Mirror each session's µPCR chain into the hardware PCR 17 (see file
  // comment). Required for seal/quote parity with classic mode; turn off
  // for multi-session campaigns with TPM-free PALs.
  bool mirror_hardware_pcr = true;
};

// The size of the synthetic hypervisor loader block SKINIT measures.
inline constexpr size_t kHvLoaderSize = 8 * 1024;

enum class HvSessionState {
  kProtected,  // Region protected + measured; awaiting execution.
  kRunning,    // PAL executing on the pinned core.
  kCompleted,  // Session ended; outputs await collection.
};

struct HvSession {
  uint64_t id = 0;
  uint64_t slb_base = 0;
  int core = -1;
  HvSessionState state = HvSessionState::kProtected;
  bool mirrored = false;
  SkinitLaunch launch;    // Synthesized launch descriptor for the SLB core.
  Bytes upcr;             // The session's software µPCR 17.
  uint64_t saved_cr3 = 0; // The OS cr3 the pinned core held before the session.

  bool running_or_protected() const { return state != HvSessionState::kCompleted; }
};

// Aggregate statistics the campaign and bench report.
struct HvStats {
  uint64_t sessions_started = 0;
  uint64_t sessions_completed = 0;
  uint64_t exits_handled = 0;
  uint64_t denials_total = 0;
  uint64_t denials[static_cast<size_t>(HvDenial::kCount)] = {};
  // Simulated nanoseconds the OS was actually paused by hypervisor work
  // (world switches + handlers); the classic mode's analogue is the whole
  // session duration.
  uint64_t os_pause_ns = 0;
};

class Hypervisor : public GuestAccessGuard {
 public:
  Hypervisor(Machine* machine, const HvConfig& config = HvConfig());

  // One-time late launch: the caller (platform) has parked the APs; this
  // stages the HLB, SKINITs it so PCR 17 attests the hypervisor, exits
  // secure mode (the OS resumes on all cores), then re-arms DEV over the
  // hypervisor frames, installs the nested-page guard, and flips the OS
  // cores to guest mode with the top core(s) dedicated to PAL sessions.
  Status LateLaunch();

  // True while the hypervisor survives on this machine (no reset since
  // LateLaunch and the guard is still installed).
  bool resident() const;

  // The hypervisor's own SKINIT measurement (hash of the patched HLB) and
  // the PCR 17 chain value attesting it.
  const Bytes& measurement() const { return measurement_; }
  const Bytes& launch_pcr17() const { return launch_pcr17_; }

  // First configured PAL slot with no active session, or 0 if none free.
  uint64_t FreeSlotBase() const;

  // ---- The guest->hypervisor interface (hypercalls) ----
  //
  // VMMCALL start-session: validates the staged PAL region at `slb_base`
  // (must be a configured slot), protects it (nested pages + DEV), measures
  // it, seeds the session µPCR with the SKINIT chain, pins a dedicated
  // core, and returns the session id. `requested_core` of -1 auto-picks;
  // naming a core that is not PAL-dedicated dies with kBadCore.
  Result<uint64_t> HcStartSession(uint64_t slb_base, int requested_core = -1);

  // Host-side: runs the PAL session `id` through the shared SLB core body
  // on its pinned core. (In hardware this is the dedicated core executing
  // the PAL while the OS runs elsewhere; the discrete-event campaign
  // overlaps sessions across machines.)
  Result<SessionRecord> RunSession(uint64_t id, const PalBinary& binary,
                                   const SlbCoreOptions& options);

  // VMMCALL collect-outputs: after the session completed, reads the output
  // page and unprotects nothing (the session already tore down).
  Result<Bytes> HcCollectOutputs(uint64_t id);

  // ---- GuestAccessGuard ----
  // OS cores fault on hypervisor frames and on active PAL session regions.
  bool FaultsGuestAccess(int core, uint64_t addr, size_t len, bool is_write) override;

  // A live (not yet collected) session by id; null when unknown.
  const HvSession* FindSession(uint64_t id) const;

  const HvStats& stats() const { return stats_; }
  uint64_t denied(HvDenial d) const { return stats_.denials[static_cast<size_t>(d)]; }
  int active_sessions() const { return static_cast<int>(sessions_.size()); }
  const HvConfig& config() const { return config_; }

 private:
  // Records a typed denial, charges the exit cost, returns the error.
  Status Deny(HvDenial denial, const char* detail);
  // Charges one guest-exit round trip to the machine clock and the OS
  // pause accounting.
  void ChargeExit();
  bool OverlapsHypervisor(uint64_t addr, size_t len) const;
  const HvSession* FindSessionCovering(uint64_t addr, size_t len) const;
  void EndSession(HvSession* session, uint64_t restored_cr3);

  friend class HvSessionEnv;

  Machine* machine_;
  HvConfig config_;
  bool launched_ = false;
  uint64_t launch_epoch_ = 0;
  Bytes measurement_;
  Bytes launch_pcr17_;
  uint64_t next_session_id_ = 1;
  std::map<uint64_t, HvSession> sessions_;
  HvStats stats_;
};

}  // namespace hv
}  // namespace flicker

#endif  // FLICKER_SRC_HV_HYPERVISOR_H_
