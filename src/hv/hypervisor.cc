#include "src/hv/hypervisor.h"

#include "src/common/fault.h"
#include "src/crypto/sha1.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {
namespace hv {

const char* HvDenialName(HvDenial denial) {
  switch (denial) {
    case HvDenial::kNotLaunched:
      return "not_launched";
    case HvDenial::kAlreadyLaunched:
      return "already_launched";
    case HvDenial::kBadRegion:
      return "bad_region";
    case HvDenial::kRegionOverlap:
      return "region_overlap";
    case HvDenial::kBadHeader:
      return "bad_header";
    case HvDenial::kNoFreeCore:
      return "no_free_core";
    case HvDenial::kBadCore:
      return "bad_core";
    case HvDenial::kSessionNotFound:
      return "session_not_found";
    case HvDenial::kSessionNotRunning:
      return "session_not_running";
    case HvDenial::kTpmBusy:
      return "tpm_busy";
    case HvDenial::kNptViolation:
      return "npt_violation";
    case HvDenial::kBadHypercallParam:
      return "bad_hypercall_param";
    case HvDenial::kCount:
      break;
  }
  return "unknown";
}

namespace {

// The synthetic hypervisor loader block: SLB-format header (u16 length,
// u16 entry) followed by a deterministic body, so the hypervisor's SKINIT
// measurement is a stable, predictable constant a verifier can whitelist.
Bytes BuildHvLoaderImage() {
  Bytes image(kHvLoaderSize, 0);
  image[0] = static_cast<uint8_t>(kHvLoaderSize & 0xff);
  image[1] = static_cast<uint8_t>((kHvLoaderSize >> 8) & 0xff);
  image[2] = 4;  // Entry point right after the header.
  image[3] = 0;
  Bytes pad = Sha1::Digest(BytesOf("flicker-minimal-hypervisor-v1"));
  for (size_t i = 4; i < image.size(); ++i) {
    image[i] = pad[(i - 4) % pad.size()];
  }
  return image;
}

// The session µPCR extend: PCR <- SHA1(PCR || measurement), the same fold
// the hardware register applies.
Bytes FoldUpcr(const Bytes& upcr, const Bytes& measurement) {
  Bytes chain = upcr;
  chain.insert(chain.end(), measurement.begin(), measurement.end());
  return Sha1::Digest(chain);
}

}  // namespace

// The hypervisor-hosted session environment: the PAL runs on its pinned
// core; PCR 17 is the session µPCR (mirrored into the hardware register
// when configured); exiting ends the session and resumes the core as an OS
// guest.
class HvSessionEnv : public SessionEnv {
 public:
  HvSessionEnv(Hypervisor* hv, HvSession* session) : hv_(hv), session_(session) {}

  Cpu* session_cpu() override { return hv_->machine_->cpu(session_->core); }

  Status CheckEntry(const SkinitLaunch& launch) override {
    if (session_->state != HvSessionState::kRunning || launch.slb_base != session_->slb_base) {
      return FailedPreconditionError("SLB core must run inside the hypervisor session");
    }
    return Status::Ok();
  }

  Status ExtendPcr(const Bytes& measurement) override {
    if (measurement.size() != 20) {
      return InvalidArgumentError("µPCR extend requires a 20-byte measurement");
    }
    session_->upcr = FoldUpcr(session_->upcr, measurement);
    hv_->machine_->clock()->AdvanceMillis(hv_->machine_->timing().hv.upcr_extend_us / 1000.0);
    if (session_->mirrored) {
      return hv_->machine_->tpm()->PcrExtend(kSkinitPcr, measurement);
    }
    return Status::Ok();
  }

  Result<Bytes> ReadPcr() override {
    if (!session_->mirrored) {
      return session_->upcr;
    }
    Result<Bytes> hardware = hv_->machine_->tpm()->PcrRead(kSkinitPcr);
    if (!hardware.ok()) {
      return hardware.status();
    }
    // A PAL may extend PCR 17 directly through the locality its session
    // grants (e.g. the rootkit detector's inlined extend). The hypervisor
    // virtualizes the pinned core's TPM port, so its shadow follows the
    // hardware register - which stays the single source of truth for
    // mirrored sessions, exactly as in classic mode.
    session_->upcr = hardware.value();
    return hardware;
  }

  Status Exit(uint64_t restored_cr3) override {
    hv_->EndSession(session_, restored_cr3);
    return Status::Ok();
  }

 private:
  Hypervisor* hv_;
  HvSession* session_;
};

Hypervisor::Hypervisor(Machine* machine, const HvConfig& config)
    : machine_(machine), config_(config) {}

bool Hypervisor::resident() const {
  return launched_ && machine_->reset_epoch() == launch_epoch_ &&
         machine_->guest_guard() == this;
}

Status Hypervisor::Deny(HvDenial denial, const char* detail) {
  ++stats_.denials_total;
  ++stats_.denials[static_cast<size_t>(denial)];
  obs::Count(obs::Ctr::kHvDeniedAccesses);
  ChargeExit();
  return PermissionDeniedError(std::string("hv denial [") + HvDenialName(denial) + "]: " + detail);
}

void Hypervisor::ChargeExit() {
  const double exit_ms = machine_->timing().HvExitMillis();
  machine_->clock()->AdvanceMillis(exit_ms);
  ++stats_.exits_handled;
  stats_.os_pause_ns += static_cast<uint64_t>(exit_ms * 1e6 + 0.5);
  obs::Count(obs::Ctr::kHvExits);
  obs::ObserveMs(obs::Hist::kHvExitLatencyMs, exit_ms);
}

bool Hypervisor::OverlapsHypervisor(uint64_t addr, size_t len) const {
  const uint64_t hv_end = kHvBase + kHvLoaderSize;
  return addr < hv_end && addr + len > kHvBase;
}

const HvSession* Hypervisor::FindSessionCovering(uint64_t addr, size_t len) const {
  for (const auto& [id, session] : sessions_) {
    const uint64_t end = session.slb_base + kSlbAllocationSize;
    if (addr < end && addr + len > session.slb_base) {
      return &session;
    }
  }
  return nullptr;
}

Status Hypervisor::LateLaunch() {
  if (resident()) {
    return Deny(HvDenial::kAlreadyLaunched, "hypervisor already resident");
  }
  // A relaunch after a reset starts from scratch: no session survives the
  // power domain.
  sessions_.clear();
  launched_ = false;

  if (!machine_->memory()->InBounds(kHvBase, kSlbRegionSize)) {
    return Deny(HvDenial::kBadRegion, "hypervisor region exceeds physical memory");
  }
  for (uint64_t slot : config_.pal_slot_bases) {
    if (!machine_->memory()->InBounds(slot, kSlbAllocationSize)) {
      return Deny(HvDenial::kBadRegion, "PAL slot exceeds physical memory");
    }
    if (slot < kHvBase + kSlbRegionSize && slot + kSlbAllocationSize > kHvBase) {
      return Deny(HvDenial::kRegionOverlap, "PAL slot overlaps the hypervisor region");
    }
  }

  // Stage the HLB and late-launch it: the same SKINIT handshake an SLB
  // gets, so PCR 17 now attests the hypervisor's identity at locality 4.
  const uint64_t saved_cr3 = machine_->bsp()->cr3;
  FLICKER_RETURN_IF_ERROR(machine_->memory()->Write(kHvBase, BuildHvLoaderImage()));
  Result<SkinitLaunch> launch = machine_->Skinit(machine_->bsp()->id, kHvBase);
  if (!launch.ok()) {
    return launch.status();
  }
  measurement_ = launch.value().measurement;
  launch_pcr17_ = ExpectedPcr17AfterSkinit(measurement_);
  stats_.os_pause_ns +=
      static_cast<uint64_t>(machine_->timing().SkinitMillis(launch.value().slb_length) * 1e6 + 0.5);
  CRASH_POINT("hv.launched");

  // The hypervisor initializes (VMCBs, nested page tables) and returns the
  // machine to the OS - but stays resident: DEV re-armed over its frames,
  // the nested-page guard installed, OS cores VMRUN'd as guests, and the
  // top core(s) dedicated to PAL sessions.
  FLICKER_RETURN_IF_ERROR(machine_->ExitSecureMode(machine_->bsp()->id, saved_cr3));
  machine_->dev()->Protect(kHvBase, kHvLoaderSize);
  machine_->set_guest_guard(this);
  machine_->clock()->AdvanceMillis(machine_->timing().hv.npt_update_us / 1000.0);

  const int num_cpus = machine_->num_cpus();
  int dedicated = static_cast<int>(config_.pal_slot_bases.size());
  if (dedicated > num_cpus - 1) {
    dedicated = num_cpus - 1;
  }
  for (int i = 0; i < num_cpus; ++i) {
    Cpu* cpu = machine_->cpu(i);
    cpu->guest_mode = true;
    cpu->pal_dedicated = (i >= num_cpus - dedicated);
  }

  launched_ = true;
  launch_epoch_ = machine_->reset_epoch();
  return Status::Ok();
}

uint64_t Hypervisor::FreeSlotBase() const {
  for (uint64_t slot : config_.pal_slot_bases) {
    if (FindSessionCovering(slot, kSlbAllocationSize) == nullptr) {
      return slot;
    }
  }
  return 0;
}

Result<uint64_t> Hypervisor::HcStartSession(uint64_t slb_base, int requested_core) {
  if (!resident()) {
    return Deny(HvDenial::kNotLaunched, "start-session before hypervisor launch");
  }
  ChargeExit();

  bool is_slot = false;
  for (uint64_t slot : config_.pal_slot_bases) {
    if (slot == slb_base) {
      is_slot = true;
      break;
    }
  }
  if (!is_slot || !machine_->memory()->InBounds(slb_base, kSlbAllocationSize)) {
    return Deny(HvDenial::kBadRegion, "PAL base is not a configured session slot");
  }
  if (OverlapsHypervisor(slb_base, kSlbAllocationSize)) {
    return Deny(HvDenial::kRegionOverlap, "PAL region overlaps the hypervisor");
  }
  if (FindSessionCovering(slb_base, kSlbAllocationSize) != nullptr) {
    return Deny(HvDenial::kRegionOverlap, "PAL region overlaps an active session");
  }

  // Header validation: the same rules SKINIT enforces on an SLB.
  Result<Bytes> header = machine_->memory()->Read(slb_base, 4);
  if (!header.ok()) {
    return header.status();
  }
  const uint16_t length = static_cast<uint16_t>(header.value()[0] | (header.value()[1] << 8));
  const uint16_t entry = static_cast<uint16_t>(header.value()[2] | (header.value()[3] << 8));
  if (length < 4 || entry >= length) {
    return Deny(HvDenial::kBadHeader, "PAL header fails SKINIT validation");
  }

  // Pin a dedicated core.
  int core = -1;
  if (requested_core >= 0) {
    if (requested_core >= machine_->num_cpus() ||
        !machine_->cpu(requested_core)->pal_dedicated) {
      return Deny(HvDenial::kBadCore, "requested core is not PAL-dedicated");
    }
    bool busy = false;
    for (const auto& [id, session] : sessions_) {
      if (session.core == requested_core && session.running_or_protected()) {
        busy = true;
        break;
      }
    }
    core = busy ? -1 : requested_core;
    if (core < 0) {
      return Deny(HvDenial::kNoFreeCore, "requested core already runs a session");
    }
  } else {
    for (int i = machine_->num_cpus() - 1; i >= 0; --i) {
      if (!machine_->cpu(i)->pal_dedicated) {
        continue;
      }
      bool busy = false;
      for (const auto& [id, session] : sessions_) {
        if (session.core == i && session.running_or_protected()) {
          busy = true;
          break;
        }
      }
      if (!busy) {
        core = i;
        break;
      }
    }
    if (core < 0) {
      return Deny(HvDenial::kNoFreeCore, "every PAL-dedicated core is busy");
    }
  }

  const bool mirrored = config_.mirror_hardware_pcr;
  if (mirrored) {
    for (const auto& [id, session] : sessions_) {
      if (session.mirrored && session.state != HvSessionState::kCompleted) {
        return Deny(HvDenial::kTpmBusy, "hardware PCR 17 is held by another mirrored session");
      }
    }
  }

  // Protect the region (nested pages + DEV), then measure it on the main
  // CPU - the hypervisor never streams bytes to the TPM, which is exactly
  // the modeled latency win over SKINIT-per-session.
  machine_->dev()->Protect(slb_base, kSlbAllocationSize);
  machine_->clock()->AdvanceMillis(machine_->timing().hv.npt_update_us / 1000.0);
  stats_.os_pause_ns +=
      static_cast<uint64_t>(machine_->timing().hv.npt_update_us * 1000.0 + 0.5);

  Bytes measurement;
  MeasureOutcome outcome = MeasureOutcome::kHashed;
  if (machine_->measurement_engine() != nullptr) {
    Result<Bytes> cached =
        machine_->measurement_engine()->Measure(machine_->memory(), slb_base, length, &outcome);
    if (!cached.ok()) {
      machine_->dev()->Unprotect(slb_base, kSlbAllocationSize);
      return cached.status();
    }
    measurement = cached.take();
  } else {
    Result<Bytes> bytes = machine_->memory()->Read(slb_base, length);
    if (!bytes.ok()) {
      machine_->dev()->Unprotect(slb_base, kSlbAllocationSize);
      return bytes.status();
    }
    measurement = Sha1::Digest(bytes.value());
  }
  double measure_ms = 0;
  switch (outcome) {
    case MeasureOutcome::kHashed:
      measure_ms = machine_->timing().Sha1Millis(length);
      break;
    case MeasureOutcome::kVerifiedHit:
      measure_ms = machine_->timing().MemTouchMillis(length);
      break;
    case MeasureOutcome::kCleanHit:
      break;
  }
  machine_->clock()->AdvanceMillis(measure_ms);
  stats_.os_pause_ns += static_cast<uint64_t>(measure_ms * 1e6 + 0.5);

  HvSession session;
  session.id = next_session_id_++;
  session.slb_base = slb_base;
  session.core = core;
  session.mirrored = mirrored;
  session.upcr = ExpectedPcr17AfterSkinit(measurement);
  session.launch.slb_base = slb_base;
  session.launch.slb_length = length;
  session.launch.entry_point = entry;
  session.launch.measurement = measurement;

  // Mirror the dynamic-launch PCR handshake: the hypervisor retains the
  // locality-4 privilege from its own launch and context-switches the
  // hardware PCR 17 to the PAL's chain for the session's duration.
  if (mirrored) {
    machine_->tpm_transport()->hardware()->SkinitReset(measurement);
  }

  // Drop the pinned core out of guest mode into the flat ring-0 state the
  // SLB core expects (the VMCB for this core now runs trusted code).
  Cpu* pinned = machine_->cpu(core);
  session.saved_cr3 = pinned->cr3;
  pinned->guest_mode = false;
  pinned->interrupts_enabled = false;
  pinned->debug_access_enabled = false;
  pinned->paging_enabled = false;
  pinned->ring = 0;
  pinned->LoadFlatSegments();
  CRASH_POINT("hv.session_protected");

  session.state = HvSessionState::kProtected;
  const uint64_t id = session.id;
  sessions_.emplace(id, std::move(session));
  ++stats_.sessions_started;
  obs::Count(obs::Ctr::kHvSessions);
  int live = 0;
  for (const auto& [sid, s] : sessions_) {
    if (s.state != HvSessionState::kCompleted) {
      ++live;
    }
  }
  obs::ObserveMs(obs::Hist::kHvSessionConcurrency, static_cast<double>(live));
  return id;
}

Result<SessionRecord> Hypervisor::RunSession(uint64_t id, const PalBinary& binary,
                                             const SlbCoreOptions& options) {
  if (!resident()) {
    return Deny(HvDenial::kNotLaunched, "run-session before hypervisor launch");
  }
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Deny(HvDenial::kSessionNotFound, "no such session");
  }
  HvSession* session = &it->second;
  if (session->state != HvSessionState::kProtected) {
    return Deny(HvDenial::kSessionNotRunning, "session is not awaiting execution");
  }
  session->state = HvSessionState::kRunning;
  HvSessionEnv env(this, session);
  Result<SessionRecord> record = SlbCore::RunWith(machine_, &env, session->launch, binary, options);
  if (!record.ok()) {
    // The session died mid-flight; tear it down so the slot and core free
    // up and the OS keeps running (no whole-machine reboot needed).
    if (session->state != HvSessionState::kCompleted) {
      EndSession(session, session->saved_cr3);
    }
    sessions_.erase(id);
    return record.status();
  }
  return record;
}

void Hypervisor::EndSession(HvSession* session, uint64_t restored_cr3) {
  CRASH_POINT("hv.session_end");
  Cpu* pinned = machine_->cpu(session->core);
  pinned->LoadFlatSegments();
  pinned->paging_enabled = true;
  pinned->cr3 = restored_cr3;
  pinned->ring = 0;
  pinned->interrupts_enabled = true;
  pinned->debug_access_enabled = true;
  pinned->guest_mode = true;  // Back under the hypervisor as an OS guest.

  machine_->dev()->Unprotect(session->slb_base, kSlbAllocationSize);
  machine_->clock()->AdvanceMillis(machine_->timing().hv.npt_update_us / 1000.0);
  if (session->mirrored) {
    // The hardware PCR 17 keeps the PAL's final chain - exactly what a
    // classic session leaves behind - and the locality drops back to 0.
    Status dropped = machine_->tpm_transport()->hardware()->SetLocality(0);
    (void)dropped;  // Hardware transitions to locality 0 always succeed.
  }
  session->state = HvSessionState::kCompleted;
  ++stats_.sessions_completed;
  ChargeExit();
}

Result<Bytes> Hypervisor::HcCollectOutputs(uint64_t id) {
  if (!resident()) {
    return Deny(HvDenial::kNotLaunched, "collect-outputs before hypervisor launch");
  }
  ChargeExit();
  if (id == 0) {
    return Deny(HvDenial::kBadHypercallParam, "session id zero is never issued");
  }
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Deny(HvDenial::kSessionNotFound, "no such session");
  }
  if (it->second.state != HvSessionState::kCompleted) {
    return Deny(HvDenial::kSessionNotRunning, "session has not completed");
  }
  Result<Bytes> outputs =
      ReadIoPage(*machine_->memory(), it->second.slb_base + kSlbOutputsOffset);
  if (!outputs.ok()) {
    return outputs.status();
  }
  sessions_.erase(it);
  return outputs;
}

const HvSession* Hypervisor::FindSession(uint64_t id) const {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

bool Hypervisor::FaultsGuestAccess(int core, uint64_t addr, size_t len, bool is_write) {
  (void)core;
  (void)is_write;
  if (len == 0) {
    return false;
  }
  if (OverlapsHypervisor(addr, len)) {
    ++stats_.denials_total;
    ++stats_.denials[static_cast<size_t>(HvDenial::kNptViolation)];
    obs::Count(obs::Ctr::kHvDeniedAccesses);
    ChargeExit();
    return true;
  }
  const HvSession* session = FindSessionCovering(addr, len);
  if (session != nullptr && session->state != HvSessionState::kCompleted) {
    ++stats_.denials_total;
    ++stats_.denials[static_cast<size_t>(HvDenial::kNptViolation)];
    obs::Count(obs::Ctr::kHvDeniedAccesses);
    ChargeExit();
    return true;
  }
  return false;
}

}  // namespace hv
}  // namespace flicker
