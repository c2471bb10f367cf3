#include "src/hv/hv_campaign.h"

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/apps/hello.h"
#include "src/common/json.h"
#include "src/core/flicker_platform.h"
#include "src/crypto/drbg.h"
#include "src/sim/campaign.h"
#include "src/sim/executor.h"

namespace flicker {
namespace hv {

namespace {

// The campaigns' compact machine image in concurrent mode: the relocated
// 1.5 MB kernel leaves the low megabyte to the PAL slots and the hypervisor
// loader at 0x140000, with a second PAL slot at 0x150000 so dual-slot
// rounds fit.
FlickerPlatformConfig CampaignPlatformConfig() {
  FlickerPlatformConfig config = CompactPlatformConfig();
  config.mode = SessionMode::kConcurrent;
  config.machine.num_cpus = kCampaignCpus;
  // µPCR-only sessions: the hello PAL never touches the TPM, so both slots
  // (and both dedicated cores) can hold sessions at once.
  config.hv.mirror_hardware_pcr = false;
  config.hv.pal_slot_bases = {kSlbFixedBase, 0x150000};
  return config;
}

// Per-machine Poisson mean inter-arrival times of session rounds and
// ambient attacks.
constexpr double kSessionMeanInterarrivalMs = 500.0;
constexpr double kAttackMeanInterarrivalMs = 200.0;
// Every Nth round is a dual-slot round (two concurrent sessions on one
// machine); every Mth round runs the full mid-session attack battery.
constexpr uint64_t kDualSlotEvery = 5;
constexpr uint64_t kAttackedRoundEvery = 3;

// Number of distinct ambient attack shapes ScheduleAttacks draws from.
constexpr uint64_t kNumAmbientAttacks = 10;

class Campaign {
 public:
  explicit Campaign(const HvCampaignConfig& config)
      : config_(config), executor_(config.seed) {}

  Result<HvCampaignStats> Run();

 private:
  Status Setup();
  void ScheduleRounds();
  void ScheduleAttacks();
  void RunRound(int machine, bool dual, bool attacked);
  Status ExecuteRound(FlickerPlatform* platform, bool dual, bool attacked);
  void MidSessionBattery(FlickerPlatform* platform, uint64_t slot, uint64_t session_id);
  void AmbientAttack(int machine, int kind);
  void VerifyRecord(uint64_t slot, const SessionRecord& record);

  // Runs one attack that must die with the given typed denial: OK is an
  // accepted attack, a failure that did not bump the expected denial
  // counter failed for the wrong reason.
  void Attack(Hypervisor* hv, HvDenial expect, const std::function<Status()>& fn);
  // A DMA attack the Device Exclusion Vector must block; on writes the
  // target bytes must additionally be unchanged (host view).
  void DmaAttack(Machine* machine, uint64_t addr, bool is_read);

  HvCampaignConfig config_;
  sim::SimExecutor executor_;
  std::vector<std::unique_ptr<FlickerPlatform>> machines_;
  std::vector<sim::ActorId> machine_actors_;
  std::vector<uint64_t> epoch_ns_;

  PalBinary binary_;
  Bytes inputs_;
  // The unattacked reference every fleet session must reproduce. Keyed by
  // slot base: the image is patched for its load address, so each slot has
  // its own measurement and hence its own PCR 17 chain.
  struct SlotReference {
    Bytes outputs;
    Bytes pcr17_exec;
    Bytes pcr17_final;
  };
  std::map<uint64_t, SlotReference> expected_;
  double classic_session_pause_ms_ = 0;

  HvCampaignStats stats_;
};

Status Campaign::Setup() {
  Result<PalBinary> built = BuildPal(std::make_shared<HelloWorldPal>());
  if (!built.ok()) {
    return built.status();
  }
  binary_ = built.take();
  inputs_ = BytesOf("hv-campaign-input");

  // Reference sessions on a scratch machine with the identical config: one
  // unattacked run per PAL slot (the image is patched per load address, so
  // each slot yields a distinct measurement chain). The campaign then
  // requires every fleet session to reproduce its slot's reference byte
  // for byte.
  {
    FlickerPlatform reference(CampaignPlatformConfig());
    FLICKER_RETURN_IF_ERROR(reference.EnsureHypervisorResident());
    Hypervisor* hv = reference.hypervisor();
    FlickerModule* module = reference.flicker_module();
    for (uint64_t slot : hv->config().pal_slot_bases) {
      FLICKER_RETURN_IF_ERROR(module->WriteSlb(binary_.image));
      FLICKER_RETURN_IF_ERROR(module->WriteInputs(inputs_));
      FLICKER_RETURN_IF_ERROR(module->StageForHypervisorAt(slot));
      Result<uint64_t> id = hv->HcStartSession(slot);
      if (!id.ok()) {
        return id.status();
      }
      Result<SessionRecord> record = hv->RunSession(id.value(), binary_, SlbCoreOptions());
      if (!record.ok()) {
        return record.status();
      }
      FLICKER_RETURN_IF_ERROR(record.value().pal_status);
      expected_[slot] = SlotReference{record.value().outputs,
                                      record.value().pcr17_during_execution,
                                      record.value().pcr17_final};
      Result<Bytes> collected = hv->HcCollectOutputs(id.value());
      if (!collected.ok()) {
        return collected.status();
      }
    }
  }

  // Classic analogue of the same session, for the pause comparison - and a
  // hard mode-parity check: the concurrent µPCR chain for the classic fixed
  // base must equal what the hardware PCR 17 shows classically.
  {
    FlickerPlatformConfig classic_config = CampaignPlatformConfig();
    classic_config.mode = SessionMode::kClassic;
    FlickerPlatform classic(classic_config);
    Result<FlickerSessionResult> ref = classic.ExecuteSession(binary_, inputs_);
    if (!ref.ok()) {
      return ref.status();
    }
    const SlotReference& fixed = expected_[kSlbFixedBase];
    if (ref.value().record.outputs != fixed.outputs ||
        ref.value().record.pcr17_final != fixed.pcr17_final) {
      return IntegrityFailureError("classic/concurrent mode parity violated");
    }
    classic_session_pause_ms_ = ref.value().os_pause_ms;
  }

  for (int m = 0; m < config_.num_machines; ++m) {
    machines_.push_back(std::make_unique<FlickerPlatform>(CampaignPlatformConfig()));
    FlickerPlatform* platform = machines_.back().get();
    // Launch the hypervisor up front so rounds measure steady state, not
    // the one-time SKINIT.
    FLICKER_RETURN_IF_ERROR(platform->EnsureHypervisorResident());
    ++stats_.hv_launches;
    machine_actors_.push_back(
        executor_.RegisterActor("hv-machine-" + std::to_string(m), platform->clock()));
    epoch_ns_.push_back(platform->clock()->NowNanos());
  }
  return Status::Ok();
}

void Campaign::ScheduleRounds() {
  for (int m = 0; m < config_.num_machines; ++m) {
    Drbg arrivals(config_.seed * 1000003ULL + static_cast<uint64_t>(m));
    double t_ms = 0;
    uint64_t seq = 0;
    while (true) {
      t_ms += sim::ExponentialGapMs(&arrivals, kSessionMeanInterarrivalMs);
      if (t_ms > config_.duration_ms) {
        break;
      }
      const bool dual = seq % kDualSlotEvery == kDualSlotEvery - 1;
      const bool attacked = seq % kAttackedRoundEvery == kAttackedRoundEvery - 1;
      ++stats_.rounds_injected;
      if (dual) {
        ++stats_.dual_rounds;
      }
      if (attacked) {
        ++stats_.attacked_rounds;
      }
      executor_.ScheduleAt(machine_actors_[static_cast<size_t>(m)],
                           epoch_ns_[static_cast<size_t>(m)] + static_cast<uint64_t>(t_ms * 1e6),
                           [this, m, dual, attacked] { RunRound(m, dual, attacked); });
      ++seq;
    }
  }
}

void Campaign::ScheduleAttacks() {
  for (int m = 0; m < config_.num_machines; ++m) {
    Drbg attacks(config_.seed * 7777777ULL + static_cast<uint64_t>(m));
    double t_ms = 0;
    while (true) {
      t_ms += sim::ExponentialGapMs(&attacks, kAttackMeanInterarrivalMs);
      if (t_ms > config_.duration_ms) {
        break;
      }
      const int kind = static_cast<int>(attacks.UniformUint64(kNumAmbientAttacks));
      executor_.ScheduleAt(machine_actors_[static_cast<size_t>(m)],
                           epoch_ns_[static_cast<size_t>(m)] + static_cast<uint64_t>(t_ms * 1e6),
                           [this, m, kind] { AmbientAttack(m, kind); });
    }
  }
}

void Campaign::Attack(Hypervisor* hv, HvDenial expect, const std::function<Status()>& fn) {
  ++stats_.attacks_launched;
  const uint64_t before = hv->denied(expect);
  Status status = fn();
  if (status.ok()) {
    ++stats_.accepted_wrong;
    return;
  }
  if (hv->denied(expect) == before) {
    ++stats_.attacks_mistyped;
    return;
  }
  ++stats_.attacks_denied;
}

void Campaign::DmaAttack(Machine* machine, uint64_t addr, bool is_read) {
  ++stats_.attacks_launched;
  const uint64_t before = machine->dma_blocked_count();
  Bytes original;
  if (!is_read) {
    Result<Bytes> snapshot = machine->memory()->Read(addr, 16);
    if (!snapshot.ok()) {
      ++stats_.attacks_mistyped;
      return;
    }
    original = snapshot.take();
  }
  Status status = is_read ? machine->DmaRead(addr, 16).status()
                          : machine->DmaWrite(addr, Bytes(16, 0xee));
  if (status.ok()) {
    ++stats_.accepted_wrong;
    return;
  }
  if (machine->dma_blocked_count() == before) {
    ++stats_.attacks_mistyped;
    return;
  }
  if (!is_read) {
    Result<Bytes> after = machine->memory()->Read(addr, 16);
    if (!after.ok() || after.value() != original) {
      ++stats_.accepted_wrong;  // The "blocked" write landed anyway.
      return;
    }
  }
  ++stats_.attacks_denied;
}

void Campaign::VerifyRecord(uint64_t slot, const SessionRecord& record) {
  auto it = expected_.find(slot);
  if (it == expected_.end() || !record.pal_status.ok() ||
      record.outputs != it->second.outputs ||
      record.pcr17_during_execution != it->second.pcr17_exec ||
      record.pcr17_final != it->second.pcr17_final) {
    ++stats_.accepted_wrong;  // An attack changed what the session produced.
  }
}

void Campaign::MidSessionBattery(FlickerPlatform* platform, uint64_t slot,
                                 uint64_t session_id) {
  Hypervisor* hv = platform->hypervisor();
  Machine* machine = platform->machine();

  // Devices the OS still drives try to reach in: DEV must block all three.
  DmaAttack(machine, slot + kSlbCodeOffset, /*is_read=*/false);
  DmaAttack(machine, slot, /*is_read=*/true);
  DmaAttack(machine, kHvBase, /*is_read=*/false);

  // Cross-core probing from an OS guest core: nested paging must fault.
  Attack(hv, HvDenial::kNptViolation,
         [&] { return machine->GuestWrite(0, slot + kSlbCodeOffset, Bytes(8, 0xaa)); });
  Attack(hv, HvDenial::kNptViolation,
         [&] { return machine->GuestRead(0, slot + kSlbInputsOffset, 16).status(); });
  Attack(hv, HvDenial::kNptViolation,
         [&] { return machine->GuestWrite(0, kHvBase + 16, Bytes(8, 0xbb)); });

  // Malicious hypercalls against the live session.
  Attack(hv, HvDenial::kRegionOverlap, [&] { return hv->HcStartSession(slot).status(); });
  Attack(hv, HvDenial::kSessionNotRunning,
         [&] { return hv->HcCollectOutputs(session_id).status(); });
}

void Campaign::AmbientAttack(int machine_index, int kind) {
  FlickerPlatform* platform = machines_[static_cast<size_t>(machine_index)].get();
  Hypervisor* hv = platform->hypervisor();
  Machine* machine = platform->machine();
  switch (kind) {
    case 0:
      Attack(hv, HvDenial::kNptViolation,
             [&] { return machine->GuestWrite(0, kHvBase + 8, Bytes(8, 0xcc)); });
      break;
    case 1:
      Attack(hv, HvDenial::kNptViolation,
             [&] { return machine->GuestRead(1, kHvBase, 20).status(); });
      break;
    case 2:
      DmaAttack(machine, kHvBase + 64, /*is_read=*/false);
      break;
    case 3:
      Attack(hv, HvDenial::kBadRegion, [&] { return hv->HcStartSession(0x1000).status(); });
      break;
    case 4: {
      // Corrupt header: stage a 2-byte "SLB" at a free slot, then ask the
      // hypervisor to protect it. SKINIT's header rules must refuse.
      const uint64_t slot = hv->FreeSlotBase();
      if (slot == 0) {
        Attack(hv, HvDenial::kBadRegion, [&] { return hv->HcStartSession(0x1000).status(); });
        break;
      }
      (void)machine->GuestWrite(0, slot, Bytes{2, 0, 9, 9});
      Attack(hv, HvDenial::kBadHeader, [&] { return hv->HcStartSession(slot).status(); });
      break;
    }
    case 5:
      Attack(hv, HvDenial::kSessionNotFound,
             [&] { return hv->RunSession(0xdead, binary_, SlbCoreOptions()).status(); });
      break;
    case 6:
      Attack(hv, HvDenial::kBadHypercallParam,
             [&] { return hv->HcCollectOutputs(0).status(); });
      break;
    case 7:
      Attack(hv, HvDenial::kSessionNotFound,
             [&] { return hv->HcCollectOutputs(0xdead).status(); });
      break;
    case 8:
      Attack(hv, HvDenial::kAlreadyLaunched, [&] { return hv->LateLaunch(); });
      break;
    case 9: {
      // Core hijack: a validly staged PAL asking for an OS core.
      const uint64_t slot = hv->FreeSlotBase();
      FlickerModule* module = platform->flicker_module();
      if (slot != 0 && module->WriteSlb(binary_.image).ok() &&
          module->WriteInputs(inputs_).ok() && module->StageForHypervisorAt(slot).ok()) {
        Attack(hv, HvDenial::kBadCore, [&] { return hv->HcStartSession(slot, 0).status(); });
      }
      break;
    }
    default:
      break;
  }
}

Status Campaign::ExecuteRound(FlickerPlatform* platform, bool dual, bool attacked) {
  FlickerModule* module = platform->flicker_module();
  Hypervisor* hv = platform->hypervisor();
  FLICKER_RETURN_IF_ERROR(module->WriteSlb(binary_.image));
  FLICKER_RETURN_IF_ERROR(module->WriteInputs(inputs_));
  FLICKER_RETURN_IF_ERROR(platform->EnsureHypervisorResident());

  const int session_count = dual ? 2 : 1;
  std::vector<uint64_t> slots;
  std::vector<uint64_t> ids;
  for (int i = 0; i < session_count; ++i) {
    const uint64_t slot = hv->FreeSlotBase();
    if (slot == 0) {
      return ResourceExhaustedError("no free hypervisor PAL slot");
    }
    FLICKER_RETURN_IF_ERROR(module->StageForHypervisorAt(slot));
    Result<uint64_t> id = hv->HcStartSession(slot);
    if (!id.ok()) {
      return id.status();
    }
    slots.push_back(slot);
    ids.push_back(id.value());
  }

  if (attacked) {
    MidSessionBattery(platform, slots[0], ids[0]);
  }
  if (dual) {
    // Both slots busy: a third session must die as an overlap.
    Attack(hv, HvDenial::kRegionOverlap, [&] { return hv->HcStartSession(slots[0]).status(); });
  }

  for (int i = 0; i < session_count; ++i) {
    Result<SessionRecord> record = hv->RunSession(ids[i], binary_, SlbCoreOptions());
    if (!record.ok()) {
      return record.status();
    }
    VerifyRecord(slots[i], record.value());
    FLICKER_RETURN_IF_ERROR(module->CollectOutputsAt(slots[i]));
    Result<Bytes> collected = hv->HcCollectOutputs(ids[i]);
    if (!collected.ok()) {
      return collected.status();
    }
    if (collected.value() != expected_[slots[i]].outputs) {
      ++stats_.accepted_wrong;
    }
    stats_.classic_equiv_pause_ms_total += classic_session_pause_ms_;
  }
  return Status::Ok();
}

void Campaign::RunRound(int machine_index, bool dual, bool attacked) {
  FlickerPlatform* platform = machines_[static_cast<size_t>(machine_index)].get();
  const uint64_t start_ns = platform->clock()->NowNanos();
  Status status = ExecuteRound(platform, dual, attacked);
  if (status.ok()) {
    ++stats_.rounds_completed;
    stats_.round_latencies_ms.push_back(
        static_cast<double>(platform->clock()->NowNanos() - start_ns) / 1e6);
  } else {
    ++stats_.rounds_failed;
  }
}

Result<HvCampaignStats> Campaign::Run() {
  FLICKER_RETURN_IF_ERROR(Setup());
  ScheduleRounds();
  ScheduleAttacks();
  executor_.Run();

  for (const auto& platform : machines_) {
    const HvStats& hv_stats = platform->hypervisor()->stats();
    stats_.sessions_completed += hv_stats.sessions_completed;
    stats_.exits_handled += hv_stats.exits_handled;
    for (size_t d = 0; d < static_cast<size_t>(HvDenial::kCount); ++d) {
      stats_.denials[d] += hv_stats.denials[d];
    }
    stats_.os_pause_ms_total += static_cast<double>(hv_stats.os_pause_ns) / 1e6;
    stats_.dma_blocked += platform->machine()->dma_blocked_count();
    stats_.npt_blocked += platform->machine()->npt_blocked_count();
  }
  stats_.sim_duration_ms = static_cast<double>(executor_.NowNs()) / 1e6;
  stats_.events_processed = executor_.events_processed();
  stats_.max_heap = executor_.max_heap_size();
  stats_.order_digest = executor_.OrderDigest();
  return stats_;
}

}  // namespace

double HvCampaignStats::SessionsPerSecond() const {
  return sim_duration_ms <= 0
             ? 0
             : static_cast<double>(sessions_completed) / (sim_duration_ms / 1000.0);
}

double HvCampaignStats::LatencyPercentileMs(double p) const {
  return sim::Percentile(round_latencies_ms, p);
}

double HvCampaignStats::PauseReduction() const {
  return os_pause_ms_total <= 0 ? 0 : classic_equiv_pause_ms_total / os_pause_ms_total;
}

std::string HvCampaignStats::ToJson(const HvCampaignConfig& config) const {
  JsonWriter json;
  json.Object().InlineObject("campaign").Int("machines", config.num_machines);
  json.Int("cpus", kCampaignCpus).Int("seed", config.seed);
  json.Fixed("duration_ms", config.duration_ms, 3).Int("rounds_injected", rounds_injected);
  json.Int("dual_rounds", dual_rounds).Int("attacked_rounds", attacked_rounds).End();
  json.InlineObject("sessions").Int("rounds_completed", rounds_completed);
  json.Int("rounds_failed", rounds_failed).Int("hv_sessions", sessions_completed);
  json.Int("hv_launches", hv_launches).Int("exits", exits_handled);
  json.Fixed("sessions_per_sec", SessionsPerSecond(), 3).End();
  json.InlineObject("attacks").Int("launched", attacks_launched).Int("denied", attacks_denied);
  json.Int("mistyped", attacks_mistyped).Int("accepted_wrong", accepted_wrong);
  json.Int("dma_blocked", dma_blocked).Int("npt_blocked", npt_blocked).End();
  json.InlineObject("denials");
  for (size_t d = 0; d < static_cast<size_t>(HvDenial::kCount); ++d) {
    json.Int(HvDenialName(static_cast<HvDenial>(d)), denials[d]);
  }
  json.End();
  sim::WriteLatencyJson(&json, round_latencies_ms);
  json.InlineObject("pause").Fixed("os_pause_ms", os_pause_ms_total, 3);
  json.Fixed("classic_equivalent_ms", classic_equiv_pause_ms_total, 3);
  json.Fixed("reduction", PauseReduction(), 3).End();
  json.InlineObject("engine").Int("events", events_processed).Int("max_heap", max_heap);
  json.Fixed("sim_duration_ms", sim_duration_ms, 3).Digest("order_digest", order_digest).End();
  return json.End().Take();
}

Result<HvCampaignStats> RunHvCampaign(const HvCampaignConfig& config) {
  if (config.num_machines < 1) {
    return InvalidArgumentError("campaign needs at least one machine");
  }
  Campaign campaign(config);
  return campaign.Run();
}

}  // namespace hv
}  // namespace flicker
