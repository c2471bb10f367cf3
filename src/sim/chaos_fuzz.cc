#include "src/sim/chaos_fuzz.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>

#include "src/common/fault.h"
#include "src/crypto/drbg.h"
#include "src/obs/metrics.h"
#include "src/sim/campaign.h"

namespace flicker {
namespace sim {

namespace {

// The generator's dice. Times are drawn as whole milliseconds inside
// [0, kHorizonMs) so serialized plans round-trip exactly through text.
constexpr uint64_t kMaxEvents = 6;  // Plans carry 1..kMaxEvents faults.
constexpr double kHorizonMs = 2000.0;  // Fault windows live inside this span.
constexpr double kMaxWindowMs = 800.0;
constexpr uint64_t kMaxCrashHit = 6;  // Crash-point cuts land on hit 1..max.

const char* TpmFaultKindName(FaultPlan::Kind kind) {
  switch (kind) {
    case FaultPlan::Kind::kNone:
      return "none";
    case FaultPlan::Kind::kDrop:
      return "drop";
    case FaultPlan::Kind::kGarble:
      return "garble";
    case FaultPlan::Kind::kDelay:
      return "delay";
  }
  return "none";
}

const char* VerifierFaultKindName(FleetVerifierFault::Kind kind) {
  switch (kind) {
    case FleetVerifierFault::Kind::kGraySlow:
      return "gray";
    case FleetVerifierFault::Kind::kCrash:
      return "crash";
    case FleetVerifierFault::Kind::kHang:
      return "hang";
  }
  return "gray";
}

// One event as one replay-file line. Shared by the serializer and the
// failure artifact so both always agree on the format the parser reads.
std::string EventLine(const ChaosEvent& event) {
  std::ostringstream os;
  os << "event ";
  switch (event.kind) {
    case ChaosEvent::Kind::kPowerCut:
      os << "power_cut at=" << F3(event.power_cut.at_ms)
         << " machine=" << event.power_cut.machine << " hit=" << event.power_cut.crash_at_hit;
      break;
    case ChaosEvent::Kind::kPartition:
      os << "partition start=" << F3(event.partition.start_ms)
         << " end=" << F3(event.partition.end_ms) << " first=" << event.partition.first_machine
         << " last=" << event.partition.last_machine;
      break;
    case ChaosEvent::Kind::kNetWindow:
      os << "net_window start=" << F3(event.net_window.start_ms)
         << " end=" << F3(event.net_window.end_ms) << " first=" << event.net_window.first_machine
         << " last=" << event.net_window.last_machine
         << " drop=" << event.net_window.mix.drop_bp << " dup=" << event.net_window.mix.duplicate_bp
         << " reorder=" << event.net_window.mix.reorder_bp
         << " corrupt=" << event.net_window.mix.corrupt_bp
         << " delay=" << event.net_window.mix.delay_bp
         << " delay_ms=" << F3(event.net_window.mix.delay_ms)
         << " reorder_ms=" << F3(event.net_window.mix.reorder_ms);
      break;
    case ChaosEvent::Kind::kTpmWindow:
      os << "tpm_window start=" << F3(event.tpm_window.start_ms)
         << " end=" << F3(event.tpm_window.end_ms) << " machine=" << event.tpm_window.machine
         << " kind=" << TpmFaultKindName(event.tpm_window.plan.kind)
         << " every_n=" << event.tpm_window.plan.every_n
         << " delay_ms=" << F3(event.tpm_window.plan.delay_ms)
         << " drop_timeout_ms=" << F3(event.tpm_window.plan.drop_timeout_ms);
      break;
    case ChaosEvent::Kind::kVerifierFault:
      os << "verifier_fault kind=" << VerifierFaultKindName(event.verifier_fault.kind)
         << " verifier=" << event.verifier_fault.verifier
         << " start=" << F3(event.verifier_fault.start_ms)
         << " end=" << F3(event.verifier_fault.end_ms)
         << " slow=" << F3(event.verifier_fault.slow_factor);
      break;
  }
  return os.str();
}

// key=value tokens of one directive line (tokens after the directive word),
// each filed whole under its key; a token without '=' lands under a key no
// field reads. Every Kv* read takes its key out, so what is left once a
// line is parsed is a token no field asked for.
using KvMap = std::map<std::string, std::string>;

KvMap ParseKv(std::istringstream* line) {
  KvMap kv;
  std::string token;
  while (*line >> token) {
    const size_t eq = token.find('=');
    kv[eq == std::string::npos ? "=" + token : token.substr(0, eq)] = token;
  }
  return kv;
}

// Takes `key`'s value out of `kv`; false, leaving `value` alone, when the
// line omits the key.
bool KvTake(KvMap* kv, const char* key, std::string* value) {
  auto it = kv->find(key);
  if (it == kv->end()) {
    return false;
  }
  *value = it->second.substr(it->second.find('=') + 1);
  kv->erase(it);
  return true;
}

double KvDouble(KvMap* kv, const char* key, double fallback) {
  std::string value;
  return KvTake(kv, key, &value) ? std::strtod(value.c_str(), nullptr) : fallback;
}

uint64_t KvU64(KvMap* kv, const char* key, uint64_t fallback) {
  std::string value;
  return KvTake(kv, key, &value) ? std::strtoull(value.c_str(), nullptr, 10) : fallback;
}

int KvInt(KvMap* kv, const char* key, int fallback) {
  return static_cast<int>(KvU64(kv, key, static_cast<uint64_t>(fallback)));
}

// Fails closed on a leftover token: a replay naming a misspelled or removed
// knob would otherwise run a different config than it was written from.
Status RejectLeftovers(const KvMap& kv, const std::string& directive) {
  if (kv.empty()) {
    return Status::Ok();
  }
  return InvalidArgumentError("chaos replay: unknown " + directive + " token '" +
                              kv.begin()->second + "'");
}

// Integer-millisecond draw in [0, bound); generated times round-trip
// exactly through the %.3f text format.
double DrawMs(Drbg* rng, double bound) {
  if (bound < 1.0) {
    return 0;
  }
  return static_cast<double>(rng->UniformUint64(static_cast<uint64_t>(bound)));
}

}  // namespace

ChaosPlan GenerateChaosPlan(uint64_t seed, const FleetConfig& base) {
  Drbg rng(seed ^ 0xC4A05F22ULL);
  ChaosPlan plan;
  plan.seed = seed;
  const int n = base.num_machines;
  const uint64_t count = 1 + rng.UniformUint64(kMaxEvents);
  for (uint64_t i = 0; i < count; ++i) {
    ChaosEvent event;
    const uint64_t roll = rng.UniformUint64(100);
    const double start = DrawMs(&rng, kHorizonMs - 1.0);
    const double max_dur = std::min(kMaxWindowMs, kHorizonMs - start);
    const double dur = 1.0 + DrawMs(&rng, std::max(1.0, max_dur - 1.0));
    if (roll < 25) {
      event.kind = ChaosEvent::Kind::kPowerCut;
      event.power_cut.at_ms = DrawMs(&rng, kHorizonMs);
      event.power_cut.machine = static_cast<int>(rng.UniformUint64(static_cast<uint64_t>(n)));
      if (base.checkpoints.enabled && rng.UniformUint64(2) == 1) {
        event.power_cut.crash_at_hit = 1 + rng.UniformUint64(kMaxCrashHit);
      }
    } else if (roll < 45) {
      event.kind = ChaosEvent::Kind::kPartition;
      event.partition.start_ms = start;
      event.partition.end_ms = start + dur;
      event.partition.first_machine = static_cast<int>(rng.UniformUint64(static_cast<uint64_t>(n)));
      const uint64_t len =
          1 + rng.UniformUint64(static_cast<uint64_t>(n - event.partition.first_machine));
      event.partition.last_machine = event.partition.first_machine + static_cast<int>(len) - 1;
    } else if (roll < 65) {
      event.kind = ChaosEvent::Kind::kNetWindow;
      event.net_window.start_ms = start;
      event.net_window.end_ms = start + dur;
      event.net_window.first_machine =
          static_cast<int>(rng.UniformUint64(static_cast<uint64_t>(n)));
      const uint64_t len =
          1 + rng.UniformUint64(static_cast<uint64_t>(n - event.net_window.first_machine));
      event.net_window.last_machine = event.net_window.first_machine + static_cast<int>(len) - 1;
      event.net_window.mix.drop_bp = static_cast<uint32_t>(rng.UniformUint64(21)) * 100;
      event.net_window.mix.duplicate_bp = static_cast<uint32_t>(rng.UniformUint64(11)) * 100;
      event.net_window.mix.reorder_bp = static_cast<uint32_t>(rng.UniformUint64(11)) * 100;
      event.net_window.mix.corrupt_bp = static_cast<uint32_t>(rng.UniformUint64(21)) * 100;
      event.net_window.mix.delay_bp = static_cast<uint32_t>(rng.UniformUint64(11)) * 100;
    } else if (roll < 80) {
      event.kind = ChaosEvent::Kind::kTpmWindow;
      event.tpm_window.start_ms = start;
      event.tpm_window.end_ms = start + dur;
      event.tpm_window.machine = static_cast<int>(rng.UniformUint64(static_cast<uint64_t>(n)));
      const uint64_t kind_roll = rng.UniformUint64(3);
      event.tpm_window.plan.kind = kind_roll == 0   ? FaultPlan::Kind::kDrop
                                   : kind_roll == 1 ? FaultPlan::Kind::kGarble
                                                    : FaultPlan::Kind::kDelay;
      event.tpm_window.plan.every_n = 1 + rng.UniformUint64(4);
      event.tpm_window.plan.delay_ms = 1.0 + DrawMs(&rng, 10.0);
      event.tpm_window.plan.drop_timeout_ms = 5.0;
    } else {
      event.kind = ChaosEvent::Kind::kVerifierFault;
      const uint64_t kind_roll = rng.UniformUint64(4);
      event.verifier_fault.kind = kind_roll < 2 ? FleetVerifierFault::Kind::kGraySlow
                                 : kind_roll == 2 ? FleetVerifierFault::Kind::kCrash
                                                  : FleetVerifierFault::Kind::kHang;
      event.verifier_fault.verifier =
          static_cast<int>(rng.UniformUint64(static_cast<uint64_t>(base.num_verifiers)));
      event.verifier_fault.start_ms = start;
      event.verifier_fault.end_ms = start + dur;
      event.verifier_fault.slow_factor = static_cast<double>(2 + rng.UniformUint64(15));
    }
    plan.events.push_back(event);
  }
  return plan;
}

FleetConfig ApplyChaosPlan(const FleetConfig& base, const ChaosPlan& plan) {
  FleetConfig config = base;
  config.seed = plan.seed;
  for (const ChaosEvent& event : plan.events) {
    switch (event.kind) {
      case ChaosEvent::Kind::kPowerCut:
        config.power_cuts.push_back(event.power_cut);
        break;
      case ChaosEvent::Kind::kPartition:
        config.partitions.push_back(event.partition);
        break;
      case ChaosEvent::Kind::kNetWindow:
        config.net_windows.push_back(event.net_window);
        break;
      case ChaosEvent::Kind::kTpmWindow:
        config.tpm_windows.push_back(event.tpm_window);
        break;
      case ChaosEvent::Kind::kVerifierFault:
        config.verifier_faults.push_back(event.verifier_fault);
        break;
    }
  }
  return config;
}

std::string EvaluateChaosOracles(const FleetStats& stats) {
  if (stats.accepted_wrong != 0) {
    return "accepted_wrong";
  }
  if (stats.torn_states != 0) {
    return "torn_state";
  }
  if (stats.rounds_completed + stats.rounds_timed_out + stats.rounds_failed !=
      stats.rounds_injected) {
    return "accounting";
  }
  if (stats.machines_dead != 0) {
    return "machine_dead";
  }
  if (stats.starved_machines != 0) {
    return "starved";
  }
  return "";
}

ChaosOutcome RunChaosPlan(const FleetConfig& base, const ChaosPlan& plan) {
  ChaosOutcome outcome;
  Fleet fleet(ApplyChaosPlan(base, plan));
  Status run = fleet.Run();
  obs::Count(obs::Ctr::kChaosPlansRun);
  if (!run.ok()) {
    outcome.error = run.ToString();
    return outcome;
  }
  outcome.ran = true;
  outcome.stats = fleet.stats();
  outcome.signature = EvaluateChaosOracles(outcome.stats);
  if (!outcome.signature.empty()) {
    obs::Count(obs::Ctr::kChaosViolationsFound);
  }
  return outcome;
}

ChaosPlan ShrinkChaosPlan(const FleetConfig& base, const ChaosPlan& plan,
                          const std::string& signature, int* runs_used) {
  int runs = 0;
  auto reproduces = [&](const ChaosPlan& candidate) {
    ++runs;
    ChaosOutcome outcome = RunChaosPlan(base, candidate);
    return outcome.ran && outcome.signature == signature;
  };

  ChaosPlan current = plan;

  // Phase 1: ddmin over the event list. Try dropping each chunk at the
  // current granularity; adopt any candidate that still reproduces, then
  // restart at coarse granularity (the list just got shorter). When no
  // chunk at this granularity can go, halve the chunks.
  size_t granularity = 2;
  while (current.events.size() >= 2) {
    const size_t chunk =
        std::max<size_t>(1, (current.events.size() + granularity - 1) / granularity);
    bool reduced = false;
    for (size_t start = 0; start < current.events.size(); start += chunk) {
      ChaosPlan candidate = current;
      const size_t end = std::min(current.events.size(), start + chunk);
      candidate.events.erase(candidate.events.begin() + static_cast<long>(start),
                             candidate.events.begin() + static_cast<long>(end));
      if (reproduces(candidate)) {
        current = candidate;
        reduced = true;
        break;
      }
    }
    if (reduced) {
      granularity = 2;
      continue;
    }
    if (chunk == 1) {
      break;  // Every single event is load-bearing.
    }
    granularity *= 2;
  }

  // Phase 2: attenuate the survivors - halve window durations and
  // crash-point indices while the signature still reproduces, so the
  // reproducer is minimal in magnitude as well as in event count.
  bool attenuated = true;
  while (attenuated) {
    attenuated = false;
    for (size_t i = 0; i < current.events.size(); ++i) {
      ChaosPlan candidate = current;
      ChaosEvent& event = candidate.events[i];
      bool changed = false;
      switch (event.kind) {
        case ChaosEvent::Kind::kPowerCut:
          if (event.power_cut.crash_at_hit > 1) {
            event.power_cut.crash_at_hit /= 2;
            changed = true;
          }
          break;
        case ChaosEvent::Kind::kPartition:
          if (event.partition.end_ms - event.partition.start_ms >= 2.0) {
            event.partition.end_ms =
                event.partition.start_ms + (event.partition.end_ms - event.partition.start_ms) / 2;
            changed = true;
          }
          break;
        case ChaosEvent::Kind::kNetWindow:
          if (event.net_window.end_ms - event.net_window.start_ms >= 2.0) {
            event.net_window.end_ms = event.net_window.start_ms +
                                      (event.net_window.end_ms - event.net_window.start_ms) / 2;
            changed = true;
          }
          break;
        case ChaosEvent::Kind::kTpmWindow:
          if (event.tpm_window.end_ms - event.tpm_window.start_ms >= 2.0) {
            event.tpm_window.end_ms = event.tpm_window.start_ms +
                                      (event.tpm_window.end_ms - event.tpm_window.start_ms) / 2;
            changed = true;
          }
          break;
        case ChaosEvent::Kind::kVerifierFault:
          if (event.verifier_fault.end_ms - event.verifier_fault.start_ms >= 2.0) {
            event.verifier_fault.end_ms =
                event.verifier_fault.start_ms +
                (event.verifier_fault.end_ms - event.verifier_fault.start_ms) / 2;
            changed = true;
          }
          break;
      }
      if (changed && reproduces(candidate)) {
        current = candidate;
        attenuated = true;
      }
    }
  }

  if (runs_used != nullptr) {
    *runs_used = runs;
  }
  return current;
}

std::string SerializeChaosReplay(const FleetConfig& base, const ChaosPlan& plan,
                                 const std::string& signature) {
  std::ostringstream os;
  os << "# flicker chaos replay v1\n";
  os << "# signature: " << signature << "\n";
  os << "seed " << plan.seed << "\n";
  os << "machines " << base.num_machines << "\n";
  os << "verifiers " << base.num_verifiers << "\n";
  os << "rounds " << base.rounds << "\n";
  os << "mean_interarrival_ms " << F3(base.mean_interarrival_ms) << "\n";
  os << "round_timeout_ms " << F3(base.round_timeout_ms) << "\n";
  os << "verify_cost_ms " << F3(base.verify_cost_ms) << "\n";
  os << "tpm_key_bits " << base.tpm_key_bits << "\n";
  os << "batched_machines_bp " << base.batched_machines_bp << "\n";
  os << "full_session_bp " << base.full_session_bp << "\n";
  os << "fault_seed " << base.fault_seed << "\n";
  os << "fault_mix drop=" << base.fault_mix.drop_bp << " dup=" << base.fault_mix.duplicate_bp
     << " reorder=" << base.fault_mix.reorder_bp << " corrupt=" << base.fault_mix.corrupt_bp
     << " delay=" << base.fault_mix.delay_bp << " delay_ms=" << F3(base.fault_mix.delay_ms)
     << " reorder_ms=" << F3(base.fault_mix.reorder_ms) << "\n";
  os << "checkpoints " << (base.checkpoints.enabled ? 1 : 0) << "\n";
  os << "misordered_commit " << (base.checkpoints.misordered_commit ? 1 : 0) << "\n";
  os << "hedge " << (base.farm.hedge ? 1 : 0) << "\n";
  if (base.farm.hedge) {
    os << "farm max_outstanding=" << base.farm.max_outstanding << "\n";
  }
  for (const ChaosEvent& event : plan.events) {
    os << EventLine(event) << "\n";
  }
  return os.str();
}

Result<ChaosReplay> ParseChaosReplay(const std::string& text) {
  ChaosReplay replay;
  // Zeroed so the missing-directive check below cannot be satisfied by
  // FleetConfig's defaults: a replay must state its own fleet shape.
  replay.base.num_machines = 0;
  replay.base.num_verifiers = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      const std::string kSigPrefix = "# signature: ";
      if (line.compare(0, kSigPrefix.size(), kSigPrefix) == 0) {
        replay.signature = line.substr(kSigPrefix.size());
      }
      continue;
    }
    std::istringstream tokens(line);
    std::string directive;
    tokens >> directive;
    if (directive == "seed") {
      tokens >> replay.plan.seed;
      replay.base.seed = replay.plan.seed;
    } else if (directive == "machines") {
      tokens >> replay.base.num_machines;
    } else if (directive == "verifiers") {
      tokens >> replay.base.num_verifiers;
    } else if (directive == "rounds") {
      tokens >> replay.base.rounds;
    } else if (directive == "mean_interarrival_ms") {
      tokens >> replay.base.mean_interarrival_ms;
    } else if (directive == "round_timeout_ms") {
      tokens >> replay.base.round_timeout_ms;
    } else if (directive == "verify_cost_ms") {
      tokens >> replay.base.verify_cost_ms;
    } else if (directive == "tpm_key_bits") {
      tokens >> replay.base.tpm_key_bits;
    } else if (directive == "batched_machines_bp") {
      tokens >> replay.base.batched_machines_bp;
    } else if (directive == "full_session_bp") {
      tokens >> replay.base.full_session_bp;
    } else if (directive == "fault_seed") {
      tokens >> replay.base.fault_seed;
    } else if (directive == "fault_mix") {
      KvMap kv = ParseKv(&tokens);
      replay.base.fault_mix.drop_bp = static_cast<uint32_t>(KvU64(&kv, "drop", 0));
      replay.base.fault_mix.duplicate_bp = static_cast<uint32_t>(KvU64(&kv, "dup", 0));
      replay.base.fault_mix.reorder_bp = static_cast<uint32_t>(KvU64(&kv, "reorder", 0));
      replay.base.fault_mix.corrupt_bp = static_cast<uint32_t>(KvU64(&kv, "corrupt", 0));
      replay.base.fault_mix.delay_bp = static_cast<uint32_t>(KvU64(&kv, "delay", 0));
      replay.base.fault_mix.delay_ms = KvDouble(&kv, "delay_ms", 25.0);
      replay.base.fault_mix.reorder_ms = KvDouble(&kv, "reorder_ms", 15.0);
      FLICKER_RETURN_IF_ERROR(RejectLeftovers(kv, directive));
    } else if (directive == "checkpoints") {
      int flag = 0;
      tokens >> flag;
      replay.base.checkpoints.enabled = flag != 0;
    } else if (directive == "misordered_commit") {
      int flag = 0;
      tokens >> flag;
      replay.base.checkpoints.misordered_commit = flag != 0;
    } else if (directive == "hedge") {
      int flag = 0;
      tokens >> flag;
      replay.base.farm.hedge = flag != 0;
    } else if (directive == "farm") {
      KvMap kv = ParseKv(&tokens);
      replay.base.farm.max_outstanding = KvInt(&kv, "max_outstanding", 0);
      FLICKER_RETURN_IF_ERROR(RejectLeftovers(kv, directive));
    } else if (directive == "event") {
      std::string kind;
      tokens >> kind;
      KvMap kv = ParseKv(&tokens);
      ChaosEvent event;
      if (kind == "power_cut") {
        event.kind = ChaosEvent::Kind::kPowerCut;
        event.power_cut.at_ms = KvDouble(&kv, "at", 0);
        event.power_cut.machine = KvInt(&kv, "machine", 0);
        event.power_cut.crash_at_hit = KvU64(&kv, "hit", 0);
      } else if (kind == "partition") {
        event.kind = ChaosEvent::Kind::kPartition;
        event.partition.start_ms = KvDouble(&kv, "start", 0);
        event.partition.end_ms = KvDouble(&kv, "end", 0);
        event.partition.first_machine = KvInt(&kv, "first", 0);
        event.partition.last_machine = KvInt(&kv, "last", -1);
      } else if (kind == "net_window") {
        event.kind = ChaosEvent::Kind::kNetWindow;
        event.net_window.start_ms = KvDouble(&kv, "start", 0);
        event.net_window.end_ms = KvDouble(&kv, "end", 0);
        event.net_window.first_machine = KvInt(&kv, "first", 0);
        event.net_window.last_machine = KvInt(&kv, "last", -1);
        event.net_window.mix.drop_bp = static_cast<uint32_t>(KvU64(&kv, "drop", 0));
        event.net_window.mix.duplicate_bp = static_cast<uint32_t>(KvU64(&kv, "dup", 0));
        event.net_window.mix.reorder_bp = static_cast<uint32_t>(KvU64(&kv, "reorder", 0));
        event.net_window.mix.corrupt_bp = static_cast<uint32_t>(KvU64(&kv, "corrupt", 0));
        event.net_window.mix.delay_bp = static_cast<uint32_t>(KvU64(&kv, "delay", 0));
        event.net_window.mix.delay_ms = KvDouble(&kv, "delay_ms", 25.0);
        event.net_window.mix.reorder_ms = KvDouble(&kv, "reorder_ms", 15.0);
      } else if (kind == "tpm_window") {
        event.kind = ChaosEvent::Kind::kTpmWindow;
        event.tpm_window.start_ms = KvDouble(&kv, "start", 0);
        event.tpm_window.end_ms = KvDouble(&kv, "end", 0);
        event.tpm_window.machine = KvInt(&kv, "machine", 0);
        std::string plan_kind = "none";
        KvTake(&kv, "kind", &plan_kind);
        event.tpm_window.plan.kind = plan_kind == "drop"     ? FaultPlan::Kind::kDrop
                                     : plan_kind == "garble" ? FaultPlan::Kind::kGarble
                                     : plan_kind == "delay"  ? FaultPlan::Kind::kDelay
                                                             : FaultPlan::Kind::kNone;
        // A name the serializer never writes maps to none; refuse it.
        if (plan_kind != TpmFaultKindName(event.tpm_window.plan.kind)) {
          return InvalidArgumentError("chaos replay: unknown tpm_window kind '" + plan_kind + "'");
        }
        event.tpm_window.plan.every_n = KvU64(&kv, "every_n", 0);
        event.tpm_window.plan.delay_ms = KvDouble(&kv, "delay_ms", 0);
        event.tpm_window.plan.drop_timeout_ms = KvDouble(&kv, "drop_timeout_ms", 0);
      } else if (kind == "verifier_fault") {
        event.kind = ChaosEvent::Kind::kVerifierFault;
        std::string fault_kind = "gray";
        KvTake(&kv, "kind", &fault_kind);
        event.verifier_fault.kind = fault_kind == "crash" ? FleetVerifierFault::Kind::kCrash
                                    : fault_kind == "hang"
                                        ? FleetVerifierFault::Kind::kHang
                                        : FleetVerifierFault::Kind::kGraySlow;
        if (fault_kind != VerifierFaultKindName(event.verifier_fault.kind)) {
          return InvalidArgumentError("chaos replay: unknown verifier_fault kind '" + fault_kind +
                                      "'");
        }
        event.verifier_fault.verifier = KvInt(&kv, "verifier", 0);
        event.verifier_fault.start_ms = KvDouble(&kv, "start", 0);
        event.verifier_fault.end_ms = KvDouble(&kv, "end", 0);
        event.verifier_fault.slow_factor = KvDouble(&kv, "slow", 10.0);
      } else {
        return InvalidArgumentError("chaos replay: unknown event kind '" + kind + "'");
      }
      FLICKER_RETURN_IF_ERROR(RejectLeftovers(kv, kind));
      replay.plan.events.push_back(event);
    } else {
      return InvalidArgumentError("chaos replay: unknown directive '" + directive + "'");
    }
  }
  if (replay.base.num_machines <= 0 || replay.base.num_verifiers <= 0) {
    return InvalidArgumentError("chaos replay: missing machines/verifiers directives");
  }
  return replay;
}

std::string ChaosFailureArtifact(const FleetConfig& base, const ChaosPlan& plan,
                                 const ChaosOutcome& outcome) {
  std::ostringstream os;
  os << "chaos failure artifact\n";
  os << "signature: " << outcome.signature << "\n";
  os << "plan: seed " << plan.seed << ", " << plan.events.size() << " event(s)\n";
  for (const ChaosEvent& event : plan.events) {
    os << "  " << EventLine(event) << "\n";
  }
  os << "order_digest: " << HexDigest(outcome.stats.order_digest) << " (" << outcome.stats.events_processed
     << " events processed)\n";
  os << "oracles: accepted_wrong=" << outcome.stats.accepted_wrong
     << " torn_states=" << outcome.stats.torn_states
     << " machines_dead=" << outcome.stats.machines_dead
     << " starved=" << outcome.stats.starved_machines << " outcomes "
     << outcome.stats.rounds_completed << "+" << outcome.stats.rounds_timed_out << "+"
     << outcome.stats.rounds_failed << "/" << outcome.stats.rounds_injected << "\n";
  os << "base: " << base.num_machines << " machines, " << base.num_verifiers << " verifiers, "
     << base.rounds << " rounds\n";
  // The crash-point census names every durability boundary the failing run
  // executed - for a torn_state signature, the suspects list.
  FaultScheduler census;
  census.DumpCrashPoints(os);
  return os.str();
}

ChaosFuzzReport ChaosFuzz(const FleetConfig& base, uint64_t campaign_seed, int num_plans) {
  ChaosFuzzReport report;
  for (int p = 0; p < num_plans; ++p) {
    const uint64_t plan_seed =
        campaign_seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(p) + 1));
    ChaosPlan plan = GenerateChaosPlan(plan_seed, base);
    ChaosOutcome outcome = RunChaosPlan(base, plan);
    ++report.plans_run;
    if (!outcome.ran || outcome.signature.empty()) {
      continue;
    }
    ++report.violations;
    if (report.found) {
      continue;  // One minimal reproducer per campaign; later hits only count.
    }
    report.found = true;
    report.signature = outcome.signature;
    report.original_events = plan.events.size();
    report.minimal = ShrinkChaosPlan(base, plan, outcome.signature, &report.shrink_runs);
    ChaosOutcome minimal_outcome = RunChaosPlan(base, report.minimal);
    report.replay_file = SerializeChaosReplay(base, report.minimal, report.signature);
    report.artifact = ChaosFailureArtifact(base, report.minimal, minimal_outcome);
  }
  return report;
}

}  // namespace sim
}  // namespace flicker
