// The composite chaos fuzzer: seeded fault-plan generation over every
// injector the fleet harness owns, invariant oracles over the resulting
// run, and delta-debugging shrinking of any failing plan down to a minimal
// reproducer.
//
// A ChaosPlan is a list of ChaosEvents - power cuts (clean or landing on a
// crash point mid-checkpoint), rack partitions, timed wire-fault mixes, TPM
// transport fault windows and verifier-tier faults - applied on top of a
// base FleetConfig and run under the discrete-event engine. Because the
// engine is deterministic, (base, plan) IS the reproducer: the same pair
// replays the same run event-for-event, which is what makes shrinking
// sound: a candidate plan either reproduces the exact failure signature or
// it does not, with no flaky middle ground.
//
// Oracles checked after every run, in fixed order (the first violated one
// names the failure signature):
//   accepted_wrong  - a tampered frame passed the verification chain,
//   torn_state      - a checkpoint store served neither old nor new bytes
//                     (or failed closed) after a mid-seal power cut,
//   accounting      - completed + timed_out + failed != injected,
//   machine_dead    - a power-cut machine failed to reboot and rejoin,
//   starved         - a live machine kept receiving arrivals after the last
//                     fault window but never completed another round.
//
// Shrinking is ddmin over the event list (drop complement chunks at
// doubling granularity) followed by per-event attenuation (halve window
// durations and crash-point indices); every candidate re-runs the full
// deterministic simulation and is kept only if the signature reproduces
// exactly. The minimal plan serializes to a text replay file that
// `micro_fleet --replay=<file>` re-runs byte-identically.

#ifndef FLICKER_SRC_SIM_CHAOS_FUZZ_H_
#define FLICKER_SRC_SIM_CHAOS_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sim/fleet.h"

namespace flicker {
namespace sim {

// One injected fault. Tagged union over the fleet's injector set; only the
// member selected by `kind` is meaningful.
struct ChaosEvent {
  enum class Kind { kPowerCut, kPartition, kNetWindow, kTpmWindow, kVerifierFault };
  Kind kind = Kind::kPowerCut;
  FleetPowerCut power_cut;
  FleetPartition partition;
  FleetNetMixWindow net_window;
  FleetTpmFaultWindow tpm_window;
  FleetVerifierFault verifier_fault;
};

// A fault schedule: the fleet seed the run executes under plus the events
// layered onto the base config. (base, plan) fully determines the run.
struct ChaosPlan {
  uint64_t seed = 1;
  std::vector<ChaosEvent> events;
};

// Draws one plan of 1..6 faults from `seed` (splitmix-seeded,
// deterministic). Only valid plans are produced: machine/verifier indices in
// range for `base`, crash-point cuts only when base.checkpoints.enabled.
// Times are whole milliseconds inside a 2000 ms horizon, so serialized
// plans round-trip exactly through text.
ChaosPlan GenerateChaosPlan(uint64_t seed, const FleetConfig& base);

// Layers the plan's events onto a copy of the base config (and stamps the
// plan's seed), ready to hand to Fleet.
FleetConfig ApplyChaosPlan(const FleetConfig& base, const ChaosPlan& plan);

// One fuzz run's verdict. `signature` is empty when every oracle held.
struct ChaosOutcome {
  bool ran = false;  // False: the harness itself failed (see error).
  std::string error;
  std::string signature;
  FleetStats stats;
};

// First violated oracle's name (see file comment), or "" when all held.
std::string EvaluateChaosOracles(const FleetStats& stats);

// Builds and runs one fleet under (base + plan) and evaluates the oracles.
ChaosOutcome RunChaosPlan(const FleetConfig& base, const ChaosPlan& plan);

// Delta-debugging: returns a (locally) minimal plan whose run still fails
// with exactly `signature`. Every probe is a full deterministic re-run;
// `*runs_used` (optional) counts them.
ChaosPlan ShrinkChaosPlan(const FleetConfig& base, const ChaosPlan& plan,
                          const std::string& signature, int* runs_used = nullptr);

// ---- Replay files ----
//
// Text format, one directive per line; '#' lines are comments except the
// machine-readable "# signature:" header the regression gate compares
// against. The file pins the base-config fields the run depends on, so a
// replay is self-contained. The parser fails closed: an unknown directive,
// key or fault-kind name is an InvalidArgument error naming the token,
// never a silently different run.
//
//   # flicker chaos replay v1
//   # signature: torn_state
//   seed 7
//   machines 4
//   ...
//   event power_cut at=120.000 machine=1 hit=2

struct ChaosReplay {
  FleetConfig base;
  ChaosPlan plan;
  std::string signature;  // The failure this file reproduces ("" = clean).
};

std::string SerializeChaosReplay(const FleetConfig& base, const ChaosPlan& plan,
                                 const std::string& signature);
Result<ChaosReplay> ParseChaosReplay(const std::string& text);

// The failure artifact written alongside a shrunk reproducer: signature,
// minimal plan, the executor's order digest (pins the exact interleaving)
// and the process-wide crash-point census via FaultScheduler::
// DumpCrashPoints, so a torn-state report names the durability boundaries
// the failing run crossed.
std::string ChaosFailureArtifact(const FleetConfig& base, const ChaosPlan& plan,
                                 const ChaosOutcome& outcome);

// ---- Campaign ----

struct ChaosFuzzReport {
  int plans_run = 0;
  int violations = 0;  // Distinct generated plans that violated an oracle.
  bool found = false;  // At least one violation was found and shrunk.
  // First violation, shrunk: the minimal reproducer and its paperwork.
  ChaosPlan minimal;
  std::string signature;
  std::string replay_file;  // SerializeChaosReplay of the minimal plan.
  std::string artifact;     // ChaosFailureArtifact of the minimal plan's run.
  size_t original_events = 0;
  int shrink_runs = 0;
};

// Runs `num_plans` generated plans (seeds derived from campaign_seed); on
// the first oracle violation, shrinks it and fills the reproducer fields.
// Later violations are only counted - one minimal reproducer per campaign.
ChaosFuzzReport ChaosFuzz(const FleetConfig& base, uint64_t campaign_seed, int num_plans);

}  // namespace sim
}  // namespace flicker

#endif  // FLICKER_SRC_SIM_CHAOS_FUZZ_H_
