// The fleet harness: N Flicker machines and an M-verifier farm under one
// discrete-event executor.
//
// Every machine is a full FlickerPlatform (its own TPM, kernel, quote
// daemon) shrunk to a ~1.5 MB memory image so a thousand of them fit in a
// process. A seeded open-loop client injects attestation rounds (Poisson
// arrivals, uniform target machine); the targeted machine answers through
// either the direct HandleChallenge path or the tqd's Merkle batch window
// (timer-driven under the executor), ships the response across its own
// LossyChannel wire, and a farm verifier runs the full cryptographic
// VerifyAttestation / VerifyBatchQuote chain (the CA certificate step through
// the farm's shared VerifiedAikCache) before acking back across the same
// wire. Round latency is arrival-to-ack at the machine; a round whose
// frames are dropped, partitioned or lost to a power cut times out.
//
// Chaos is first-class: partition windows cut a contiguous rack of machines
// off the farm for a simulated interval, power-cut plans yank the cord on a
// machine mid-run (RAM and open batch windows lost, TPM reset; the machine
// reboots, re-runs its bootstrap session and rejoins), and verifier-fault
// windows gray-slow, crash or hang farm workers. Against the verifier tier
// the client side fights back (FleetFarmPolicy): hedged requests fire a
// second verifier after a p95-derived delay, per-verifier breakers steer
// traffic off workers that keep missing, and farm-side admission control
// sheds with an overload nack the machine answers with a full-jitter
// backoff resend. Invariant tracked throughout: a verifier must never
// accept a frame the wire tampered with (`accepted_wrong` stays zero,
// chaos or not), and a checkpoint store must never serve torn state.
//
// Determinism: same seed => byte-identical BENCH JSON and executor order
// digest; different seeds explore different interleavings via the event
// heap's seeded tiebreak.

#ifndef FLICKER_SRC_SIM_FLEET_H_
#define FLICKER_SRC_SIM_FLEET_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/attest/privacy_ca.h"
#include "src/attest/verifier.h"
#include "src/attest/verifier_health.h"
#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/core/flicker_platform.h"
#include "src/core/sealed_state.h"
#include "src/net/lossy_channel.h"
#include "src/sim/executor.h"
#include "src/slb/slb_layout.h"
#include "src/tpm/transport.h"

namespace flicker {
namespace sim {

// A contiguous rack of machines cut off from the farm: frames either way
// during [start_ms, end_ms) - measured from the injection epoch, i.e. the
// instant the bootstrapped fleet starts taking rounds - are dropped.
struct FleetPartition {
  double start_ms = 0;
  double end_ms = 0;
  int first_machine = 0;
  int last_machine = -1;  // Inclusive.
};

// The cord pulled on one machine at an instant (from the injection epoch).
struct FleetPowerCut {
  double at_ms = 0;
  int machine = 0;
  // 0: clean cord pull. >0: the cut lands on the Nth crash point inside the
  // machine's checkpoint Seal (requires FleetCheckpointConfig::enabled),
  // leaving the two-phase write torn mid-protocol exactly as the PR 3 crash
  // matrix does; the post-reboot Recover() must still serve old-or-new.
  uint64_t crash_at_hit = 0;
};

// A verifier-tier fault window, epoch-relative like partitions. Gray-slow
// inflates the verify cost by slow_factor (the verifier still answers -
// eventually); crash eats frames with no time charged (the worker restarts
// empty); hang seizes the worker until the window ends, so every frame
// queued behind it inherits the stall (head-of-line blocking).
struct FleetVerifierFault {
  enum class Kind { kGraySlow, kCrash, kHang };
  Kind kind = Kind::kGraySlow;
  int verifier = 0;
  double start_ms = 0;
  double end_ms = 0;
  double slow_factor = 10.0;  // kGraySlow only.
};

// Client-side farm policy: hedging, breaker failover and admission control.
// With hedge=false the harness dispatches exactly as before (blind
// round-robin, no shedding) so legacy runs stay event-for-event identical.
// The hedge and breaker numbers are constants in verifier_health.cc and
// fleet.cc.
struct FleetFarmPolicy {
  bool hedge = false;
  // Admission control: when every breaker-admissible verifier already holds
  // this many outstanding requests, the farm frontend sheds with an
  // overload nack the machine answers with a full-jitter backoff resend,
  // instead of queueing unboundedly. 0 = never shed.
  int max_outstanding = 0;
};

// Per-machine crash-consistent checkpoint store (DESIGN.md §9) the chaos
// plans exercise: power cuts can land mid-Seal and the recovery oracle
// checks the store still serves exactly the old or the new generation.
struct FleetCheckpointConfig {
  bool enabled = false;
  // Test-only misordered commit (commit before increment) - the seeded bug
  // the chaos fuzzer must rediscover, as in the PR 3 matrix.
  bool misordered_commit = false;
};

// A timed wire-fault window: `mix` replaces the affected machines' wire
// schedule during [start_ms, end_ms), then the base fault_mix is restored.
struct FleetNetMixWindow {
  double start_ms = 0;
  double end_ms = 0;
  int first_machine = 0;
  int last_machine = -1;  // Inclusive.
  NetFaultMix mix;
};

// A timed TPM-transport fault window on one machine (drop/garble/delay on
// the LPC bus, not the network).
struct FleetTpmFaultWindow {
  double start_ms = 0;
  double end_ms = 0;
  int machine = 0;
  FaultPlan plan;
};

struct FleetConfig {
  uint64_t seed = 1;
  int num_machines = 16;
  int num_verifiers = 2;
  int rounds = 128;
  // Open-loop Poisson client: mean gap between round injections.
  double mean_interarrival_ms = 2.0;
  // Share of machines (basis points) answering via the tqd batch window
  // instead of one quote per challenge.
  uint32_t batched_machines_bp = 5000;
  // Share of rounds (basis points) that run a fresh full Flicker session
  // before quoting, refreshing the machine's PCR 17 expectation.
  uint32_t full_session_bp = 0;
  // One TPM quote alone costs ~973 ms (Table 2), and concurrent rounds to
  // the same machine queue behind it, so timeouts live on the multi-second
  // scale.
  double round_timeout_ms = 5000.0;
  // Modeled verifier CPU cost per response checked.
  double verify_cost_ms = 0.5;
  // 512-bit keys keep a thousand TPMs affordable; the key material is
  // memoized across machines (one manufacture seed), certs are per-machine.
  size_t tpm_key_bits = 512;
  // Per-wire fault plan (seeded per machine off fault_seed); all-zero mix =
  // clean wires.
  NetFaultMix fault_mix;
  uint64_t fault_seed = 0;
  std::vector<FleetPartition> partitions;
  std::vector<FleetPowerCut> power_cuts;
  std::vector<FleetVerifierFault> verifier_faults;
  std::vector<FleetNetMixWindow> net_windows;
  std::vector<FleetTpmFaultWindow> tpm_windows;
  FleetFarmPolicy farm;
  FleetCheckpointConfig checkpoints;
};

struct FleetStats {
  // Round outcomes. completed + timed_out + failed == rounds injected.
  uint64_t rounds_injected = 0;
  uint64_t rounds_completed = 0;
  uint64_t rounds_timed_out = 0;
  uint64_t rounds_failed = 0;  // Died at the machine (dead machine, quote error).
  // Verifier-side verdicts (a rejected round still times out at the client).
  uint64_t rounds_rejected = 0;         // Clean frame failed verification.
  uint64_t tampered_rejected = 0;       // Corrupted frame correctly refused.
  uint64_t accepted_wrong = 0;          // INVARIANT: must stay zero.
  uint64_t responses_verified = 0;
  // Chaos accounting.
  uint64_t partition_drops = 0;
  uint64_t power_cuts = 0;
  uint64_t machines_dead = 0;
  // Farm-policy accounting (hedged mode; all zero on legacy runs).
  uint64_t hedges_fired = 0;
  uint64_t hedge_wins = 0;  // Rounds resolved by the hedge copy's ack.
  uint64_t overload_sheds = 0;
  uint64_t overload_resends = 0;
  uint64_t breaker_trips = 0;
  uint64_t verifier_fault_frames = 0;  // Frames that met an active verifier fault.
  std::vector<double> mttr_ms;         // Breaker open -> re-closed, per recovery.
  // Checkpoint / oracle accounting (chaos fuzzer invariants).
  uint64_t checkpoints_sealed = 0;
  uint64_t checkpoint_recoveries = 0;
  uint64_t torn_states = 0;  // INVARIANT: must stay zero.
  // Machines with arrivals after the last fault window that completed none
  // of them (the "no permanently starved machine" oracle).
  uint64_t starved_machines = 0;
  std::vector<uint64_t> machine_completed;  // Per machine, all rounds.
  // Batch shape: flushed window size -> count.
  std::map<size_t, uint64_t> batch_sizes;
  uint64_t batch_quotes = 0;
  // Time and engine.
  std::vector<double> round_latencies_ms;  // Completed rounds, completion order.
  double sim_duration_ms = 0;
  double verifier_busy_ms = 0;
  int num_verifiers = 0;
  uint64_t events_processed = 0;
  uint64_t events_cancelled = 0;
  size_t max_heap = 0;
  uint64_t order_digest = 0;

  double SessionsPerSec() const;
  // p in [0,1]; nearest-rank over completed-round latencies, 0 when none.
  double LatencyPercentileMs(double p) const;
  double VerifierUtilization() const;
  // The BENCH_fleet.json payload: stable key order, fixed precision, so two
  // same-seed runs compare byte-identical with cmp(1).
  std::string ToJson(const FleetConfig& config) const;
};

// Jain's fairness index over per-actor allocations (throughput, quotes, ...):
// (sum x)^2 / (n * sum x^2). 1.0 = perfectly fair, 1/n = one actor gets
// everything; 1.0 by convention for empty/all-zero inputs. The vTPM
// noisy-neighbor campaign reports it over healthy tenants' completed quotes.
double JainFairnessIndex(const std::vector<double>& allocations);

class Fleet {
 public:
  explicit Fleet(const FleetConfig& config);
  ~Fleet();

  // Builds machines, certs and wires, runs every machine's bootstrap
  // session, and schedules the arrival/chaos plan onto the heap. Machines
  // are built concurrently on a pool sized to the CPUs this process may
  // use; everything order-sensitive then runs on the calling thread in
  // machine-id order, so the result does not depend on the pool size. A
  // failure returns the lowest failing machine id's status and registers
  // no actors.
  Status Build();
  // Drains the heap; every injected round resolves (complete or timeout).
  Status Run();

  const FleetStats& stats() const { return stats_; }
  SimExecutor* executor() { return &executor_; }
  // The injection epoch: the latest machine-local bootstrap completion, the
  // zero point for arrivals, partitions and power cuts.
  uint64_t epoch_ns() const { return epoch_ns_; }

 private:
  struct PendingWire {
    size_t round = 0;
    bool to_farm = false;
    uint64_t sent_ns = 0;
    // Farm-policy bookkeeping (hedged mode).
    int verifier = -1;       // Farm wires: dispatch target. Acks: the sender.
    int exclude = -1;        // Hedges must not re-pick the verifier they hedge.
    uint64_t request_seq = 0;  // Acks: the farm wire this answers.
    bool hedge = false;
    bool overload_nack = false;
    bool concluded = false;  // Answered, hedged against, shed, or timed out.
  };

  struct FleetMachine {
    int id = 0;
    std::unique_ptr<FlickerPlatform> platform;
    // Backs the channel's clock slot; sends go through SendAt with explicit
    // sender instants, so this never advances and no sender's timeline can
    // leak into another's arrival times through the shared wire.
    SimClock wire_clock;
    std::unique_ptr<LossyChannel> channel;
    AikCertificate cert;
    ActorId actor = kNoActor;
    bool batched = false;
    bool dead = false;
    uint64_t reboots = 0;
    // Expectation snapshot inputs for the machine's current PCR 17 chain.
    Bytes session_nonce;
    Bytes session_outputs;
    std::map<uint64_t, PendingWire> pending;  // Channel seq -> wire record.
    // Crash-consistent checkpoint store (FleetCheckpointConfig::enabled).
    std::unique_ptr<CrashConsistentSealedStore> store;
    Bytes owner_auth;
    Bytes blob_auth;
    Bytes release_pcr;
    uint64_t checkpoint_gen = 0;  // Last generation known committed.
  };

  struct FarmVerifier {
    SimClock clock;
    ActorId actor = kNoActor;
    double busy_ms = 0;
    uint64_t verified = 0;
  };

  struct RoundState {
    int machine = 0;
    Bytes nonce;
    uint64_t arrival_ns = 0;
    EventId timeout;
    bool resolved = false;
    bool full_session = false;
    bool is_batch = false;
    int hedge_count = 0;         // Hedges fired so far (capped by the policy).
    int overload_resends = 0;
    Bytes response_wire;         // The farm-bound frame: hedges, resends, tamper check.
    // Expectation snapshot captured when the quote was produced, so a
    // machine refreshing its session mid-flight cannot invalidate earlier
    // genuine quotes.
    Bytes snapshot_nonce;
    Bytes snapshot_outputs;
  };

  Bytes DeriveNonce(const std::string& label, uint64_t a, uint64_t b) const;
  Status ValidateConfig() const;
  // Build's pool tasks: each touches only its own machine (or the rounds)
  // plus read-only fleet state, so tasks run concurrently.
  Status BuildMachine(const FlickerPlatformConfig& platform_config, FleetMachine* machine);
  void DrawArrivals();
  Status BootstrapMachine(FleetMachine* machine);
  Status SetupCheckpointStore(FleetMachine* machine);
  bool Partitioned(int machine, uint64_t at_ns) const;
  SessionExpectation SnapshotExpectation(const RoundState& round) const;
  double MsSinceEpoch(uint64_t at_ns) const;
  const FleetVerifierFault* ActiveVerifierFault(int verifier, uint64_t at_ns) const;

  // Event handlers.
  void OnArrival(size_t round_index);
  void OnWireEnqueued(int machine_id, NetEndpoint dest, uint64_t seq, uint64_t arrival_ns);
  void OnFarmDelivery(int machine_id, uint64_t seq, uint64_t arrival_ns, int verifier_index);
  void OnResponseDelivery(int machine_id, uint64_t seq, uint64_t arrival_ns);
  void OnTimeout(size_t round_index);
  void OnPowerCut(const FleetPowerCut& cut);
  void OnHedgeTimer(int machine_id, uint64_t seq, size_t round_index, double hedge_delay_ms);
  void OnOverloadResend(size_t round_index);

  // Stamps the wire at the sender's instant and ships one frame. Returns the
  // channel sequence number of the frame for post-hoc annotation.
  uint64_t SendWire(FleetMachine* machine, size_t round_index, bool to_farm, Bytes wire,
                    uint64_t sender_now_ns, int exclude = -1, bool hedge = false,
                    bool overload_nack = false);
  void SendBatchSlices(int machine_id, std::vector<BatchQuoteResponse> slices);
  void FailRound(size_t round_index);

  // Declared first, so destroyed last: once every other member has freed
  // its memory, returns the free pages of all malloc arenas to the OS.
  struct ReleaseFreedMemory {
    ~ReleaseFreedMemory();
  };
  ReleaseFreedMemory release_freed_memory_;
  FleetConfig config_;
  SimExecutor executor_;
  PrivacyCa ca_;
  std::unique_ptr<PalBinary> binary_;
  std::vector<std::unique_ptr<FleetMachine>> machines_;
  std::vector<FarmVerifier> verifiers_;
  // One verified-AIK cache for the whole farm: frames go round-robin (or by
  // health) over the verifiers, so per-verifier caches would each re-check
  // every certificate once more.
  VerifiedAikCache aik_cache_;
  std::vector<RoundState> rounds_;
  std::map<Bytes, size_t> nonce_to_round_;
  uint64_t next_verifier_ = 0;  // Round-robin farm dispatch (legacy mode).
  std::unique_ptr<VerifierHealthTracker> health_;  // Hedged mode only.
  uint64_t epoch_ns_ = 0;
  // End of the last configured fault window; arrivals after this instant
  // feed the starvation oracle.
  uint64_t quiesce_ns_ = 0;
  std::vector<uint64_t> machine_arrivals_after_quiesce_;
  std::vector<uint64_t> machine_completed_after_quiesce_;
  FleetStats stats_;
  bool built_ = false;
};

}  // namespace sim
}  // namespace flicker

#endif  // FLICKER_SRC_SIM_FLEET_H_
