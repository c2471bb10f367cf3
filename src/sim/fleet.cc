#include "src/sim/fleet.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <functional>
#include <system_error>
#include <thread>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "src/apps/hello.h"
#include "src/common/backoff.h"
#include "src/common/fault.h"
#include "src/common/json.h"
#include "src/core/remote_attestation.h"
#include "src/crypto/drbg.h"
#include "src/crypto/sha1.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/campaign.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {
namespace sim {

namespace {

// A hedge copy arms its own hedge timer, so a round whose duplicate also
// landed on a slow verifier escalates again - up to this many hedges. With
// two gray verifiers in the farm a one-shot hedge can land gray-on-gray and
// stall the round.
constexpr int kMaxHedgesPerRound = 3;

// The batched machines' tqd coalescing window: flushed at this many
// challenges (or once the oldest has waited TpmQuoteDaemon::kMaxBatchWaitMs).
constexpr size_t kMaxBatchSize = 8;

// Paces overload resends. Full jitter, so a rack of shed machines spreads
// its return over the whole window instead of re-arriving in lockstep.
constexpr BackoffPolicy kOverloadBackoff{10.0, 2.0, 500.0, 0, true};

// The build pool's size: the CPUs this process may run on, capped by the
// hardware thread count and by the number of tasks.
size_t BuildPoolSize(size_t tasks) {
  size_t cpus = tasks;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    cpus = std::min(cpus, static_cast<size_t>(CPU_COUNT(&allowed)));
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  if (hardware != 0) {
    cpus = std::min(cpus, static_cast<size_t>(hardware));
  }
  return std::max<size_t>(cpus, 1);
}

// Runs task(0) .. task(count - 1) on the calling thread plus
// BuildPoolSize(count) - 1 workers, each claiming the lowest unclaimed
// index, and returns once every task has finished. A task must not throw.
void RunOnPool(size_t count, const std::function<void(size_t)>& task) {
  std::atomic<size_t> next{0};
  const auto drain = [&] {
    for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      task(i);
    }
  };
  std::vector<std::thread> workers;
  const size_t pool = BuildPoolSize(count);
  for (size_t w = 1; w < pool; ++w) {
    try {
      workers.emplace_back(drain);
    } catch (const std::system_error&) {
      break;  // No thread to be had: the threads already running drain it all.
    }
  }
  drain();
  for (std::thread& worker : workers) {
    worker.join();
  }
}

}  // namespace

// ---- FleetStats ----

double FleetStats::SessionsPerSec() const {
  if (sim_duration_ms <= 0) {
    return 0;
  }
  return static_cast<double>(rounds_completed) * 1000.0 / sim_duration_ms;
}

double FleetStats::LatencyPercentileMs(double p) const {
  return Percentile(round_latencies_ms, p);
}

double FleetStats::VerifierUtilization() const {
  if (sim_duration_ms <= 0 || num_verifiers <= 0) {
    return 0;
  }
  return verifier_busy_ms / (sim_duration_ms * num_verifiers);
}

double JainFairnessIndex(const std::vector<double>& allocations) {
  double sum = 0;
  double sum_sq = 0;
  for (double x : allocations) {
    sum += x;
    sum_sq += x * x;
  }
  if (allocations.empty() || sum_sq == 0) {
    return 1.0;
  }
  return (sum * sum) / (static_cast<double>(allocations.size()) * sum_sq);
}

std::string FleetStats::ToJson(const FleetConfig& config) const {
  JsonWriter json;
  json.Object().String("schema", "flicker-bench-fleet-v1");
  json.InlineObject("fleet").Int("machines", config.num_machines);
  json.Int("verifiers", config.num_verifiers).Int("rounds", config.rounds);
  json.Int("seed", config.seed).Int("batched_machines_bp", config.batched_machines_bp);
  json.Fixed("mean_interarrival_ms", config.mean_interarrival_ms, 3).End();
  json.InlineObject("outcome").Int("completed", rounds_completed);
  json.Int("timed_out", rounds_timed_out).Int("failed", rounds_failed);
  json.Int("rejected", rounds_rejected).Int("tampered_rejected", tampered_rejected);
  json.Int("accepted_wrong", accepted_wrong).Int("verified", responses_verified).End();
  json.InlineObject("chaos").Int("partition_drops", partition_drops);
  json.Int("power_cuts", power_cuts).Int("machines_dead", machines_dead).End();
  json.InlineObject("throughput").Fixed("sim_duration_ms", sim_duration_ms, 3);
  json.Fixed("sessions_per_sec", SessionsPerSec(), 3).End();
  WriteLatencyJson(&json, round_latencies_ms);
  json.InlineObject("verifier").Fixed("busy_ms", verifier_busy_ms, 3);
  json.Fixed("utilization", VerifierUtilization(), 4).End();
  json.InlineObject("batch").Int("quotes", batch_quotes).InlineObject("sizes");
  for (const auto& [size, count] : batch_sizes) {
    json.Int(std::to_string(size), count);
  }
  json.End().End();
  // v2 sections: only present when the run exercised the verifier-farm
  // policy, verifier faults, or the checkpoint store, so legacy fleet JSON
  // stays byte-identical.
  const bool v2 = config.farm.hedge || !config.verifier_faults.empty() ||
                  config.checkpoints.enabled || !config.net_windows.empty() ||
                  !config.tpm_windows.empty();
  if (v2) {
    double mttr_mean = 0;
    double mttr_max = 0;
    for (double sample : mttr_ms) {
      mttr_mean += sample;
      mttr_max = std::max(mttr_max, sample);
    }
    if (!mttr_ms.empty()) {
      mttr_mean /= static_cast<double>(mttr_ms.size());
    }
    json.InlineObject("farm").Bool("hedged", config.farm.hedge);
    json.Int("hedges_fired", hedges_fired).Int("hedge_wins", hedge_wins);
    json.Int("overload_sheds", overload_sheds).Int("overload_resends", overload_resends);
    json.Int("breaker_trips", breaker_trips).Int("verifier_fault_frames", verifier_fault_frames);
    json.Int("mttr_samples", mttr_ms.size()).Fixed("mttr_mean_ms", mttr_mean, 3);
    json.Fixed("mttr_max_ms", mttr_max, 3).End();
    json.InlineObject("oracle").Int("torn_states", torn_states);
    json.Int("checkpoints_sealed", checkpoints_sealed);
    json.Int("checkpoint_recoveries", checkpoint_recoveries);
    json.Int("starved_machines", starved_machines).End();
  }
  json.InlineObject("engine").Int("events", events_processed);
  json.Int("cancelled", events_cancelled).Int("max_heap", max_heap);
  json.Digest("order_digest", order_digest).End();
  return json.End().Take();
}

// ---- Fleet ----

Fleet::Fleet(const FleetConfig& config) : config_(config), executor_(config.seed) {}

Fleet::~Fleet() = default;

Fleet::ReleaseFreedMemory::~ReleaseFreedMemory() {
#if defined(__GLIBC__)
  // Build's pool threads each allocate from their own malloc arena, and
  // memory freed in one arena is not reused by another thread's
  // allocations: over repeated 256-machine fleets the benchmark's peak RSS
  // rose 6.5-7.5% above one-at-a-time builds. Handing every arena's free
  // pages back once a fleet is gone holds it within 1.5%; trimming once
  // after the pool joins left +3.5-6.5%. The next build re-faults the
  // returned pages, a few ms.
  malloc_trim(0);
#endif
}

Bytes Fleet::DeriveNonce(const std::string& label, uint64_t a, uint64_t b) const {
  return Sha1::Digest(BytesOf(label + "-" + std::to_string(config_.seed) + "-" +
                              std::to_string(a) + "-" + std::to_string(b)));
}

Status Fleet::ValidateConfig() const {
  const int n = config_.num_machines;
  if (n < 1) {
    return InvalidArgumentError("fleet needs at least one machine");
  }
  if (config_.num_verifiers < 1) {
    return InvalidArgumentError("fleet needs at least one verifier");
  }
  if (config_.rounds < 0) {
    return InvalidArgumentError("fleet round count is negative");
  }
  for (const FleetPartition& window : config_.partitions) {
    if (window.first_machine < 0 || window.last_machine >= n ||
        window.first_machine > window.last_machine) {
      return InvalidArgumentError("partition window targets machines outside the fleet");
    }
    if (window.end_ms < window.start_ms) {
      return InvalidArgumentError("partition window ends before it starts");
    }
  }
  for (const FleetPowerCut& cut : config_.power_cuts) {
    if (cut.machine < 0 || cut.machine >= n) {
      return InvalidArgumentError("power cut targets machine outside the fleet");
    }
    if (cut.crash_at_hit > 0 && !config_.checkpoints.enabled) {
      return InvalidArgumentError("crash-point power cut requires the checkpoint store");
    }
  }
  for (const FleetVerifierFault& fault : config_.verifier_faults) {
    if (fault.verifier < 0 || fault.verifier >= config_.num_verifiers) {
      return InvalidArgumentError("verifier fault targets verifier outside the farm");
    }
    if (fault.end_ms <= fault.start_ms) {
      return InvalidArgumentError("verifier fault window ends before it starts");
    }
    if (fault.kind == FleetVerifierFault::Kind::kGraySlow && fault.slow_factor < 1.0) {
      return InvalidArgumentError("gray-slow factor below 1 would speed the verifier up");
    }
  }
  for (const FleetNetMixWindow& window : config_.net_windows) {
    if (window.first_machine < 0 || window.last_machine >= n ||
        window.first_machine > window.last_machine) {
      return InvalidArgumentError("net-mix window targets machines outside the fleet");
    }
    if (window.end_ms <= window.start_ms) {
      return InvalidArgumentError("net-mix window ends before it starts");
    }
  }
  for (const FleetTpmFaultWindow& window : config_.tpm_windows) {
    if (window.machine < 0 || window.machine >= n) {
      return InvalidArgumentError("tpm fault window targets machine outside the fleet");
    }
    if (window.end_ms <= window.start_ms) {
      return InvalidArgumentError("tpm fault window ends before it starts");
    }
  }
  return Status::Ok();
}

double Fleet::MsSinceEpoch(uint64_t at_ns) const {
  return (static_cast<double>(at_ns) - static_cast<double>(epoch_ns_)) / 1e6;
}

const FleetVerifierFault* Fleet::ActiveVerifierFault(int verifier, uint64_t at_ns) const {
  const double at_ms = MsSinceEpoch(at_ns);
  for (const FleetVerifierFault& fault : config_.verifier_faults) {
    if (fault.verifier == verifier && at_ms >= fault.start_ms && at_ms < fault.end_ms) {
      return &fault;
    }
  }
  return nullptr;
}

Status Fleet::BootstrapMachine(FleetMachine* machine) {
  SlbCoreOptions options;
  options.nonce = DeriveNonce("fleet-bootstrap", static_cast<uint64_t>(machine->id),
                              machine->reboots);
  Result<FlickerSessionResult> session =
      machine->platform->ExecuteSession(*binary_, Bytes(), options);
  if (!session.ok()) {
    return session.status();
  }
  if (!session.value().ok()) {
    return session.value().record.pal_status;
  }
  machine->session_nonce = options.nonce;
  machine->session_outputs = session.value().outputs();
  return Status::Ok();
}

Status Fleet::SetupCheckpointStore(FleetMachine* machine) {
  // Runs before the machine's first session: the release PCR read here is
  // the post-reset PCR 17 value, which is exactly what the register holds
  // again after a power cut's TPM_Startup - so recovery can unseal.
  machine->owner_auth =
      Sha1::Digest(BytesOf("fleet-owner-" + std::to_string(machine->id)));
  machine->blob_auth = Sha1::Digest(BytesOf("fleet-blob-" + std::to_string(machine->id)));
  FLICKER_RETURN_IF_ERROR(machine->platform->tpm()->TakeOwnership(machine->owner_auth));
  Result<Bytes> release = machine->platform->tpm()->PcrRead(kSkinitPcr);
  if (!release.ok()) {
    return release.status();
  }
  machine->release_pcr = release.value();
  CrashStoreOptions options;
  options.broken_commit_before_increment = config_.checkpoints.misordered_commit;
  Result<CrashConsistentSealedStore> store = CrashConsistentSealedStore::Create(
      machine->platform->tpm(), Sha1::Digest(BytesOf("fleet-ctr-" + std::to_string(machine->id))),
      machine->owner_auth, options);
  if (!store.ok()) {
    return store.status();
  }
  machine->store = std::make_unique<CrashConsistentSealedStore>(store.take());
  machine->checkpoint_gen = 0;
  return machine->store->Seal(BytesOf("ckpt-0"), machine->release_pcr, machine->blob_auth);
}

bool Fleet::Partitioned(int machine, uint64_t at_ns) const {
  // Partition windows are epoch-relative (nobody writes chaos plans in
  // absolute bootstrap-skewed nanoseconds).
  const double at_ms = (static_cast<double>(at_ns) - static_cast<double>(epoch_ns_)) / 1e6;
  for (const FleetPartition& window : config_.partitions) {
    if (machine >= window.first_machine && machine <= window.last_machine &&
        at_ms >= window.start_ms && at_ms < window.end_ms) {
      return true;
    }
  }
  return false;
}

SessionExpectation Fleet::SnapshotExpectation(const RoundState& round) const {
  SessionExpectation expectation;
  expectation.binary = binary_.get();
  expectation.inputs = Bytes();
  expectation.outputs = round.snapshot_outputs;
  expectation.nonce = round.snapshot_nonce;
  return expectation;
}

Status Fleet::BuildMachine(const FlickerPlatformConfig& platform_config,
                           FleetMachine* machine) {
  const uint64_t id = static_cast<uint64_t>(machine->id);
  machine->platform = std::make_unique<FlickerPlatform>(platform_config);
  machine->channel = std::make_unique<LossyChannel>(
      &machine->wire_clock, LatencyProfile(),
      /*jitter_seed=*/config_.seed ^ (0x9E3779B97F4A7C15ULL * (id + 1)));
  if (config_.fault_mix.drop_bp != 0 || config_.fault_mix.duplicate_bp != 0 ||
      config_.fault_mix.reorder_bp != 0 || config_.fault_mix.corrupt_bp != 0 ||
      config_.fault_mix.delay_bp != 0) {
    machine->channel->set_fault_schedule(
        NetFaultSchedule(config_.fault_seed ^ id, config_.fault_mix));
  }
  machine->cert =
      ca_.Certify(machine->platform->tpm()->aik_public(), "fleet-" + std::to_string(id));
  if (config_.checkpoints.enabled) {
    FLICKER_RETURN_IF_ERROR(SetupCheckpointStore(machine));
  }
  return BootstrapMachine(machine);
}

void Fleet::DrawArrivals() {
  // The open-loop client: seeded Poisson arrivals, uniform target machine.
  // Arrival instants are epoch-relative here; Build shifts them once the
  // epoch is known.
  Drbg arrivals(config_.seed ^ 0xA2217A1ULL);
  double t_ms = 0;
  for (size_t r = 0; r < rounds_.size(); ++r) {
    const double u = (static_cast<double>(arrivals.UniformUint64(1ULL << 30)) + 1.0) /
                     (static_cast<double>(1ULL << 30) + 1.0);
    t_ms += -config_.mean_interarrival_ms * std::log(u);
    RoundState& round = rounds_[r];
    round.machine = static_cast<int>(
        arrivals.UniformUint64(static_cast<uint64_t>(config_.num_machines)));
    round.full_session = arrivals.UniformUint64(10000) < config_.full_session_bp;
    round.nonce = DeriveNonce("fleet-round", r, 0);
    round.arrival_ns = static_cast<uint64_t>(t_ms * 1e6 + 0.5);
  }
}

Status Fleet::Build() {
  if (built_) {
    return Status::Ok();
  }
  FLICKER_RETURN_IF_ERROR(ValidateConfig());
  Result<PalBinary> built = BuildPal(std::make_shared<HelloWorldPal>());
  if (!built.ok()) {
    return built.status();
  }
  binary_ = std::make_unique<PalBinary>(built.take());

  FlickerPlatformConfig platform_config = CompactPlatformConfig();
  // One shared manufacture seed: RSA key material is memoized per
  // (seed, bits), so machine #2..#N skip keygen entirely. Identity still
  // differs per machine via its own Privacy CA certificate label.
  platform_config.machine.tpm.key_bits = config_.tpm_key_bits;
  platform_config.tqd_max_batch_size = kMaxBatchSize;

  // Parallel phase. A machine's TPM, SKINIT and PCR 17 are its own, so once
  // its seeds are fixed its build depends on nothing else; the arrival
  // stream needs only the config. Task 0 draws the arrivals and is claimed
  // first, so it overlaps the machine builds; task i + 1 builds machine i.
  // Each traced task records into its own fork of the caller's tracer.
  const size_t num_machines = static_cast<size_t>(config_.num_machines);
  const size_t num_tasks = num_machines + 1;
  machines_.resize(num_machines);
  rounds_.assign(static_cast<size_t>(config_.rounds), RoundState());
  std::vector<Status> machine_status(num_machines, Status::Ok());
  std::vector<std::exception_ptr> thrown(num_tasks);
  obs::Tracer* const tracer = obs::GlobalTracer();
  std::vector<obs::Tracer> task_tracers;
  if (tracer != nullptr) {
    task_tracers.assign(num_tasks, tracer->Fork());
  }
  RunOnPool(num_tasks, [&](size_t task) {
    obs::ScopedInstall install(tracer != nullptr ? &task_tracers[task] : nullptr);
    try {
      if (task == 0) {
        DrawArrivals();
        return;
      }
      std::unique_ptr<FleetMachine>& machine = machines_[task - 1];
      machine = std::make_unique<FleetMachine>();
      machine->id = static_cast<int>(task - 1);
      machine_status[task - 1] = BuildMachine(platform_config, machine.get());
    } catch (...) {
      thrown[task] = std::current_exception();
    }
  });

  // Serial phase, in machine-id order, as if the machines had been built one
  // at a time: a failure surfaces the lowest failing id before any machine
  // joins the executor, the traces append as one stream, and actors,
  // machine shape and the heap's event sequence see a fixed order.
  for (size_t i = 0; i < num_machines; ++i) {
    if (thrown[i + 1]) {
      std::rethrow_exception(thrown[i + 1]);
    }
    if (!machine_status[i].ok()) {
      machines_.clear();
      rounds_.clear();
      return machine_status[i];
    }
  }
  if (thrown[0]) {
    std::rethrow_exception(thrown[0]);
  }
  if (tracer != nullptr) {
    for (size_t task = 1; task < num_tasks; ++task) {
      tracer->Append(std::move(task_tracers[task]));
    }
    tracer->Append(std::move(task_tracers[0]));
  }

  Drbg shape(config_.seed ^ 0xF1EE7ULL);
  for (const std::unique_ptr<FleetMachine>& machine : machines_) {
    const int id = machine->id;
    machine->actor =
        executor_.RegisterActor("machine-" + std::to_string(id), machine->platform->clock());
    machine->batched = shape.UniformUint64(10000) < config_.batched_machines_bp;

    machine->channel->set_delivery_hook(
        [this, id](NetEndpoint dest, uint64_t seq, uint64_t arrival_ns) {
          OnWireEnqueued(id, dest, seq, arrival_ns);
        });

    // The quote daemon runs its flush windows and breaker probes as real
    // executor timers instead of waiting to be polled.
    const ActorId actor = machine->actor;
    TpmQuoteDaemon::TimerHost host;
    host.schedule = [this, actor](uint64_t delay_ns, std::function<void()> fn) {
      return executor_.ScheduleAfterLocal(actor, delay_ns, std::move(fn)).seq;
    };
    host.cancel = [this](uint64_t event_seq) { executor_.Cancel(EventId{event_seq}); };
    machine->platform->tqd()->BindTimers(
        std::move(host),
        [this, id](std::vector<BatchQuoteResponse> slices) {
          SendBatchSlices(id, std::move(slices));
        },
        /*drain_sink=*/nullptr);

    if (config_.checkpoints.enabled) {
      ++stats_.checkpoints_sealed;  // SetupCheckpointStore sealed generation 0.
    }
  }

  if (config_.farm.hedge) {
    health_ = std::make_unique<VerifierHealthTracker>(config_.num_verifiers,
                                                      config_.farm.max_outstanding);
  }

  verifiers_.resize(static_cast<size_t>(config_.num_verifiers));
  for (int v = 0; v < config_.num_verifiers; ++v) {
    verifiers_[static_cast<size_t>(v)].actor = executor_.RegisterActor(
        "verifier-" + std::to_string(v), &verifiers_[static_cast<size_t>(v)].clock);
  }

  // The client starts injecting once the whole fleet is up: machine clocks
  // already sit at their bootstrap completion, so rounds injected from the
  // executor's zero would time out before any machine could even start.
  epoch_ns_ = 0;
  for (const auto& machine : machines_) {
    epoch_ns_ = std::max(epoch_ns_, machine->platform->clock()->NowNanos());
  }

  // The starvation oracle's horizon: the instant every configured fault
  // window has ended. Arrivals after it should complete on a healthy fleet.
  double quiesce_ms = 0;
  for (const FleetPartition& w : config_.partitions) quiesce_ms = std::max(quiesce_ms, w.end_ms);
  for (const FleetPowerCut& c : config_.power_cuts) quiesce_ms = std::max(quiesce_ms, c.at_ms);
  for (const FleetVerifierFault& f : config_.verifier_faults)
    quiesce_ms = std::max(quiesce_ms, f.end_ms);
  for (const FleetNetMixWindow& w : config_.net_windows) quiesce_ms = std::max(quiesce_ms, w.end_ms);
  for (const FleetTpmFaultWindow& w : config_.tpm_windows)
    quiesce_ms = std::max(quiesce_ms, w.end_ms);
  quiesce_ns_ = epoch_ns_ + static_cast<uint64_t>(quiesce_ms * 1e6 + 0.5);
  machine_arrivals_after_quiesce_.assign(num_machines, 0);
  machine_completed_after_quiesce_.assign(num_machines, 0);
  stats_.machine_completed.assign(num_machines, 0);

  for (size_t r = 0; r < rounds_.size(); ++r) {
    RoundState& round = rounds_[r];
    round.arrival_ns += epoch_ns_;
    nonce_to_round_[round.nonce] = r;
    if (round.arrival_ns > quiesce_ns_) {
      ++machine_arrivals_after_quiesce_[static_cast<size_t>(round.machine)];
    }
    executor_.ScheduleAt(machines_[static_cast<size_t>(round.machine)]->actor, round.arrival_ns,
                         [this, r] { OnArrival(r); });
  }
  stats_.rounds_injected = static_cast<uint64_t>(config_.rounds);

  for (const FleetPowerCut& cut : config_.power_cuts) {
    executor_.ScheduleAt(machines_[static_cast<size_t>(cut.machine)]->actor,
                         epoch_ns_ + static_cast<uint64_t>(cut.at_ms * 1e6 + 0.5),
                         [this, cut] { OnPowerCut(cut); });
  }

  // Timed wire-mix windows: swap the fault schedule in at the window start
  // and restore the base mix at the end. The schedule is re-armed at
  // runtime, so a window can hit wires mid-conversation.
  for (size_t w = 0; w < config_.net_windows.size(); ++w) {
    const FleetNetMixWindow& window = config_.net_windows[w];
    for (int m = window.first_machine; m <= window.last_machine; ++m) {
      FleetMachine* machine = machines_[static_cast<size_t>(m)].get();
      const uint64_t window_seed = config_.fault_seed ^ (0x57D0ULL + w) ^
                                   (static_cast<uint64_t>(m) << 32);
      NetFaultMix mix = window.mix;
      NetFaultMix base = config_.fault_mix;
      executor_.ScheduleAt(machine->actor,
                           epoch_ns_ + static_cast<uint64_t>(window.start_ms * 1e6 + 0.5),
                           [machine, window_seed, mix] {
                             machine->channel->set_fault_schedule(
                                 NetFaultSchedule(window_seed, mix));
                           });
      const uint64_t base_seed = config_.fault_seed ^ static_cast<uint64_t>(m);
      executor_.ScheduleAt(machine->actor,
                           epoch_ns_ + static_cast<uint64_t>(window.end_ms * 1e6 + 0.5),
                           [machine, base_seed, base] {
                             machine->channel->set_fault_schedule(
                                 NetFaultSchedule(base_seed, base));
                           });
    }
  }

  // Timed TPM-transport fault windows (the LPC bus, not the network).
  for (const FleetTpmFaultWindow& window : config_.tpm_windows) {
    FleetMachine* machine = machines_[static_cast<size_t>(window.machine)].get();
    const FaultPlan plan = window.plan;
    executor_.ScheduleAt(machine->actor,
                         epoch_ns_ + static_cast<uint64_t>(window.start_ms * 1e6 + 0.5),
                         [machine, plan] {
                           machine->platform->machine()->tpm_transport()->set_fault_plan(plan);
                         });
    executor_.ScheduleAt(machine->actor,
                         epoch_ns_ + static_cast<uint64_t>(window.end_ms * 1e6 + 0.5),
                         [machine] {
                           machine->platform->machine()->tpm_transport()->set_fault_plan(
                               FaultPlan());
                         });
  }

  built_ = true;
  return Status::Ok();
}

Status Fleet::Run() {
  FLICKER_RETURN_IF_ERROR(Build());
  executor_.Run();
  // Duration measured from the injection epoch: bootstrap time is a fixed
  // setup cost, not part of the steady-state throughput being reported.
  stats_.sim_duration_ms =
      static_cast<double>(executor_.NowNs() - std::min(executor_.NowNs(), epoch_ns_)) / 1e6;
  stats_.num_verifiers = config_.num_verifiers;
  stats_.verifier_busy_ms = 0;
  for (const FarmVerifier& verifier : verifiers_) {
    stats_.verifier_busy_ms += verifier.busy_ms;
  }
  stats_.events_processed = executor_.events_processed();
  stats_.events_cancelled = executor_.events_cancelled();
  stats_.max_heap = executor_.max_heap_size();
  stats_.order_digest = executor_.OrderDigest();
  if (health_) {
    stats_.breaker_trips = health_->breaker_trips();
    stats_.mttr_ms = health_->mttr_samples_ms();
  }
  // Starvation oracle: a live machine with post-quiesce arrivals but no
  // post-quiesce completion never recovered from the faults it absorbed.
  stats_.starved_machines = 0;
  for (size_t m = 0; m < machines_.size(); ++m) {
    if (!machines_[m]->dead && machine_arrivals_after_quiesce_[m] >= 2 &&
        machine_completed_after_quiesce_[m] == 0) {
      ++stats_.starved_machines;
    }
  }
  return Status::Ok();
}

void Fleet::FailRound(size_t round_index) {
  RoundState& round = rounds_[round_index];
  if (round.resolved) {
    return;
  }
  round.resolved = true;
  if (round.timeout.valid()) {
    executor_.Cancel(round.timeout);
  }
  ++stats_.rounds_failed;
  obs::Count(obs::Ctr::kFleetRoundsFailed);
}

void Fleet::OnArrival(size_t round_index) {
  RoundState& round = rounds_[round_index];
  FleetMachine& machine = *machines_[static_cast<size_t>(round.machine)];
  obs::ScopedProcess process_scope(executor_.actor_pid(machine.actor));
  if (machine.dead) {
    FailRound(round_index);
    return;
  }
  round.timeout = executor_.ScheduleAt(
      machine.actor, round.arrival_ns + static_cast<uint64_t>(config_.round_timeout_ms * 1e6 + 0.5),
      [this, round_index] { OnTimeout(round_index); });

  if (round.full_session) {
    SlbCoreOptions options;
    options.nonce = DeriveNonce("fleet-session", static_cast<uint64_t>(round_index),
                                machine.reboots);
    Result<FlickerSessionResult> session =
        machine.platform->ExecuteSession(*binary_, Bytes(), options);
    if (!session.ok() || !session.value().ok()) {
      FailRound(round_index);
      return;
    }
    machine.session_nonce = options.nonce;
    machine.session_outputs = session.value().outputs();
  }

  if (machine.batched) {
    Status submitted =
        machine.platform->tqd()->SubmitBatched(round.nonce, PcrSelection({kSkinitPcr}));
    if (!submitted.ok()) {
      FailRound(round_index);
    }
    // The window's flush timer (or an inline full-window flush inside
    // SubmitBatched) carries the round from here.
    return;
  }

  Result<AttestationResponse> response =
      machine.platform->tqd()->HandleChallenge(round.nonce, PcrSelection({kSkinitPcr}));
  if (!response.ok()) {
    FailRound(round_index);
    return;
  }
  round.is_batch = false;
  round.snapshot_nonce = machine.session_nonce;
  round.snapshot_outputs = machine.session_outputs;
  SendWire(&machine, round_index, /*to_farm=*/true,
           SerializeAttestationResponse(response.value()),
           machine.platform->clock()->NowNanos());
}

void Fleet::SendBatchSlices(int machine_id, std::vector<BatchQuoteResponse> slices) {
  FleetMachine& machine = *machines_[static_cast<size_t>(machine_id)];
  ++stats_.batch_quotes;
  ++stats_.batch_sizes[slices.size()];
  for (BatchQuoteResponse& slice : slices) {
    auto it = nonce_to_round_.find(slice.nonce);
    if (it == nonce_to_round_.end()) {
      continue;
    }
    RoundState& round = rounds_[it->second];
    if (round.resolved) {
      continue;  // Timed out while the window coalesced.
    }
    round.is_batch = true;
    round.snapshot_nonce = machine.session_nonce;
    round.snapshot_outputs = machine.session_outputs;
    SendWire(&machine, it->second, /*to_farm=*/true, SerializeBatchQuoteResponse(slice),
             machine.platform->clock()->NowNanos());
  }
}

uint64_t Fleet::SendWire(FleetMachine* machine, size_t round_index, bool to_farm, Bytes wire,
                         uint64_t sender_now_ns, int exclude, bool hedge, bool overload_nack) {
  const uint64_t seq = machine->channel->messages_sent() + 1;
  PendingWire pending;
  pending.round = round_index;
  pending.to_farm = to_farm;
  pending.sent_ns = sender_now_ns;
  pending.exclude = exclude;
  pending.hedge = hedge;
  pending.overload_nack = overload_nack;
  machine->pending[seq] = std::move(pending);
  if (to_farm) {
    rounds_[round_index].response_wire = wire;
    if (health_) {
      // Arm the hedge: if no ack (or nack) has concluded this frame once the
      // p95-derived delay elapses, a duplicate goes to a different verifier.
      const double hedge_delay_ms = health_->HedgeDelayMs();
      const int machine_id = machine->id;
      executor_.ScheduleAt(machine->actor,
                           sender_now_ns + static_cast<uint64_t>(hedge_delay_ms * 1e6 + 0.5),
                           [this, machine_id, seq, round_index, hedge_delay_ms] {
                             OnHedgeTimer(machine_id, seq, round_index, hedge_delay_ms);
                           });
    }
  }
  // Transmission starts at the sender's own instant: a verifier answering
  // from deep inside its service queue stamps the ack with its (future)
  // finish time without dragging the machine's wire timeline along - the
  // machine's next frame (a hedge copy, a fresh round) still leaves at the
  // machine's now, not the slow verifier's.
  machine->channel->SendAt(to_farm ? NetEndpoint::kClient : NetEndpoint::kServer, sender_now_ns,
                           std::move(wire));
  return seq;
}

void Fleet::OnWireEnqueued(int machine_id, NetEndpoint dest, uint64_t seq, uint64_t arrival_ns) {
  FleetMachine& machine = *machines_[static_cast<size_t>(machine_id)];
  auto pending_it = machine.pending.find(seq);
  if (pending_it == machine.pending.end()) {
    return;
  }
  if (Partitioned(machine_id, pending_it->second.sent_ns)) {
    ++stats_.partition_drops;
    return;  // The rack is cut: the frame rots in flight, the round times out.
  }
  if (dest == NetEndpoint::kServer) {
    PendingWire& pending = pending_it->second;
    int verifier_index;
    if (health_) {
      // Farm frontend: health-aware pick. Scan breaker-admissible verifiers
      // for one under the outstanding cap; if every candidate is saturated,
      // shed with an overload nack the machine answers with a paced resend.
      const double now_ms = MsSinceEpoch(arrival_ns);
      verifier_index = -1;
      for (int scanned = 0; scanned < config_.num_verifiers; ++scanned) {
        int candidate = health_->PickVerifier(now_ms, pending.exclude);
        if (!health_->ShouldShed(candidate)) {
          verifier_index = candidate;
          break;
        }
      }
      if (verifier_index < 0) {
        pending.concluded = true;  // Never dispatched; no verifier to miss.
        ++stats_.overload_sheds;
        obs::Count(obs::Ctr::kFleetOverloadSheds);
        SendWire(&machine, pending.round, /*to_farm=*/false, rounds_[pending.round].nonce,
                 arrival_ns, /*exclude=*/-1, /*hedge=*/false, /*overload_nack=*/true);
        return;
      }
      pending.verifier = verifier_index;
      health_->OnDispatch(verifier_index);
    } else {
      verifier_index =
          static_cast<int>(next_verifier_++ % static_cast<uint64_t>(config_.num_verifiers));
      pending.verifier = verifier_index;
    }
    executor_.ScheduleAt(verifiers_[static_cast<size_t>(verifier_index)].actor, arrival_ns,
                         [this, machine_id, seq, arrival_ns, verifier_index] {
                           OnFarmDelivery(machine_id, seq, arrival_ns, verifier_index);
                         });
  } else {
    executor_.ScheduleAt(machine.actor, arrival_ns, [this, machine_id, seq, arrival_ns] {
      OnResponseDelivery(machine_id, seq, arrival_ns);
    });
  }
}

void Fleet::OnFarmDelivery(int machine_id, uint64_t seq, uint64_t arrival_ns, int verifier_index) {
  FleetMachine& machine = *machines_[static_cast<size_t>(machine_id)];
  FarmVerifier& verifier = verifiers_[static_cast<size_t>(verifier_index)];
  obs::ScopedProcess process_scope(executor_.actor_pid(verifier.actor));
  Bytes wire;
  if (!machine.channel->ReceiveScheduled(NetEndpoint::kServer, seq, arrival_ns, &wire)) {
    return;
  }
  auto pending_it = machine.pending.find(seq);
  if (pending_it == machine.pending.end()) {
    return;
  }
  const PendingWire& pending = pending_it->second;
  const RoundState& round = rounds_[pending.round];

  // Verifier-tier faults hit before any verification work happens.
  const FleetVerifierFault* fault = ActiveVerifierFault(verifier_index, arrival_ns);
  double verify_cost_ms = config_.verify_cost_ms;
  if (fault != nullptr) {
    ++stats_.verifier_fault_frames;
    obs::Count(obs::Ctr::kFleetVerifierFaults);
    switch (fault->kind) {
      case FleetVerifierFault::Kind::kCrash:
        // The worker died holding the frame; its restart comes up empty.
        // Nobody answers - the hedge or the round timeout picks it up.
        return;
      case FleetVerifierFault::Kind::kHang:
        // The worker seizes until the window ends; frames queued behind it
        // on this actor inherit the stall, and this frame is never answered.
        verifier.clock.AdvanceToNanos(
            std::max(verifier.clock.NowNanos(),
                     epoch_ns_ + static_cast<uint64_t>(fault->end_ms * 1e6 + 0.5)));
        return;
      case FleetVerifierFault::Kind::kGraySlow:
        verify_cost_ms *= fault->slow_factor;
        break;
    }
  }

  verifier.clock.AdvanceMillis(verify_cost_ms);
  verifier.busy_ms += verify_cost_ms;
  ++verifier.verified;
  ++stats_.responses_verified;
  obs::ObserveMs(obs::Hist::kFleetVerifierBusyMs, verify_cost_ms);

  // Every farm-bound frame of a round carries the round's response_wire
  // (hedges and overload resends re-send it), so it is the ground truth.
  const bool tampered = wire != round.response_wire;
  const SessionExpectation expectation = SnapshotExpectation(round);
  // The farm's shared cache skips the CA signature on certificates it has
  // already verified; the simulated verify_cost_ms above is charged either way.
  Result<const CertifiedAik*> aik = aik_cache_.Certify(machine.cert, ca_.public_key());
  Status verdict = aik.status();
  if (aik.ok()) {
    if (round.is_batch) {
      Result<BatchQuoteResponse> parsed = DeserializeBatchQuoteResponse(wire);
      verdict = parsed.ok()
                    ? VerifyBatchQuote(expectation, parsed.value(), *aik.value(), round.nonce)
                    : parsed.status();
    } else {
      Result<AttestationResponse> parsed = DeserializeAttestationResponse(wire);
      verdict = parsed.ok()
                    ? VerifyAttestation(expectation, parsed.value(), *aik.value(), round.nonce)
                    : parsed.status();
    }
  }

  if (verdict.ok()) {
    if (tampered) {
      // A tampered frame passed the full verification chain: the invariant
      // the whole stack exists to uphold just broke. Record it loudly.
      ++stats_.accepted_wrong;
      return;
    }
    // Ack back across the same wire, timed from the verifier's instant. The
    // ack records which farm wire it answers so the machine can attribute
    // the round trip to this verifier.
    const uint64_t ack_seq = SendWire(&machine, pending.round, /*to_farm=*/false, round.nonce,
                                      verifier.clock.NowNanos());
    PendingWire& ack = machine.pending[ack_seq];
    ack.verifier = verifier_index;
    ack.request_seq = seq;
  } else if (tampered) {
    ++stats_.tampered_rejected;
  } else {
    ++stats_.rounds_rejected;
  }
}

void Fleet::OnResponseDelivery(int machine_id, uint64_t seq, uint64_t arrival_ns) {
  FleetMachine& machine = *machines_[static_cast<size_t>(machine_id)];
  obs::ScopedProcess process_scope(executor_.actor_pid(machine.actor));
  Bytes wire;
  if (!machine.channel->ReceiveScheduled(NetEndpoint::kClient, seq, arrival_ns, &wire)) {
    return;
  }
  auto pending_it = machine.pending.find(seq);
  if (pending_it == machine.pending.end()) {
    return;
  }
  PendingWire& delivered = pending_it->second;
  RoundState& round = rounds_[delivered.round];

  if (delivered.overload_nack) {
    // The farm shed our response. Resend after a full-jitter backoff so a
    // rack of shed machines does not return in lockstep.
    if (round.resolved || machine.dead) {
      return;
    }
    const int attempt = round.overload_resends++;
    BackoffSchedule schedule(kOverloadBackoff,
                             config_.seed ^ (0x4F4CULL + static_cast<uint64_t>(delivered.round)));
    double delay_ms = 0;
    for (int i = 0; i <= attempt; ++i) {
      delay_ms = schedule.NextDelayMs();
    }
    const size_t round_index = delivered.round;
    executor_.ScheduleAt(machine.actor,
                         arrival_ns + static_cast<uint64_t>(delay_ms * 1e6 + 0.5),
                         [this, round_index] { OnOverloadResend(round_index); });
    return;
  }

  // Attribute the ack to the verifier that produced it: close its breaker,
  // pool the round-trip sample, release its outstanding slot. A late
  // duplicate (hedge already fired against this dispatch) changes nothing.
  if (health_ && delivered.verifier >= 0 && delivered.request_seq != 0) {
    auto request_it = machine.pending.find(delivered.request_seq);
    if (request_it != machine.pending.end() && !request_it->second.concluded) {
      request_it->second.concluded = true;
      const double rtt_ms =
          static_cast<double>(arrival_ns - request_it->second.sent_ns) / 1e6;
      health_->OnSuccess(delivered.verifier, rtt_ms, MsSinceEpoch(arrival_ns));
    }
  }

  if (round.resolved) {
    return;  // A duplicated ack, or the round already timed out.
  }
  round.resolved = true;
  if (round.timeout.valid()) {
    executor_.Cancel(round.timeout);
  }
  if (delivered.request_seq != 0) {
    auto request_it = machine.pending.find(delivered.request_seq);
    if (request_it != machine.pending.end() && request_it->second.hedge) {
      ++stats_.hedge_wins;
      obs::Count(obs::Ctr::kFleetHedgeWins);
    }
  }
  const double latency_ms = static_cast<double>(arrival_ns - round.arrival_ns) / 1e6;
  ++stats_.rounds_completed;
  ++stats_.machine_completed[static_cast<size_t>(round.machine)];
  if (round.arrival_ns > quiesce_ns_) {
    ++machine_completed_after_quiesce_[static_cast<size_t>(round.machine)];
  }
  stats_.round_latencies_ms.push_back(latency_ms);
  obs::Count(obs::Ctr::kFleetSessions);
  obs::ObserveMs(obs::Hist::kFleetRoundLatencyMs, latency_ms);
}

void Fleet::OnTimeout(size_t round_index) {
  RoundState& round = rounds_[round_index];
  if (round.resolved) {
    return;
  }
  round.resolved = true;
  ++stats_.rounds_timed_out;
  obs::Count(obs::Ctr::kFleetRoundsFailed);
  if (health_) {
    // Every farm dispatch of this round that nobody answered is a miss: the
    // breaker hears about verifiers that swallow frames even when no hedge
    // fired in time.
    FleetMachine& machine = *machines_[static_cast<size_t>(round.machine)];
    const double now_ms = MsSinceEpoch(executor_.NowNs());
    for (auto& [seq, pending] : machine.pending) {
      if (pending.round == round_index && pending.to_farm && !pending.concluded) {
        pending.concluded = true;
        if (pending.verifier >= 0) {
          health_->OnMiss(pending.verifier, now_ms);
        }
      }
    }
  }
}

void Fleet::OnHedgeTimer(int machine_id, uint64_t seq, size_t round_index,
                         double hedge_delay_ms) {
  RoundState& round = rounds_[round_index];
  if (round.resolved || round.hedge_count >= kMaxHedgesPerRound) {
    return;
  }
  FleetMachine& machine = *machines_[static_cast<size_t>(machine_id)];
  if (machine.dead) {
    return;
  }
  auto pending_it = machine.pending.find(seq);
  if (pending_it == machine.pending.end() || pending_it->second.concluded) {
    return;
  }
  PendingWire& pending = pending_it->second;
  // The primary has outlived the p95 of recent round trips: call it missing
  // and fire the duplicate at a different verifier. First well-formed ack
  // wins; the loser's ack is discarded by the round.resolved check.
  pending.concluded = true;
  ++round.hedge_count;
  if (pending.verifier >= 0) {
    health_->OnMiss(pending.verifier, MsSinceEpoch(executor_.NowNs()));
  }
  ++stats_.hedges_fired;
  obs::Count(obs::Ctr::kFleetHedgesFired);
  obs::ObserveMs(obs::Hist::kFleetHedgeDelayMs, hedge_delay_ms);
  SendWire(&machine, round_index, /*to_farm=*/true, round.response_wire,
           machine.platform->clock()->NowNanos(), /*exclude=*/pending.verifier,
           /*hedge=*/true);
}

void Fleet::OnOverloadResend(size_t round_index) {
  RoundState& round = rounds_[round_index];
  if (round.resolved) {
    return;
  }
  FleetMachine& machine = *machines_[static_cast<size_t>(round.machine)];
  if (machine.dead) {
    return;
  }
  ++stats_.overload_resends;
  obs::Count(obs::Ctr::kFleetOverloadResends);
  SendWire(&machine, round_index, /*to_farm=*/true, round.response_wire,
           machine.platform->clock()->NowNanos());
}

void Fleet::OnPowerCut(const FleetPowerCut& cut) {
  FleetMachine& machine = *machines_[static_cast<size_t>(cut.machine)];
  obs::ScopedProcess process_scope(executor_.actor_pid(machine.actor));
  ++stats_.power_cuts;

  // A crash-point cut lands mid-checkpoint: the machine was sealing its next
  // generation when the cord was pulled, leaving the two-phase protocol torn
  // at the Nth crash point - exactly the PR 3 matrix, driven by the chaos
  // plan instead of a hand-enumerated sweep.
  const uint64_t next_gen = machine.checkpoint_gen + 1;
  bool seal_completed = false;
  if (cut.crash_at_hit > 0 && machine.store != nullptr) {
    FaultScheduler* scheduler = machine.platform->machine()->fault_scheduler();
    scheduler->ClearHits();
    CrashPlan plan;
    plan.crash_at_hit = cut.crash_at_hit;
    scheduler->Arm(plan);
    try {
      FaultInjectionScope scope(scheduler);
      Status sealed = machine.store->Seal(BytesOf("ckpt-" + std::to_string(next_gen)),
                                          machine.release_pcr, machine.blob_auth);
      seal_completed = sealed.ok();
    } catch (const PowerLossException&) {
      // The cut landed inside the seal; the staged write is torn mid-flight.
    }
    scheduler->Disarm();
    if (seal_completed) {
      ++stats_.checkpoints_sealed;
    }
  }

  machine.platform->machine()->PowerCut();
  // The daemon's RAM - open batch windows, queued challenges, timers - is
  // gone; the rounds parked there will time out and that is the contract.
  machine.platform->tqd()->OnPowerLoss();
  ++machine.reboots;
  Result<TpmStartupReport> startup = machine.platform->tpm()->Startup();
  if (!startup.ok()) {
    machine.dead = true;
    ++stats_.machines_dead;
    return;
  }

  // Torn-state oracle: after any reset the checkpoint store must classify
  // what it finds and serve exactly the old or the new generation - a
  // fail-closed store or wrong bytes is the invariant violation the chaos
  // fuzzer exists to catch.
  if (machine.store != nullptr) {
    ++stats_.checkpoint_recoveries;
    bool torn = false;
    Result<RecoveryClass> recovered = machine.store->Recover();
    if (!recovered.ok() || recovered.value() == RecoveryClass::kFailClosed) {
      torn = true;
    } else {
      Result<Bytes> latest = machine.store->UnsealLatest(machine.blob_auth);
      if (!latest.ok()) {
        torn = true;
      } else if (latest.value() == BytesOf("ckpt-" + std::to_string(next_gen))) {
        machine.checkpoint_gen = next_gen;
      } else if (latest.value() != BytesOf("ckpt-" + std::to_string(machine.checkpoint_gen))) {
        torn = true;  // Neither generation: the store served bytes nobody wrote.
      }
    }
    if (torn) {
      ++stats_.torn_states;
    }
  }

  // Reboot: a fresh bootstrap session re-establishes the PCR 17 expectation
  // under which this machine's future quotes verify.
  Status rebooted = BootstrapMachine(&machine);
  if (!rebooted.ok()) {
    machine.dead = true;
    ++stats_.machines_dead;
  }
}

}  // namespace sim
}  // namespace flicker
