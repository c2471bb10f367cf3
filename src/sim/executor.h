// SimExecutor: one deterministic loop running thousands of actors.
//
// The executor owns the event heap and the fleet's notion of "now". Every
// schedulable party - a Machine/FlickerPlatform, a verifier-farm worker, a
// channel wire - registers as an actor with (optionally) its own SimClock.
// Dispatching an event at heap time T moves the executor's now to T and
// fast-forwards the target actor's clock to max(T, its local now); the
// handler then runs the actor's *activity* synchronously, charging hardware
// latencies to the actor-local clock through the approved timing call sites
// (tools/time_discipline.allow). The activity's end time is simply the
// actor's clock afterwards, and any follow-on work (a network delivery, a
// batch-window flush, a timeout) is posted back onto the heap as a future
// event instead of spinning a shared counter.
//
// Actor clocks therefore model per-machine hardware running in parallel:
// machine A burning 972 ms on a TPM quote does not delay machine B, because
// only A's clock moved. A busy actor naturally serializes its own work -
// an event dispatched at T to an actor whose clock already reads T' > T
// starts at T' (single-server FIFO queueing, no explicit queue needed).
//
// Determinism: the heap key is (ns, seeded tiebreak, seq) - see
// event_queue.h - and OrderDigest() folds the exact dispatch order into one
// FNV-1a value the determinism suite compares across runs.

#ifndef FLICKER_SRC_SIM_EXECUTOR_H_
#define FLICKER_SRC_SIM_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/hw/clock.h"
#include "src/sim/event_queue.h"

namespace flicker {
namespace sim {

using ActorId = int;
inline constexpr ActorId kNoActor = -1;

class SimExecutor {
 public:
  explicit SimExecutor(uint64_t seed) : queue_(seed), seed_(seed) {}

  // Registers an actor. `clock` may be null (pure timer targets); when set,
  // the executor fast-forwards it to each dispatched event's time and it
  // must outlive the executor's use. The returned id maps to the tracer's
  // fleet pid as id + 2 (pid 1 stays the standalone default).
  ActorId RegisterActor(std::string name, SimClock* clock);

  size_t actor_count() const { return actors_.size(); }
  const std::string& actor_name(ActorId id) const { return actors_[static_cast<size_t>(id)].name; }
  SimClock* actor_clock(ActorId id) const { return actors_[static_cast<size_t>(id)].clock; }
  // The Chrome trace pid for one actor's spans: one process track per
  // machine in Perfetto.
  uint64_t actor_pid(ActorId id) const { return static_cast<uint64_t>(id) + 2; }

  // ---- Scheduling ----
  uint64_t NowNs() const { return now_ns_; }
  // Schedules at an absolute sim time, clamped to now (events never fire in
  // the past).
  EventId ScheduleAt(ActorId actor, uint64_t at_ns, std::function<void()> fn);
  // Schedules relative to an actor's local clock: the verb for timers that
  // belong to an activity in progress (e.g. a batch window deadline).
  EventId ScheduleAfterLocal(ActorId actor, uint64_t delta_ns, std::function<void()> fn);
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  // ---- The loop ----
  // Dispatches the next event; false when the heap is empty.
  bool Step();
  // Runs until the heap drains.
  void Run();

  // ---- Introspection / determinism ----
  uint64_t events_processed() const { return events_processed_; }
  size_t max_heap_size() const { return queue_.max_size(); }
  size_t heap_size() const { return queue_.size(); }
  uint64_t events_cancelled() const { return queue_.cancelled(); }
  uint64_t seed() const { return seed_; }
  // FNV-1a over every dispatched (at_ns, actor, seq): two runs executed the
  // same event order iff their digests match.
  uint64_t OrderDigest() const { return order_digest_; }

 private:
  struct Actor {
    std::string name;
    SimClock* clock;
  };

  void Dispatch(ScheduledEvent event);

  EventQueue queue_;
  uint64_t seed_;
  uint64_t now_ns_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t order_digest_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis.
  std::vector<Actor> actors_;
};

}  // namespace sim
}  // namespace flicker

#endif  // FLICKER_SRC_SIM_EXECUTOR_H_
