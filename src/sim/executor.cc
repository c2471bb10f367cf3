#include "src/sim/executor.h"

#include "src/obs/metrics.h"

namespace flicker {
namespace sim {

namespace {

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

ActorId SimExecutor::RegisterActor(std::string name, SimClock* clock) {
  actors_.push_back(Actor{std::move(name), clock});
  return static_cast<ActorId>(actors_.size()) - 1;
}

EventId SimExecutor::ScheduleAt(ActorId actor, uint64_t at_ns, std::function<void()> fn) {
  if (at_ns < now_ns_) {
    at_ns = now_ns_;
  }
  return queue_.Schedule(at_ns, actor, std::move(fn));
}

EventId SimExecutor::ScheduleAfterLocal(ActorId actor, uint64_t delta_ns,
                                        std::function<void()> fn) {
  SimClock* clock = actors_[static_cast<size_t>(actor)].clock;
  uint64_t base = clock != nullptr ? clock->NowNanos() : now_ns_;
  if (base < now_ns_) {
    base = now_ns_;
  }
  return queue_.Schedule(base + delta_ns, actor, std::move(fn));
}

void SimExecutor::Dispatch(ScheduledEvent event) {
  now_ns_ = event.at_ns;
  order_digest_ = Fnv1a(order_digest_, event.at_ns);
  order_digest_ = Fnv1a(order_digest_, static_cast<uint64_t>(event.actor) + 1);
  order_digest_ = Fnv1a(order_digest_, event.seq);
  ++events_processed_;
  obs::ObserveMs(obs::Hist::kSimEventHeapSize, static_cast<double>(queue_.size()));
  if (event.actor != kNoActor) {
    SimClock* clock = actors_[static_cast<size_t>(event.actor)].clock;
    if (clock != nullptr) {
      clock->AdvanceToNanos(event.at_ns);
    }
  }
  event.fn();
}

bool SimExecutor::Step() {
  if (queue_.empty()) {
    return false;
  }
  Dispatch(queue_.Pop());
  return true;
}

void SimExecutor::Run() {
  while (Step()) {
  }
}

}  // namespace sim
}  // namespace flicker
