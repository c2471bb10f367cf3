#include "src/sim/event_queue.h"

#include <algorithm>

#include "src/common/splitmix64.h"

namespace flicker {
namespace sim {

EventId EventQueue::Schedule(uint64_t at_ns, int actor, std::function<void()> fn) {
  uint64_t seq = next_seq_++;
  HeapEntry entry{at_ns, SplitMix64(seed_ ^ seq), seq};
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), Later());
  payloads_.emplace(seq, Payload{actor, std::move(fn)});
  ++live_count_;
  max_size_ = std::max(max_size_, live_count_);
  return EventId{seq};
}

bool EventQueue::Cancel(EventId id) {
  if (!id.valid()) {
    return false;
  }
  auto it = payloads_.find(id.seq);
  if (it == payloads_.end()) {
    return false;
  }
  payloads_.erase(it);
  dead_.insert(id.seq);
  --live_count_;
  ++cancelled_count_;
  return true;
}

void EventQueue::DropDeadTop() {
  while (!heap_.empty() && dead_.count(heap_.front().seq) != 0) {
    dead_.erase(heap_.front().seq);
    std::pop_heap(heap_.begin(), heap_.end(), Later());
    heap_.pop_back();
  }
}

ScheduledEvent EventQueue::Pop() {
  DropDeadTop();
  HeapEntry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later());
  heap_.pop_back();
  auto it = payloads_.find(top.seq);
  ScheduledEvent event;
  event.at_ns = top.at_ns;
  event.tiebreak = top.tiebreak;
  event.seq = top.seq;
  event.actor = it->second.actor;
  event.fn = std::move(it->second.fn);
  payloads_.erase(it);
  --live_count_;
  return event;
}

}  // namespace sim
}  // namespace flicker
