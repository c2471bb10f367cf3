// The event heap at the heart of the discrete-event engine.
//
// Events are ordered by the key (at_ns, tiebreak, seq): simulated time
// first, then a seeded tiebreak so that *simultaneous* events from
// different schedulers interleave differently per seed (the fleet harness
// uses this to explore multi-party attestation interleavings by seed), and
// finally the monotonic schedule sequence number so the order is total and
// bit-exactly reproducible.
//
// Cancellation is lazy: Cancel() marks the sequence number dead and Pop()
// skips tombstones, so cancelling a pending timer (a batch window that
// filled early, a round timeout that completed) is O(1).

#ifndef FLICKER_SRC_SIM_EVENT_QUEUE_H_
#define FLICKER_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace flicker {
namespace sim {

// Handle to one scheduled event; seq 0 means "no event".
struct EventId {
  uint64_t seq = 0;
  bool valid() const { return seq != 0; }
};

struct ScheduledEvent {
  uint64_t at_ns = 0;
  uint64_t tiebreak = 0;  // SplitMix64(seed ^ seq): the seeded interleaving.
  uint64_t seq = 0;       // 1-based schedule order; final total-order key.
  int actor = -1;         // Executor actor the event dispatches to (-1 = none).
  std::function<void()> fn;
};

class EventQueue {
 public:
  explicit EventQueue(uint64_t seed) : seed_(seed) {}

  EventId Schedule(uint64_t at_ns, int actor, std::function<void()> fn);

  // Marks a pending event dead. Returns false when the event already fired,
  // was already cancelled, or never existed.
  bool Cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }
  // Pops the earliest live event. Caller must check !empty() first.
  ScheduledEvent Pop();

  uint64_t scheduled() const { return next_seq_ - 1; }
  uint64_t cancelled() const { return cancelled_count_; }
  size_t max_size() const { return max_size_; }

 private:
  struct HeapEntry {
    uint64_t at_ns;
    uint64_t tiebreak;
    uint64_t seq;
  };
  // Min-heap comparison: std::push_heap builds a max-heap, so invert.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.at_ns != b.at_ns) return a.at_ns > b.at_ns;
      if (a.tiebreak != b.tiebreak) return a.tiebreak > b.tiebreak;
      return a.seq > b.seq;
    }
  };
  struct Payload {
    int actor;
    std::function<void()> fn;
  };

  void DropDeadTop();

  uint64_t seed_;
  uint64_t next_seq_ = 1;
  size_t live_count_ = 0;
  size_t max_size_ = 0;
  uint64_t cancelled_count_ = 0;
  std::vector<HeapEntry> heap_;
  std::unordered_set<uint64_t> dead_;
  // Payloads keyed by seq, parallel to the heap; erased on pop/cancel.
  std::unordered_map<uint64_t, Payload> payloads_;
};

}  // namespace sim
}  // namespace flicker

#endif  // FLICKER_SRC_SIM_EVENT_QUEUE_H_
