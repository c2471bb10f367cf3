// Reliable request/response sessions over a LossyChannel.
//
// The channel below is adversarial: datagrams vanish, duplicate, reorder,
// garble and stall. This layer restores exactly-once request/response
// semantics the way RPC stacks do:
//
//   * sequence numbers pair every response with its request; stale or
//     mismatched frames are ignored, never surfaced,
//   * per-request deadlines run on the simulated clock - a Call either
//     returns the server's typed verdict or fails CLOSED (kUnavailable)
//     no later than its total deadline,
//   * retransmits follow the shared capped-exponential BackoffPolicy with
//     deterministic jitter (same seed => same schedule, so chaos cells
//     replay bit-exact),
//   * the server answers duplicate sequence numbers from a bounded reply
//     cache without re-invoking the handler, so a retransmitted request is
//     executed at most once (a CA must not mint two certificates because
//     the wire hiccuped),
//   * a server shedding load answers with a distinct kOverloaded verdict;
//     the client folds it back into the same backoff schedule (retry-after)
//     instead of failing, and the server leaves shed sequence numbers
//     uncached - the request never executed, so a later retransmit may,
//   * every inbound frame is treated as hostile: length-checked, magic- and
//     type-checked, bounded, and covered by a trailing FNV-1a checksum, so
//     a wire bit-flip is a rejected frame (recovered by retransmit), never
//     garbled bytes surfacing to the application.
//
// The simulation is single-threaded, so the remote endpoint does not run by
// itself: Call() invokes a caller-supplied pump after each transmit, which
// is where the test (or app harness) lets the server's ServePending drain.

#ifndef FLICKER_SRC_NET_SESSION_H_
#define FLICKER_SRC_NET_SESSION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "src/common/backoff.h"
#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/net/lossy_channel.h"

namespace flicker {

// Hard ceiling on any session frame; anything larger is hostile by fiat.
inline constexpr size_t kMaxSessionFrameBytes = 1u << 20;

struct SessionFrame {
  static constexpr uint32_t kMagic = 0x46534E31;  // "FSN1"
  static constexpr uint8_t kRequest = 0;
  static constexpr uint8_t kResponse = 1;

  uint8_t type = kRequest;
  uint64_t seq = 0;
  // Responses carry the server's Status in-band so errors survive the wire
  // typed; requests leave these at defaults.
  uint8_t status_code = 0;
  std::string status_message;
  Bytes payload;

  // Wire form: magic | type | seq | status | message | payload | fnv1a32.
  Bytes Serialize() const;
  static Result<SessionFrame> Deserialize(const Bytes& data);
};

// Kept settable: the defaults fit micro_net's echo (250 ms per Call), but
// integration_net_chaos_test serves a ~1 s Flicker session behind the wire
// and needs an 8 s deadline with wider retransmit windows.
struct SessionConfig {
  double attempt_timeout_ms = 30.0;  // Receive window after each transmit.
  int max_attempts = 4;              // One initial send plus three retransmits.
  double total_deadline_ms = 250.0;  // Fail-closed ceiling per Call.
  // Capped exponential backoff between retransmits, with deterministic
  // jitter so concurrent retriers do not sync up.
  BackoffPolicy backoff{5.0, 2.0, 40.0, 0.5};
};

class SessionClient {
 public:
  // Runs the peer while this client waits: drains the remote endpoint's
  // pending frames up to the given simulated-clock horizon.
  using PeerPump = std::function<void(double deadline_ms)>;

  SessionClient(LossyChannel* channel, NetEndpoint side,
                SessionConfig config = SessionConfig())
      : channel_(channel), side_(side), config_(config) {}

  // Sends `request` and returns the matching response payload, the server's
  // typed error, or - when the deadline/attempt budget exhausts with no
  // matching reply - a fail-closed kUnavailable. Never returns a response
  // whose sequence number does not match this call.
  Result<Bytes> Call(const Bytes& request, const PeerPump& pump = PeerPump());

  uint64_t calls() const { return calls_; }
  uint64_t retransmits() const { return retransmits_; }
  uint64_t stale_frames() const { return stale_frames_; }
  uint64_t rejected_frames() const { return rejected_frames_; }
  uint64_t overload_retries() const { return overload_retries_; }

 private:
  LossyChannel* channel_;
  NetEndpoint side_;
  SessionConfig config_;
  uint64_t next_seq_ = 0;
  uint64_t calls_ = 0;
  uint64_t retransmits_ = 0;
  uint64_t stale_frames_ = 0;
  uint64_t rejected_frames_ = 0;
  uint64_t overload_retries_ = 0;
};

class SessionServer {
 public:
  using Handler = std::function<Result<Bytes>(const Bytes&)>;

  SessionServer(LossyChannel* channel, NetEndpoint side, size_t reply_cache_capacity = 64)
      : channel_(channel), side_(side), cache_capacity_(reply_cache_capacity) {}

  // Receives every frame arriving for this endpoint before `deadline_ms`
  // and answers requests via `handler`. Handler Status errors are encoded
  // in-band. Duplicate sequence numbers are answered from the reply cache
  // without re-invoking the handler (at-most-once execution). Malformed or
  // non-request frames are counted and dropped. Returns frames processed.
  size_t ServePending(double deadline_ms, const Handler& handler);

  uint64_t requests_handled() const { return requests_handled_; }
  uint64_t duplicates_served() const { return duplicates_served_; }
  uint64_t rejected_frames() const { return rejected_frames_; }
  uint64_t overloads_shed() const { return overloads_shed_; }

 private:
  LossyChannel* channel_;
  NetEndpoint side_;
  size_t cache_capacity_;
  std::map<uint64_t, Bytes> reply_cache_;  // seq -> serialized response frame.
  std::deque<uint64_t> cache_order_;       // FIFO eviction.
  uint64_t requests_handled_ = 0;
  uint64_t duplicates_served_ = 0;
  uint64_t rejected_frames_ = 0;
  uint64_t overloads_shed_ = 0;
};

}  // namespace flicker

#endif  // FLICKER_SRC_NET_SESSION_H_
