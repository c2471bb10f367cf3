// The network: an adversarial, byte-carrying datagram channel between the
// Flicker platform and a remote verifier.
//
// Latency is calibrated to the paper's §7.1 setup: the verifier is 12 hops
// away with ping times of 9.33 / 9.45 / 10.10 ms (min/avg/max over 50
// trials), and every datagram draws one deterministic jittered one-way
// latency from that profile. On top of the latency model each datagram is
// subject to a seeded, deterministic NetFaultSchedule: per-message drop,
// duplicate, reorder, corrupt and delay verdicts plus partition windows
// during which nothing crosses in either direction. The same seed replays
// the same fault sequence bit-exact, mirroring FaultScheduler's seeded-plan
// design for power loss.
//
// With a disabled (default) schedule the channel is a plain latency-modeled
// wire: one latency sample per message, no extra deliveries, no overhead -
// so the calibrated paper benches are unaffected unless a caller arms
// faults.
//
// Every send, delivery and fault is counted in the global metrics registry.
// While a tracer is installed each Send also records one `net.send` span on
// the unified trace stream (src/obs/trace.h), running from the send instant
// to the scheduled arrival on the shared sim-clock nanosecond epoch and
// carrying the message's seq, sender, size, fault verdict and both
// timestamps - so a failing chaos cell's exported trace shows exactly what
// the wire did to every frame, next to the TPM commands it triggered.

#ifndef FLICKER_SRC_NET_LOSSY_CHANNEL_H_
#define FLICKER_SRC_NET_LOSSY_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/drbg.h"
#include "src/hw/clock.h"

namespace flicker {

// Round-trip profile of the verifier link (paper §7.1 defaults). Kept as a
// type: it is a paper timing profile, which perfbench's workload constructs.
struct LatencyProfile {
  double min_rtt_ms = 9.33;
  double avg_rtt_ms = 9.45;
  double max_rtt_ms = 10.10;
  int hops = 12;
};

enum class NetEndpoint : int { kClient = 0, kServer = 1 };

const char* NetEndpointName(NetEndpoint endpoint);

// Per-message fault probabilities in basis points (1/100 of a percent), so
// mixes stay integral and seeds map to verdicts deterministically. Verdicts
// are mutually exclusive per message; at most one fires.
struct NetFaultMix {
  uint32_t drop_bp = 0;
  uint32_t duplicate_bp = 0;
  uint32_t reorder_bp = 0;
  uint32_t corrupt_bp = 0;
  uint32_t delay_bp = 0;
  double delay_ms = 25.0;    // Extra latency when a delay verdict fires.
  double reorder_ms = 15.0;  // Extra latency letting the next message pass.
};

// A half-open range of message indices (1-based Send() count) during which
// the wire is cut: everything sent in [start_msg, end_msg) is dropped.
struct PartitionWindow {
  uint64_t start_msg = 0;
  uint64_t end_msg = 0;
};

// What the schedule decided for one message.
enum class NetFault { kNone, kDrop, kDuplicate, kReorder, kCorrupt, kDelay, kPartition };

const char* NetFaultName(NetFault fault);

// Seeded, deterministic per-message fault plan. Default-constructed = fully
// disabled (never faults, draws no randomness).
class NetFaultSchedule {
 public:
  NetFaultSchedule() = default;
  NetFaultSchedule(uint64_t seed, const NetFaultMix& mix,
                   std::vector<PartitionWindow> partitions = {});

  // Verdict for the `msg_index`-th Send (1-based). Pure function of
  // (seed, mix, index): replays are bit-exact.
  NetFault Classify(uint64_t msg_index) const;

  bool enabled() const { return enabled_; }
  uint64_t seed() const { return seed_; }
  const NetFaultMix& mix() const { return mix_; }

 private:
  bool enabled_ = false;
  uint64_t seed_ = 0;
  NetFaultMix mix_;
  std::vector<PartitionWindow> partitions_;
};

class LossyChannel {
 public:
  explicit LossyChannel(SimClock* clock, LatencyProfile profile = LatencyProfile(),
                        uint64_t jitter_seed = 17)
      : clock_(clock), profile_(profile), jitter_(jitter_seed) {}

  void set_fault_schedule(const NetFaultSchedule& schedule) { schedule_ = schedule; }

  // Queues one datagram from `from` toward the peer. Draws exactly one
  // latency sample; the armed schedule may drop, duplicate, reorder,
  // corrupt or further delay it. Never blocks, never fails (datagrams).
  void Send(NetEndpoint from, const Bytes& datagram);

  // Like Send, but the transmission starts at the explicit `send_ns` instant
  // instead of the channel clock's now. Arrival is a pure function of
  // (send_ns, drawn latency, fault verdict) - senders living on different
  // timelines (a verifier deep in its service queue answering a machine)
  // cannot drag each other's clocks forward through the shared wire.
  void SendAt(NetEndpoint from, uint64_t send_ns, const Bytes& datagram);

  // Delivers the earliest pending datagram addressed to `at`, advancing the
  // clock to its arrival time (never backwards). False when nothing is in
  // flight for this endpoint.
  bool Receive(NetEndpoint at, Bytes* out);

  // Like Receive, but refuses to advance the simulated clock past
  // `deadline_ms`: if the earliest pending arrival for `at` is later (or
  // nothing is in flight), advances to the deadline and returns false - the
  // caller's timeout verdict.
  bool ReceiveUntil(NetEndpoint at, double deadline_ms, Bytes* out);

  // Earliest pending arrival time for `at`; false when none in flight.
  bool NextArrivalMs(NetEndpoint at, double* arrival_ms) const;

  // ---- Discrete-event mode ----
  //
  // Under the fleet executor deliveries are heap events, not synchronous
  // waits. The hook fires once per datagram the wire actually carries (at
  // enqueue time, i.e. inside Send); drops and partition verdicts enqueue
  // nothing, so no hook fires and the sender's timeout is the only signal.
  // The scheduler is expected to post an event at `arrival_ns` whose handler
  // calls ReceiveScheduled with the same (dest, seq, arrival_ns) triple.
  using DeliveryHook = std::function<void(NetEndpoint dest, uint64_t seq, uint64_t arrival_ns)>;
  void set_delivery_hook(DeliveryHook hook) { delivery_hook_ = std::move(hook); }

  // Delivers exactly the datagram a DeliveryHook invocation named. Unlike
  // Receive it never advances the clock: the executor already owns time, and
  // wire latency is not CPU time on either endpoint. False when the datagram
  // is no longer in flight (already taken by a synchronous Receive).
  bool ReceiveScheduled(NetEndpoint at, uint64_t seq, uint64_t arrival_ns, Bytes* out);

  SimClock* clock() const { return clock_; }
  const LatencyProfile& profile() const { return profile_; }
  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_delivered() const { return messages_delivered_; }
  uint64_t faults_injected() const { return faults_injected_; }

 private:
  struct InFlight {
    uint64_t arrival_ns = 0;
    uint64_t seq = 0;      // Tie-break: FIFO among equal arrivals.
    NetEndpoint dest = NetEndpoint::kClient;
    Bytes payload;
  };

  double SampleOneWayMs();
  void Enqueue(NetEndpoint dest, uint64_t seq, uint64_t arrival_ns, Bytes payload);
  // Index into in_flight_ of the earliest pending datagram for `at`, or -1.
  int EarliestFor(NetEndpoint at) const;

  SimClock* clock_;
  LatencyProfile profile_;
  Drbg jitter_;
  NetFaultSchedule schedule_;
  DeliveryHook delivery_hook_;

  std::vector<InFlight> in_flight_;
  uint64_t messages_sent_ = 0;
  uint64_t messages_delivered_ = 0;
  uint64_t faults_injected_ = 0;
};

}  // namespace flicker

#endif  // FLICKER_SRC_NET_LOSSY_CHANNEL_H_
