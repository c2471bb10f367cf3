#include "src/net/lossy_channel.h"

#include <algorithm>
#include <string>

#include "src/common/splitmix64.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flicker {

namespace {

// The exact rounding SimClock::AdvanceMillis applies (µs grain widened to
// ns), so a wire delay lands on the same nanosecond as a charge of the same
// milliseconds.
uint64_t NsOfMs(double ms) {
  return ms > 0 ? static_cast<uint64_t>(ms * 1000.0 + 0.5) * 1000 : 0;
}

}  // namespace

const char* NetEndpointName(NetEndpoint endpoint) {
  return endpoint == NetEndpoint::kClient ? "client" : "server";
}

const char* NetFaultName(NetFault fault) {
  switch (fault) {
    case NetFault::kNone:
      return "none";
    case NetFault::kDrop:
      return "drop";
    case NetFault::kDuplicate:
      return "duplicate";
    case NetFault::kReorder:
      return "reorder";
    case NetFault::kCorrupt:
      return "corrupt";
    case NetFault::kDelay:
      return "delay";
    case NetFault::kPartition:
      return "partition";
  }
  return "?";
}

NetFaultSchedule::NetFaultSchedule(uint64_t seed, const NetFaultMix& mix,
                                   std::vector<PartitionWindow> partitions)
    : enabled_(true), seed_(seed), mix_(mix), partitions_(std::move(partitions)) {}

NetFault NetFaultSchedule::Classify(uint64_t msg_index) const {
  if (!enabled_) {
    return NetFault::kNone;
  }
  for (const PartitionWindow& window : partitions_) {
    if (msg_index >= window.start_msg && msg_index < window.end_msg) {
      return NetFault::kPartition;
    }
  }
  // One draw in [0, 10000); the mix carves it into disjoint verdict bands,
  // so per-message probabilities are exact and mutually exclusive.
  uint64_t draw = SplitMix64(seed_ ^ (msg_index * 0x9E3779B97F4A7C15ULL)) % 10000;
  uint64_t band = mix_.drop_bp;
  if (draw < band) {
    return NetFault::kDrop;
  }
  band += mix_.duplicate_bp;
  if (draw < band) {
    return NetFault::kDuplicate;
  }
  band += mix_.reorder_bp;
  if (draw < band) {
    return NetFault::kReorder;
  }
  band += mix_.corrupt_bp;
  if (draw < band) {
    return NetFault::kCorrupt;
  }
  band += mix_.delay_bp;
  if (draw < band) {
    return NetFault::kDelay;
  }
  return NetFault::kNone;
}

double LossyChannel::SampleOneWayMs() {
  // Triangular-ish jitter around the average: avg + U[-1,1] * spread, where
  // spread keeps samples within [min, max].
  double spread_low = (profile_.avg_rtt_ms - profile_.min_rtt_ms) / 2.0;
  double spread_high = (profile_.max_rtt_ms - profile_.avg_rtt_ms) / 2.0;
  uint64_t draw = jitter_.UniformUint64(1000);
  double u = static_cast<double>(draw) / 999.0;  // [0, 1].
  double rtt;
  if (u < 0.5) {
    rtt = profile_.avg_rtt_ms - spread_low * (1.0 - 2.0 * u);
  } else {
    rtt = profile_.avg_rtt_ms + spread_high * (2.0 * u - 1.0);
  }
  return rtt / 2.0;
}

void LossyChannel::Enqueue(NetEndpoint dest, uint64_t seq, uint64_t arrival_ns, Bytes payload) {
  InFlight entry;
  entry.arrival_ns = arrival_ns;
  entry.seq = seq;
  entry.dest = dest;
  entry.payload = std::move(payload);
  if (delivery_hook_) {
    delivery_hook_(dest, seq, entry.arrival_ns);
  }
  in_flight_.push_back(std::move(entry));
}

void LossyChannel::Send(NetEndpoint from, const Bytes& datagram) {
  SendAt(from, clock_->NowNanos(), datagram);
}

void LossyChannel::SendAt(NetEndpoint from, uint64_t send_ns, const Bytes& datagram) {
  const uint64_t seq = ++messages_sent_;
  const NetEndpoint dest =
      from == NetEndpoint::kClient ? NetEndpoint::kServer : NetEndpoint::kClient;
  const double one_way_ms = SampleOneWayMs();
  const NetFault fault = schedule_.Classify(seq);
  // Scheduled arrival on the wire; fault verdicts below may push it out.
  uint64_t arrival_ns = send_ns + NsOfMs(one_way_ms);

  obs::Count(obs::Ctr::kNetMessagesSent);
  if (fault != NetFault::kNone) {
    ++faults_injected_;
    obs::Count(obs::Ctr::kNetFaultsInjected);
  }
  switch (fault) {
    case NetFault::kDrop:
    case NetFault::kPartition:
      // Swallowed by the wire; the latency sample was still drawn (the
      // bytes left the sender), keeping replays aligned across verdicts.
      break;
    case NetFault::kDuplicate: {
      Enqueue(dest, seq, arrival_ns, datagram);
      // The duplicate trails by its own fresh latency (a retransmitting
      // middlebox), so both copies arrive and the receiver must dedup.
      Enqueue(dest, seq, arrival_ns + NsOfMs(SampleOneWayMs()), datagram);
      break;
    }
    case NetFault::kReorder:
      // Held back long enough for a later message to overtake it.
      arrival_ns += NsOfMs(schedule_.mix().reorder_ms);
      Enqueue(dest, seq, arrival_ns, datagram);
      break;
    case NetFault::kCorrupt: {
      Bytes garbled = datagram;
      if (!garbled.empty()) {
        size_t pos = static_cast<size_t>(seq * 0x9E3779B97F4A7C15ULL % garbled.size());
        garbled[pos] ^= 0x5A;
      }
      Enqueue(dest, seq, arrival_ns, std::move(garbled));
      break;
    }
    case NetFault::kDelay:
      arrival_ns += NsOfMs(schedule_.mix().delay_ms);
      Enqueue(dest, seq, arrival_ns, datagram);
      break;
    case NetFault::kNone:
      Enqueue(dest, seq, arrival_ns, datagram);
      break;
  }
  // The traced arrival is the same nanosecond the in-flight queue carries,
  // so the record and a later Receive() agree exactly. A dropped message
  // keeps the arrival it would have had.
  if (obs::Tracer* tracer = obs::GlobalTracer()) {
    tracer->EmitComplete("net", "net.send", send_ns, arrival_ns,
                         {{"seq", std::to_string(seq)},
                          {"from", NetEndpointName(from)},
                          {"bytes", std::to_string(datagram.size())},
                          {"fault", NetFaultName(fault)},
                          {"sent_ns", std::to_string(send_ns)},
                          {"arrival_ns", std::to_string(arrival_ns)}});
  }
}

int LossyChannel::EarliestFor(NetEndpoint at) const {
  int best = -1;
  for (size_t i = 0; i < in_flight_.size(); ++i) {
    if (in_flight_[i].dest != at) {
      continue;
    }
    if (best < 0 || in_flight_[i].arrival_ns < in_flight_[best].arrival_ns ||
        (in_flight_[i].arrival_ns == in_flight_[best].arrival_ns &&
         in_flight_[i].seq < in_flight_[best].seq)) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

bool LossyChannel::NextArrivalMs(NetEndpoint at, double* arrival_ms) const {
  int index = EarliestFor(at);
  if (index < 0) {
    return false;
  }
  *arrival_ms = static_cast<double>(in_flight_[index].arrival_ns) / 1e6;
  return true;
}

bool LossyChannel::Receive(NetEndpoint at, Bytes* out) {
  int index = EarliestFor(at);
  if (index < 0) {
    return false;
  }
  clock_->AdvanceToNanos(in_flight_[index].arrival_ns);
  *out = std::move(in_flight_[index].payload);
  in_flight_.erase(in_flight_.begin() + index);
  ++messages_delivered_;
  obs::Count(obs::Ctr::kNetMessagesDelivered);
  return true;
}

bool LossyChannel::ReceiveUntil(NetEndpoint at, double deadline_ms, Bytes* out) {
  const uint64_t deadline_ns = NsOfMs(deadline_ms);
  int index = EarliestFor(at);
  if (index < 0 || in_flight_[index].arrival_ns > deadline_ns) {
    // Nothing arrives in time: burn the wait so timeout verdicts charge
    // honestly, and leave any late datagram in flight.
    clock_->AdvanceToNanos(deadline_ns);
    return false;
  }
  return Receive(at, out);
}

bool LossyChannel::ReceiveScheduled(NetEndpoint at, uint64_t seq, uint64_t arrival_ns, Bytes* out) {
  for (size_t i = 0; i < in_flight_.size(); ++i) {
    const InFlight& entry = in_flight_[i];
    if (entry.dest != at || entry.seq != seq || entry.arrival_ns != arrival_ns) {
      continue;
    }
    *out = std::move(in_flight_[i].payload);
    in_flight_.erase(in_flight_.begin() + static_cast<long>(i));
    ++messages_delivered_;
    obs::Count(obs::Ctr::kNetMessagesDelivered);
    return true;
  }
  return false;
}

}  // namespace flicker
