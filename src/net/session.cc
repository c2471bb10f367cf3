#include "src/net/session.h"

#include "src/common/serde.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flicker {

namespace {

// Seeds the retransmit backoff's jitter, mixed with each call's sequence
// number so concurrent retriers do not sync up.
constexpr uint64_t kJitterSeed = 0x5e55;

// FNV-1a over the frame body. Not cryptographic - the trust decisions live
// in the attestation layer - but it turns every wire bit-flip into a
// rejected frame the retransmit machinery recovers from, instead of garbled
// bytes surfacing to the application.
uint32_t FrameChecksum(const Bytes& body) {
  uint32_t hash = 2166136261u;
  for (uint8_t byte : body) {
    hash ^= byte;
    hash *= 16777619u;
  }
  return hash;
}

}  // namespace

Bytes SessionFrame::Serialize() const {
  Writer w;
  w.U32(kMagic);
  w.U8(type);
  w.U64(seq);
  w.U8(status_code);
  w.Str(status_message);
  w.Blob(payload);
  Bytes body = w.Take();
  Writer tail;
  tail.U32(FrameChecksum(body));
  Bytes sum = tail.Take();
  body.insert(body.end(), sum.begin(), sum.end());
  return body;
}

Result<SessionFrame> SessionFrame::Deserialize(const Bytes& data) {
  if (data.size() > kMaxSessionFrameBytes) {
    return InvalidArgumentError("session frame exceeds size bound");
  }
  if (data.size() < 4) {
    return InvalidArgumentError("session frame too short for checksum");
  }
  Bytes body(data.begin(), data.end() - 4);
  Bytes sum(data.end() - 4, data.end());
  Reader tail(sum);
  if (tail.U32() != FrameChecksum(body)) {
    return IntegrityFailureError("session frame checksum mismatch");
  }
  Reader r(body);
  SessionFrame frame;
  if (r.U32() != kMagic) {
    return InvalidArgumentError("bad session frame magic");
  }
  frame.type = r.U8();
  frame.seq = r.U64();
  frame.status_code = r.U8();
  frame.status_message = r.Str();
  frame.payload = r.Blob();
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("corrupt session frame");
  }
  if (frame.type != kRequest && frame.type != kResponse) {
    return InvalidArgumentError("unknown session frame type");
  }
  if (frame.status_code > static_cast<uint8_t>(kLastStatusCode)) {
    return InvalidArgumentError("session frame carries unknown status code");
  }
  return frame;
}

Result<Bytes> SessionClient::Call(const Bytes& request, const PeerPump& pump) {
  ++calls_;
  obs::Count(obs::Ctr::kSessionCalls);
  const uint64_t seq = ++next_seq_;
  obs::ScopedSpan call_span("net", "net.call");
  call_span.Arg("seq", seq);
  const uint64_t call_start_ns = obs::NowNs(channel_->clock());
  SessionFrame frame;
  frame.type = SessionFrame::kRequest;
  frame.seq = seq;
  frame.payload = request;
  const Bytes wire = frame.Serialize();

  const double start_ms = static_cast<double>(channel_->clock()->NowMicros()) / 1000.0;
  const double hard_deadline_ms = start_ms + config_.total_deadline_ms;
  BackoffSchedule backoff(config_.backoff, kJitterSeed ^ seq);
  Status last_failure = UnavailableError("no response received");

  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    if (attempt > 0) {
      double delay_ms = backoff.NextDelayMs();
      double now_ms = static_cast<double>(channel_->clock()->NowMicros()) / 1000.0;
      if (now_ms + delay_ms >= hard_deadline_ms) {
        break;  // The coming wait would blow the deadline: fail closed now.
      }
      channel_->clock()->AdvanceMillis(delay_ms);
      ++retransmits_;
      obs::Count(obs::Ctr::kSessionRetransmits);
      obs::Instant("net", "net.retransmit", {{"seq", std::to_string(seq)}});
    }
    channel_->Send(side_, wire);

    double now_ms = static_cast<double>(channel_->clock()->NowMicros()) / 1000.0;
    double attempt_deadline_ms = now_ms + config_.attempt_timeout_ms;
    if (attempt_deadline_ms > hard_deadline_ms) {
      attempt_deadline_ms = hard_deadline_ms;
    }
    if (pump) {
      pump(attempt_deadline_ms);
    }

    // Drain inbound frames until the matching response or the window ends.
    Bytes inbound;
    bool shed_by_server = false;
    while (channel_->ReceiveUntil(side_, attempt_deadline_ms, &inbound)) {
      Result<SessionFrame> parsed = SessionFrame::Deserialize(inbound);
      if (!parsed.ok()) {
        ++rejected_frames_;  // Garbled or hostile: ignore, keep waiting.
        obs::Count(obs::Ctr::kSessionRejectedFrames);
        continue;
      }
      const SessionFrame& response = parsed.value();
      if (response.type != SessionFrame::kResponse || response.seq != seq) {
        ++stale_frames_;  // A reply to some earlier life; never surfaced.
        obs::Count(obs::Ctr::kSessionStaleFrames);
        continue;
      }
      if (response.status_code == static_cast<uint8_t>(StatusCode::kOverloaded)) {
        // The server shed this request before executing it; re-enter the
        // retransmit loop so the shared backoff schedule paces the retry
        // instead of hammering an overloaded farm.
        ++overload_retries_;
        obs::Count(obs::Ctr::kSessionOverloadRetries);
        last_failure = Status(StatusCode::kOverloaded, response.status_message);
        shed_by_server = true;
        break;
      }
      obs::ObserveMs(obs::Hist::kSessionCallLatencyMs,
                     static_cast<double>(obs::NowNs(channel_->clock()) - call_start_ns) / 1e6);
      if (response.status_code != 0) {
        return Status(static_cast<StatusCode>(response.status_code), response.status_message);
      }
      return response.payload;
    }
    if (!shed_by_server) {
      last_failure = UnavailableError("response window expired");
    }
    double after_ms = static_cast<double>(channel_->clock()->NowMicros()) / 1000.0;
    if (after_ms >= hard_deadline_ms) {
      break;
    }
  }
  obs::Instant("net", "net.call_deadline", {{"seq", std::to_string(seq)}});
  obs::ObserveMs(obs::Hist::kSessionCallLatencyMs,
                 static_cast<double>(obs::NowNs(channel_->clock()) - call_start_ns) / 1e6);
  if (last_failure.code() == StatusCode::kOverloaded) {
    // Surface the distinct retry-after verdict so the caller can widen its
    // own backoff instead of treating the farm as dead.
    return last_failure;
  }
  return Status(StatusCode::kUnavailable,
                "session call failed closed by deadline: " + last_failure.message());
}

size_t SessionServer::ServePending(double deadline_ms, const Handler& handler) {
  size_t processed = 0;
  Bytes inbound;
  // Only frames already scheduled to arrive before the horizon are served;
  // an idle server does not burn simulated time (the waiting client's own
  // ReceiveUntil is what charges the timeout window).
  while (true) {
    double arrival_ms = 0;
    if (!channel_->NextArrivalMs(side_, &arrival_ms) || arrival_ms > deadline_ms) {
      break;
    }
    if (!channel_->Receive(side_, &inbound)) {
      break;
    }
    ++processed;
    Result<SessionFrame> parsed = SessionFrame::Deserialize(inbound);
    if (!parsed.ok() || parsed.value().type != SessionFrame::kRequest) {
      ++rejected_frames_;
      obs::Count(obs::Ctr::kSessionRejectedFrames);
      continue;
    }
    const SessionFrame& request = parsed.value();

    auto cached = reply_cache_.find(request.seq);
    if (cached != reply_cache_.end()) {
      // Retransmit or wire duplicate: answer what we answered before.
      ++duplicates_served_;
      obs::Count(obs::Ctr::kSessionDuplicatesServed);
      channel_->Send(side_, cached->second);
      continue;
    }

    Result<Bytes> verdict = handler(request.payload);
    SessionFrame response;
    response.type = SessionFrame::kResponse;
    response.seq = request.seq;
    if (verdict.ok()) {
      response.payload = verdict.value();
    } else {
      response.status_code = static_cast<uint8_t>(verdict.status().code());
      response.status_message = verdict.status().message();
    }
    Bytes response_wire = response.Serialize();
    if (!verdict.ok() && verdict.status().code() == StatusCode::kOverloaded) {
      // Admission control rejected the request before executing it, so
      // at-most-once is not at stake: leave the seq uncached and let a
      // later retransmit run the handler for real once load drains.
      ++overloads_shed_;
      obs::Count(obs::Ctr::kSessionOverloadSheds);
      channel_->Send(side_, response_wire);
      continue;
    }
    if (reply_cache_.size() >= cache_capacity_ && !cache_order_.empty()) {
      reply_cache_.erase(cache_order_.front());
      cache_order_.pop_front();
    }
    reply_cache_.emplace(request.seq, response_wire);
    cache_order_.push_back(request.seq);
    ++requests_handled_;
    obs::Count(obs::Ctr::kSessionRequestsHandled);
    channel_->Send(side_, response_wire);
  }
  return processed;
}

}  // namespace flicker
