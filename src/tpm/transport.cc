#include "src/tpm/transport.h"

#include <cstdio>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tpm/commands.h"

namespace flicker {

TpmTransport::TpmTransport(Tpm* tpm) : tpm_(tpm), hardware_(this) {}

void TpmTransport::Record(uint32_t ordinal, int locality, double latency_ms,
                          uint32_t result_code) {
  obs::Count(obs::Ctr::kTpmCommands);
  obs::Tracer* tracer = obs::GlobalTracer();
  if (tracer == nullptr) {
    return;
  }
  // Dispatch completed now; the span covers exactly the charged latency.
  const uint64_t end_ns = obs::NowNs(tpm_->sim_clock());
  char rc[16];
  std::snprintf(rc, sizeof(rc), "0x%x", result_code);
  tracer->EmitComplete("tpm", TpmOrdinalName(ordinal),
                       end_ns - static_cast<uint64_t>(latency_ms * 1e6 + 0.5), end_ns,
                       {{"locality", std::to_string(locality)}, {"rc", rc}});
}

Result<Bytes> TpmTransport::Transmit(const Bytes& request_frame) {
  ++total_commands_;
  const int at_locality = tpm_->locality();

  Result<uint32_t> peeked = PeekOrdinal(request_frame);
  const uint32_t ordinal = peeked.ok() ? peeked.value() : 0;

  // Fault injection happens where a bus fault would: between the driver
  // handing the frame off and the device consuming it.
  Bytes frame = request_frame;
  if (plan_.kind != FaultPlan::Kind::kNone && plan_.every_n > 0 &&
      total_commands_ % plan_.every_n == 0) {
    ++faults_injected_;
    obs::Count(obs::Ctr::kTpmTransportFaults);
    switch (plan_.kind) {
      case FaultPlan::Kind::kDrop: {
        // The driver burns its receive timeout waiting for a reply that
        // never comes.
        tpm_->sim_clock()->AdvanceMillis(plan_.drop_timeout_ms);
        Record(ordinal, at_locality, plan_.drop_timeout_ms,
               ReturnCodeFor(StatusCode::kUnavailable));
        obs::ObserveMs(obs::Hist::kTpmCommandLatencyMs, plan_.drop_timeout_ms);
        return UnavailableError("TPM frame dropped (injected fault)");
      }
      case FaultPlan::Kind::kGarble: {
        // Flip one byte in the middle of the parameter body; header fields
        // stay intact so the device sees a parseable but corrupted command.
        if (frame.size() > kFrameHeaderSize) {
          size_t body_len = frame.size() - kFrameHeaderSize;
          frame[kFrameHeaderSize + body_len / 2] ^= 0x5A;
        }
        break;
      }
      case FaultPlan::Kind::kDelay:
        tpm_->sim_clock()->AdvanceMillis(plan_.delay_ms);
        break;
      case FaultPlan::Kind::kNone:
        break;
    }
  }

  // Locality gate: an extend of a gated PCR from the wrong locality is
  // refused at the interface, before the device sees the frame.
  int extend_index = 0;
  if (ordinal == kOrdExtend && ExtendTargetPcr(frame, &extend_index) &&
      extend_index >= 0 && extend_index < kNumPcrs &&
      !Tpm::ExtendAllowedAt(extend_index, at_locality)) {
    Record(ordinal, at_locality, 0, ReturnCodeFor(StatusCode::kPermissionDenied));
    return PermissionDeniedError("PCR " + std::to_string(extend_index) +
                                 " cannot be extended from locality " +
                                 std::to_string(at_locality));
  }

  uint64_t start_us = tpm_->sim_clock()->NowMicros();
  Bytes response = DispatchFrame(tpm_, frame);
  double latency_ms =
      static_cast<double>(tpm_->sim_clock()->NowMicros() - start_us) / 1000.0;
  Record(ordinal, at_locality, latency_ms, PeekReturnCode(response));
  obs::ObserveMs(obs::Hist::kTpmCommandLatencyMs, latency_ms);
  return response;
}

Status TpmTransport::RequestLocality(int locality) {
  int previous = tpm_->locality();
  Status st = tpm_->RequestLocality(locality);
  Record(kOrdTisRequestLocality, locality, 0, ReturnCodeFor(st.code()));
  if (st.ok()) {
    locality_stack_.push_back(previous);
  }
  return st;
}

Status TpmTransport::ReleaseLocality() {
  if (locality_stack_.empty()) {
    return FailedPreconditionError("no locality request to release");
  }
  int previous = locality_stack_.back();
  locality_stack_.pop_back();
  Status st = tpm_->RequestLocality(previous);
  Record(kOrdTisReleaseLocality, previous, 0, ReturnCodeFor(st.code()));
  return st;
}

// ---- Hardware facade ----

void TpmTransport::Hardware::SkinitReset(const Bytes& slb_measurement) {
  transport_->tpm_->hardware()->SkinitReset(slb_measurement);
  transport_->Record(kOrdHwSkinitReset, 4, 0, 0);
}

void TpmTransport::Hardware::ExtendIdentityPcr(const Bytes& measurement) {
  transport_->tpm_->hardware()->ExtendIdentityPcr(measurement);
  transport_->Record(kOrdHwExtendIdentityPcr, transport_->tpm_->locality(), 0, 0);
}

void TpmTransport::Hardware::Init() {
  transport_->tpm_->hardware()->Init();
  transport_->locality_stack_.clear();
  transport_->Record(kOrdHwInit, 0, 0, 0);
}

void TpmTransport::Hardware::PowerCycle() {
  transport_->tpm_->hardware()->PowerCycle();
  transport_->locality_stack_.clear();
  transport_->Record(kOrdHwPowerCycle, 0, 0, 0);
}

void TpmTransport::Hardware::ForceFailureMode() {
  transport_->tpm_->hardware()->ForceFailureMode();
  transport_->Record(kOrdHwForceFailure, 0, 0, 0);
}

void TpmTransport::Hardware::ClearFailureMode() {
  transport_->tpm_->hardware()->ClearFailureMode();
  transport_->Record(kOrdHwClearFailure, 0, 0, 0);
}

Status TpmTransport::Hardware::SetLocality(int locality) {
  Status st = transport_->tpm_->hardware()->SetLocality(locality);
  transport_->Record(kOrdHwSetLocality, locality, 0, ReturnCodeFor(st.code()));
  return st;
}

// ---- TpmClient ----

TpmClient::TpmClient(TpmTransport* transport) : transport_(transport) {
  // Public-key export is a capability read (no modeled latency); fetch both
  // up front so aik_public()/srk_public() can return references.
  Result<Bytes> aik = Roundtrip(BuildGetPubKey(/*srk=*/false));
  if (aik.ok()) {
    Result<Bytes> blob = ParseBlobPayload(aik.value());
    if (blob.ok()) {
      Result<RsaPublicKey> key = RsaPublicKey::Deserialize(blob.value());
      if (key.ok()) {
        aik_public_ = key.take();
      }
    }
  }
  Result<Bytes> srk = Roundtrip(BuildGetPubKey(/*srk=*/true));
  if (srk.ok()) {
    Result<Bytes> blob = ParseBlobPayload(srk.value());
    if (blob.ok()) {
      Result<RsaPublicKey> key = RsaPublicKey::Deserialize(blob.value());
      if (key.ok()) {
        srk_public_ = key.take();
      }
    }
  }
}

Result<Bytes> TpmClient::Roundtrip(const Bytes& request_frame) {
  Result<Bytes> response = transport_->Transmit(request_frame);
  if (!response.ok()) {
    return response.status();
  }
  return ParseResponseFrame(response.value());
}

Bytes TpmClient::GetRandom(size_t len) {
  Result<Bytes> payload = Roundtrip(BuildGetRandom(len));
  if (!payload.ok()) {
    return Bytes();
  }
  Result<Bytes> random = ParseBlobPayload(payload.value());
  return random.ok() ? random.take() : Bytes();
}

Result<Bytes> TpmClient::PcrRead(int index) {
  Result<Bytes> payload = Roundtrip(BuildPcrRead(index));
  if (!payload.ok()) {
    return payload.status();
  }
  return ParseBlobPayload(payload.value());
}

Status TpmClient::PcrExtend(int index, const Bytes& measurement) {
  // A real driver raises its locality through the TIS before extending a
  // launch-gated PCR; mirror that so software extends of PCR 17 (allowed by
  // §2.3 - software can extend, never reset) work from locality 0.
  const bool negotiate = index >= 0 && index < kNumPcrs &&
                         !Tpm::ExtendAllowedAt(index, transport_->locality()) &&
                         Tpm::ExtendAllowedAt(index, 2);
  if (negotiate) {
    FLICKER_RETURN_IF_ERROR(transport_->RequestLocality(2));
  }
  Result<Bytes> payload = Roundtrip(BuildPcrExtend(index, measurement));
  if (negotiate) {
    Status released = transport_->ReleaseLocality();
    (void)released;  // Restoring a previously held software locality cannot fail.
  }
  return payload.ok() ? Status::Ok() : payload.status();
}

AuthSessionInfo TpmClient::StartOiap() {
  Result<Bytes> payload = Roundtrip(BuildOiap());
  if (!payload.ok()) {
    return AuthSessionInfo();
  }
  Result<AuthSessionInfo> session = ParseSessionPayload(payload.value());
  return session.ok() ? session.take() : AuthSessionInfo();
}

void TpmClient::TerminateSession(uint32_t handle) {
  Result<Bytes> payload = Roundtrip(BuildTerminateHandle(handle));
  (void)payload;
}

Result<SealedBlob> TpmClient::Seal(const Bytes& data, const PcrSelection& selection,
                                   const std::map<int, Bytes>& release_pcrs,
                                   const Bytes& blob_auth, const CommandAuth& auth) {
  Result<Bytes> payload = Roundtrip(BuildSeal(data, selection, release_pcrs, blob_auth, auth));
  if (!payload.ok()) {
    return payload.status();
  }
  Result<Bytes> ciphertext = ParseBlobPayload(payload.value());
  if (!ciphertext.ok()) {
    return ciphertext.status();
  }
  return SealedBlob{ciphertext.take()};
}

Result<Bytes> TpmClient::Unseal(const SealedBlob& blob, const Bytes& blob_auth,
                                const CommandAuth& auth) {
  Result<Bytes> payload = Roundtrip(BuildUnseal(blob, blob_auth, auth));
  if (!payload.ok()) {
    return payload.status();
  }
  return ParseBlobPayload(payload.value());
}

Result<TpmQuote> TpmClient::Quote(const Bytes& nonce, const PcrSelection& selection) {
  Result<Bytes> payload = Roundtrip(BuildQuote(nonce, selection));
  if (!payload.ok()) {
    return payload.status();
  }
  return ParseQuotePayload(payload.value());
}

Status TpmClient::NvDefineSpace(uint32_t index, size_t size, const PcrSelection& write_selection,
                                const std::map<int, Bytes>& write_pcrs, const CommandAuth& auth) {
  Result<Bytes> payload =
      Roundtrip(BuildNvDefineSpace(index, size, write_selection, write_pcrs, auth));
  return payload.ok() ? Status::Ok() : payload.status();
}

Status TpmClient::NvWrite(uint32_t index, const Bytes& data) {
  Result<Bytes> payload = Roundtrip(BuildNvWrite(index, data));
  return payload.ok() ? Status::Ok() : payload.status();
}

Result<uint32_t> TpmClient::CreateCounter(const Bytes& counter_auth, const CommandAuth& auth) {
  Result<Bytes> payload = Roundtrip(BuildCreateCounter(counter_auth, auth));
  if (!payload.ok()) {
    return payload.status();
  }
  return ParseHandlePayload(payload.value());
}

Result<uint64_t> TpmClient::IncrementCounter(uint32_t id, const Bytes& counter_auth) {
  Result<Bytes> payload = Roundtrip(BuildIncrementCounter(id, counter_auth));
  if (!payload.ok()) {
    return payload.status();
  }
  return ParseCounterPayload(payload.value());
}

Result<uint64_t> TpmClient::ReadCounter(uint32_t id) {
  Result<Bytes> payload = Roundtrip(BuildReadCounter(id));
  if (!payload.ok()) {
    return payload.status();
  }
  return ParseCounterPayload(payload.value());
}

Status TpmClient::TakeOwnership(const Bytes& owner_auth) {
  Result<Bytes> payload = Roundtrip(BuildTakeOwnership(owner_auth));
  return payload.ok() ? Status::Ok() : payload.status();
}

Result<TpmStartupReport> TpmClient::Startup(TpmStartupType type) {
  Result<Bytes> payload = Roundtrip(BuildStartup(type));
  if (!payload.ok()) {
    return payload.status();
  }
  return ParseStartupPayload(payload.value());
}

Status TpmClient::SaveState() {
  Result<Bytes> payload = Roundtrip(BuildSaveState());
  return payload.ok() ? Status::Ok() : payload.status();
}

Result<uint32_t> TpmClient::GetTestResult() {
  Result<Bytes> payload = Roundtrip(BuildGetTestResult());
  if (!payload.ok()) {
    return payload.status();
  }
  return ParseHandlePayload(payload.value());
}

}  // namespace flicker
