#include "src/apps/distributed.h"

#include "src/common/serde.h"
#include "src/core/remote_attestation.h"
#include "src/core/sealed_state.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha1.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {

namespace {

// The blob auth protecting the sealed HMAC key. Knowledge of it is not what
// protects the key - the PCR 17 binding is - so a fixed value is fine (the
// paper's implementation does the same with the well-known secret).
Bytes StateKeyAuth() {
  return Sha1::Digest(BytesOf("boinc-state-key-auth"));
}

}  // namespace

Bytes FactorWorkUnit::Serialize() const {
  Writer w;
  w.U64(composite);
  w.U64(search_limit);
  return w.Take();
}

Bytes FactorState::Serialize() const {
  Writer w;
  w.U64(next_divisor);
  w.U32(static_cast<uint32_t>(found.size()));
  for (uint64_t d : found) {
    w.U64(d);
  }
  return w.Take();
}

Result<FactorState> FactorState::Deserialize(const Bytes& data) {
  Reader r(data);
  FactorState state;
  state.next_divisor = r.U64();
  uint32_t count = r.U32();
  // A 12-byte header, then 8 bytes per factor. Checking the count against
  // the frame length before sizing the vector keeps a hostile count from
  // driving the allocation.
  if (!r.ok() || data.size() != 12 + size_t{count} * 8) {
    return InvalidArgumentError("corrupt factor state");
  }
  state.found.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    state.found.push_back(r.U64());
  }
  return state;
}

Status DistributedPal::Execute(PalContext* context) {
  Reader in(context->inputs());
  uint8_t mode = in.U8();

  if (mode == kDistributedModeInit) {
    // First invocation: generate the 160-bit symmetric key from TPM
    // randomness and seal it so only this PAL can read it (§6.2).
    Bytes key = context->tpm()->GetRandom(20);
    Result<Bytes> pcr17 = context->tpm()->PcrRead(kSkinitPcr);
    if (!pcr17.ok()) {
      return pcr17.status();
    }
    Result<SealedBlob> sealed = SealForPal(context->tpm(), key, pcr17.value(), StateKeyAuth());
    SecureErase(&key);
    if (!sealed.ok()) {
      return sealed.status();
    }
    Writer out;
    out.Blob(sealed.value().Serialize());
    return context->SetOutputs(out.Take());
  }

  if (mode != kDistributedModeWork) {
    return InvalidArgumentError("unknown distributed PAL mode");
  }

  Bytes sealed_key = in.Blob();
  Bytes state_bytes = in.Blob();
  Bytes state_mac = in.Blob();
  uint64_t composite = in.U64();
  uint64_t search_limit = in.U64();
  uint64_t slice_divisors = in.U64();
  if (!in.ok()) {
    return InvalidArgumentError("corrupt work-session inputs");
  }

  // Unseal the MAC key (the dominant overhead, Table 4).
  Result<Bytes> key = UnsealInPal(context->tpm(), SealedBlob::Deserialize(sealed_key),
                                  StateKeyAuth());
  if (!key.ok()) {
    return key.status();
  }

  FactorState state;
  if (state_bytes.empty() && state_mac.empty()) {
    // Fresh work unit.
    state.next_divisor = 2;
  } else {
    if (!HmacSha1Verify(key.value(), state_bytes, state_mac)) {
      return IntegrityFailureError("checkpointed state MAC mismatch (OS tampering?)");
    }
    Result<FactorState> parsed = FactorState::Deserialize(state_bytes);
    if (!parsed.ok()) {
      return parsed.status();
    }
    state = parsed.take();
  }

  // Application work: trial division for up to `slice_divisors` candidates.
  uint64_t tested = 0;
  while (state.next_divisor < search_limit && tested < slice_divisors) {
    if (composite % state.next_divisor == 0) {
      state.found.push_back(state.next_divisor);
    }
    ++state.next_divisor;
    ++tested;
  }
  context->ChargeDivisorTests(tested);

  bool done = state.next_divisor >= search_limit;
  Writer out;
  out.U8(done ? 1 : 0);
  if (done) {
    // Extend the result into PCR 17 so the attestation covers it (§6.2).
    Bytes result = state.Serialize();
    FLICKER_RETURN_IF_ERROR(context->tpm()->PcrExtend(kSkinitPcr, Sha1::Digest(result)));
    out.Blob(result);
  } else {
    Bytes new_state = state.Serialize();
    Bytes new_mac = HmacSha1(key.value(), new_state);
    out.Blob(new_state);
    out.Blob(new_mac);
  }
  return context->SetOutputs(out.Take());
}

BoincClient::BoincClient(FlickerPlatform* platform, const PalBinary* binary)
    : platform_(platform), binary_(binary) {}

Status BoincClient::Initialize() {
  Writer in;
  in.U8(kDistributedModeInit);
  Result<FlickerSessionResult> session = platform_->ExecuteSession(*binary_, in.Take());
  if (!session.ok()) {
    return session.status();
  }
  if (!session.value().ok()) {
    return session.value().record.pal_status;
  }
  Reader out(session.value().outputs());
  sealed_key_ = out.Blob();
  if (!out.ok() || sealed_key_.empty()) {
    return InternalError("init session produced no sealed key");
  }
  return Status::Ok();
}

BoincClient::RunStats BoincClient::Process(const FactorWorkUnit& unit, double slice_ms,
                                           const Bytes& nonce) {
  RunStats stats;
  if (sealed_key_.empty()) {
    stats.status = FailedPreconditionError("client not initialized");
    return stats;
  }
  const double divisors_per_ms = platform_->machine()->timing().cpu.divisor_tests_per_ms;
  const uint64_t slice_divisors = static_cast<uint64_t>(slice_ms * divisors_per_ms);

  Bytes state_bytes;
  Bytes state_mac;
  SimStopwatch total(platform_->clock());
  for (;;) {
    Writer in;
    in.U8(kDistributedModeWork);
    in.Blob(sealed_key_);
    in.Blob(state_bytes);
    in.Blob(state_mac);
    in.U64(unit.composite);
    in.U64(unit.search_limit);
    in.U64(slice_divisors);
    Bytes inputs = in.Take();

    // Each session extends the nonce; only the final session's PCR 17
    // survives to be quoted, so the attestation covers exactly the final
    // slice plus the result it extended.
    SlbCoreOptions options;
    options.nonce = nonce;
    Result<FlickerSessionResult> session = platform_->ExecuteSession(*binary_, inputs, options);
    if (!session.ok()) {
      stats.status = session.status();
      return stats;
    }
    if (!session.value().ok()) {
      stats.status = session.value().record.pal_status;
      return stats;
    }
    ++stats.sessions;

    Reader out(session.value().outputs());
    uint8_t done = out.U8();
    if (done == 1) {
      Bytes result = out.Blob();
      Result<FactorState> state = FactorState::Deserialize(result);
      if (!state.ok()) {
        stats.status = state.status();
        return stats;
      }
      stats.divisors = state.value().found;
      stats.final_outputs = session.value().outputs();
      last_final_inputs_ = inputs;
      last_final_outputs_ = session.value().outputs();
      break;
    }
    state_bytes = out.Blob();
    state_mac = out.Blob();
    if (!out.ok()) {
      stats.status = InternalError("work session produced corrupt outputs");
      return stats;
    }
    // Between sessions the OS runs (multitasking, §6.2); model a brief
    // window matching the paper's §7.5 measurement (~37 ms).
    platform_->scheduler()->RunFor(37.0);
  }
  stats.total_ms = total.ElapsedMillis();
  // Useful work: candidates actually tested / throughput.
  double total_candidates = static_cast<double>(unit.search_limit - 2);
  stats.work_ms = total_candidates / divisors_per_ms;
  stats.overhead_ms = stats.total_ms - stats.work_ms;
  stats.status = Status::Ok();
  return stats;
}

Result<BoincClient::ResultSubmission> BoincClient::SubmitResult(const Bytes& nonce) {
  if (last_final_outputs_.empty()) {
    return FailedPreconditionError("no completed work unit to submit");
  }
  Result<AttestationResponse> attestation =
      platform_->tqd()->HandleChallenge(nonce, PcrSelection({kSkinitPcr}));
  if (!attestation.ok()) {
    return attestation.status();
  }
  ResultSubmission submission;
  submission.final_inputs = last_final_inputs_;
  submission.final_outputs = last_final_outputs_;
  submission.attestation = attestation.take();
  return submission;
}

BoincServer::BoincServer(uint64_t seed) : rng_(seed) {}

Result<std::vector<uint64_t>> BoincServer::VerifyResult(
    const PalBinary& binary, const BoincClient::ResultSubmission& submission,
    const AikCertificate& client_aik_cert, const RsaPublicKey& privacy_ca_public,
    const Bytes& nonce) {
  // Parse the claimed result from the final outputs.
  Reader out(submission.final_outputs);
  if (out.U8() != 1) {
    return InvalidArgumentError("submission does not carry a completed result");
  }
  Bytes result = out.Blob();
  if (!out.ok()) {
    return InvalidArgumentError("corrupt result submission");
  }

  // Reconstruct the final session's PCR 17 chain: the PAL extended H(result)
  // before the SLB core's closing extends.
  SessionExpectation expectation;
  expectation.binary = &binary;
  expectation.inputs = submission.final_inputs;
  expectation.outputs = submission.final_outputs;
  expectation.nonce = nonce;
  expectation.pal_extends = {Sha1::Digest(result)};
  FLICKER_RETURN_IF_ERROR(VerifyAttestation(expectation, submission.attestation,
                                            client_aik_cert, privacy_ca_public, nonce));

  Result<FactorState> state = FactorState::Deserialize(result);
  if (!state.ok()) {
    return state.status();
  }
  return state.value().found;
}

FactorWorkUnit BoincServer::CreateWorkUnit(uint64_t composite) {
  FactorWorkUnit unit;
  unit.composite = composite;
  // Naive approach from the paper: test a range of candidate divisors.
  unit.search_limit = 1 << 20;
  return unit;
}

std::vector<uint64_t> BoincServer::ReferenceFactors(const FactorWorkUnit& unit) {
  std::vector<uint64_t> out;
  for (uint64_t d = 2; d < unit.search_limit; ++d) {
    if (unit.composite % d == 0) {
      out.push_back(d);
    }
  }
  return out;
}

Bytes BoincClient::ResultSubmission::Serialize() const {
  Writer w;
  w.Blob(final_inputs);
  w.Blob(final_outputs);
  w.Blob(SerializeAttestationResponse(attestation));
  return w.Take();
}

Result<BoincClient::ResultSubmission> BoincClient::ResultSubmission::Deserialize(
    const Bytes& data) {
  if (data.size() > kMaxSubmissionFrameBytes) {
    return InvalidArgumentError("submission frame exceeds wire bound");
  }
  Reader r(data);
  ResultSubmission submission;
  submission.final_inputs = r.Blob();
  submission.final_outputs = r.Blob();
  Bytes attestation_wire = r.Blob();
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("corrupt submission frame");
  }
  Result<AttestationResponse> attestation = DeserializeAttestationResponse(attestation_wire);
  if (!attestation.ok()) {
    return attestation.status();
  }
  submission.attestation = attestation.take();
  return submission;
}

Result<Bytes> BoincServer::HandleSubmissionFrame(const PalBinary& binary, const Bytes& frame,
                                                 const AikCertificate& client_aik_cert,
                                                 const RsaPublicKey& privacy_ca_public,
                                                 const Bytes& nonce) {
  Result<BoincClient::ResultSubmission> submission =
      BoincClient::ResultSubmission::Deserialize(frame);
  if (!submission.ok()) {
    return submission.status();
  }
  Result<std::vector<uint64_t>> divisors =
      VerifyResult(binary, submission.value(), client_aik_cert, privacy_ca_public, nonce);
  if (!divisors.ok()) {
    return divisors.status();
  }
  Writer w;
  w.U32(static_cast<uint32_t>(divisors.value().size()));
  for (uint64_t d : divisors.value()) {
    w.U64(d);
  }
  return w.Take();
}

}  // namespace flicker
