#include "src/core/remote_attestation.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

#include "src/common/serde.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {

namespace {

// Answered nonces the service remembers for replay refusal.
constexpr size_t kNonceCacheCapacity = 128;

// The one decoder for a wire PCR-selection mask. A bit at or above
// kNumPcrs names a PCR that does not exist: the frame is hostile or
// garbled, so it is refused rather than silently narrowed to the bits that
// happen to be valid.
Result<PcrSelection> DecodePcrMask(uint32_t mask) {
  static_assert(kNumPcrs < 32, "the wire mask is one 32-bit word");
  if ((mask >> kNumPcrs) != 0) {
    return InvalidArgumentError("PCR selection names a PCR that does not exist");
  }
  PcrSelection selection;
  for (int i = 0; i < kNumPcrs; ++i) {
    if ((mask >> i) & 1) {
      selection.Select(i);
    }
  }
  return selection;
}

}  // namespace

Bytes SerializeQuote(const TpmQuote& quote) {
  Writer w;
  w.U32(quote.selection.mask());
  w.U32(static_cast<uint32_t>(quote.pcr_values.size()));
  for (const Bytes& value : quote.pcr_values) {
    w.Blob(value);
  }
  w.Blob(quote.nonce);
  w.Blob(quote.signature);
  return w.Take();
}

Result<TpmQuote> DeserializeQuote(const Bytes& data) {
  Reader r(data);
  TpmQuote quote;
  Result<PcrSelection> selection = DecodePcrMask(r.U32());
  if (!selection.ok()) {
    return selection.status();
  }
  quote.selection = selection.value();
  uint32_t count = r.U32();
  if (count > static_cast<uint32_t>(kNumPcrs)) {
    return InvalidArgumentError("quote claims more PCR values than PCRs exist");
  }
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    quote.pcr_values.push_back(r.Blob());
  }
  quote.nonce = r.Blob();
  quote.signature = r.Blob();
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("corrupt quote serialization");
  }
  return quote;
}

Bytes SerializeAttestationResponse(const AttestationResponse& response) {
  Writer w;
  w.Blob(SerializeQuote(response.quote));
  w.Blob(response.aik_public);
  return w.Take();
}

Result<AttestationResponse> DeserializeAttestationResponse(const Bytes& data) {
  if (data.size() > kMaxReplyWireBytes) {
    return InvalidArgumentError("attestation response exceeds wire bound");
  }
  Reader r(data);
  Bytes quote_wire = r.Blob();
  Bytes aik_public = r.Blob();
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("corrupt attestation response");
  }
  Result<TpmQuote> quote = DeserializeQuote(quote_wire);
  if (!quote.ok()) {
    return quote.status();
  }
  AttestationResponse response;
  response.quote = quote.take();
  response.aik_public = aik_public;
  return response;
}

Bytes SerializeBatchQuoteResponse(const BatchQuoteResponse& response) {
  Writer w;
  w.Blob(response.nonce);
  w.Blob(SerializeAttestationResponse(response.response));
  w.Blob(response.path.Serialize());
  return w.Take();
}

Result<BatchQuoteResponse> DeserializeBatchQuoteResponse(const Bytes& data) {
  if (data.size() > kMaxReplyWireBytes) {
    return InvalidArgumentError("batch quote response exceeds wire bound");
  }
  Reader r(data);
  Bytes nonce = r.Blob();
  Bytes response_wire = r.Blob();
  Bytes path_wire = r.Blob();
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("corrupt batch quote response");
  }
  if (nonce.size() > kMaxNonceBytes) {
    return InvalidArgumentError("batch quote nonce exceeds wire bound");
  }
  Result<AttestationResponse> inner = DeserializeAttestationResponse(response_wire);
  if (!inner.ok()) {
    return inner.status();
  }
  Result<MerkleAuthPath> path = MerkleAuthPath::Deserialize(path_wire);
  if (!path.ok()) {
    return path.status();
  }
  BatchQuoteResponse response;
  response.nonce = std::move(nonce);
  response.response = inner.take();
  response.path = path.take();
  return response;
}

Bytes SerializeAikCertificate(const AikCertificate& certificate) {
  Writer w;
  w.Blob(certificate.aik_public);
  w.Str(certificate.tpm_label);
  w.Blob(certificate.signature);
  return w.Take();
}

Result<AikCertificate> DeserializeAikCertificate(const Bytes& data) {
  Reader r(data);
  AikCertificate certificate;
  certificate.aik_public = r.Blob();
  certificate.tpm_label = r.Str();
  certificate.signature = r.Blob();
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("corrupt AIK certificate serialization");
  }
  return certificate;
}

Bytes AttestationChallenge::Serialize() const {
  Writer w;
  w.Blob(nonce);
  w.U32(selection.mask());
  return w.Take();
}

Result<AttestationChallenge> AttestationChallenge::Deserialize(const Bytes& data) {
  Reader r(data);
  AttestationChallenge challenge;
  challenge.nonce = r.Blob();
  Result<PcrSelection> selection = DecodePcrMask(r.U32());
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("corrupt attestation challenge");
  }
  if (!selection.ok()) {
    return selection.status();
  }
  challenge.selection = selection.value();
  return challenge;
}

Bytes AttestationReply::Serialize() const {
  Writer w;
  w.Blob(log.Serialize());
  w.Blob(SerializeQuote(quote));
  w.Blob(aik_public);
  w.Blob(SerializeAikCertificate(aik_certificate));
  return w.Take();
}

Result<AttestationReply> AttestationReply::Deserialize(const Bytes& data) {
  if (data.size() > kMaxReplyWireBytes) {
    return InvalidArgumentError("attestation reply exceeds wire bound");
  }
  Reader r(data);
  Bytes log_wire = r.Blob();
  Bytes quote_wire = r.Blob();
  Bytes aik_public = r.Blob();
  Bytes cert_wire = r.Blob();
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("corrupt attestation reply");
  }
  Result<FlickerEventLog> log = FlickerEventLog::Deserialize(log_wire);
  if (!log.ok()) {
    return log.status();
  }
  Result<TpmQuote> quote = DeserializeQuote(quote_wire);
  if (!quote.ok()) {
    return quote.status();
  }
  Result<AikCertificate> certificate = DeserializeAikCertificate(cert_wire);
  if (!certificate.ok()) {
    return certificate.status();
  }
  AttestationReply reply;
  reply.log = log.take();
  reply.quote = quote.take();
  reply.aik_public = aik_public;
  reply.aik_certificate = certificate.take();
  return reply;
}

AttestationService::AttestationService(FlickerPlatform* platform, AikCertificate aik_certificate)
    : platform_(platform), aik_certificate_(std::move(aik_certificate)) {}

bool AttestationService::NonceSeen(const Bytes& nonce) const {
  for (const Bytes& seen : answered_nonces_) {
    if (seen == nonce) {
      return true;
    }
  }
  return false;
}

void AttestationService::RememberNonce(const Bytes& nonce) {
  if (answered_nonces_.size() < kNonceCacheCapacity) {
    answered_nonces_.push_back(nonce);
    return;
  }
  answered_nonces_[answered_next_] = nonce;
  answered_next_ = (answered_next_ + 1) % kNonceCacheCapacity;
}

Result<Bytes> AttestationService::HandleChallenge(const Bytes& challenge_wire,
                                                  const PalBinary& binary, const Bytes& inputs,
                                                  const std::vector<Bytes>& pal_extends) {
  obs::ScopedSpan challenge_span("attest", "attest.handle_challenge");
  obs::Count(obs::Ctr::kAttestChallengesHandled);
  if (challenge_wire.size() > kMaxChallengeWireBytes) {
    return InvalidArgumentError("challenge exceeds wire bound");
  }
  Result<AttestationChallenge> challenge = AttestationChallenge::Deserialize(challenge_wire);
  if (!challenge.ok()) {
    return challenge.status();
  }
  if (challenge.value().nonce.empty() || challenge.value().nonce.size() > kMaxNonceBytes) {
    return InvalidArgumentError("challenge nonce size out of bounds");
  }
  if (NonceSeen(challenge.value().nonce)) {
    ++replays_rejected_;
    obs::Count(obs::Ctr::kAttestReplaysRejected);
    obs::Instant("attest", "attest.replay_rejected");
    return ReplayDetectedError("challenge nonce already answered");
  }

  SlbCoreOptions options;
  options.nonce = challenge.value().nonce;
  Result<FlickerSessionResult> session = platform_->ExecuteSession(binary, inputs, options);
  if (!session.ok()) {
    return session.status();
  }
  if (!session.value().ok()) {
    return session.value().record.pal_status;
  }

  Result<AttestationResponse> response =
      platform_->tqd()->HandleChallenge(challenge.value().nonce, challenge.value().selection);
  if (!response.ok()) {
    return response.status();
  }

  AttestationReply reply;
  reply.log.pal_name = binary.pal->name();
  reply.log.claimed_measurement = binary.identity();
  reply.log.inputs = inputs;
  reply.log.outputs = session.value().outputs();
  reply.log.nonce = challenge.value().nonce;
  reply.log.pal_extends = pal_extends;
  reply.quote = response.value().quote;
  reply.aik_public = response.value().aik_public;
  reply.aik_certificate = aik_certificate_;
  // Only successfully-answered nonces enter the cache: a challenge that
  // failed (e.g. mid-session fault) may legitimately be retried verbatim.
  RememberNonce(challenge.value().nonce);
  return reply.Serialize();
}

AttestationVerifier::AttestationVerifier(const PalBinary* binary, RsaPublicKey privacy_ca_public,
                                         LateLaunchTech tech, uint64_t nonce_seed)
    : binary_(binary),
      privacy_ca_public_(std::move(privacy_ca_public)),
      tech_(tech),
      nonce_rng_(nonce_seed) {}

Bytes AttestationVerifier::MakeChallenge() {
  AttestationChallenge challenge;
  challenge.nonce = nonce_rng_.Generate(kPcrSize);
  challenge.selection.Select(kSkinitPcr);
  pending_nonce_ = challenge.nonce;
  return challenge.Serialize();
}

AttestationVerifier::Outcome AttestationVerifier::CheckReply(const Bytes& reply_wire) {
  Outcome outcome;
  if (pending_nonce_.empty()) {
    outcome.status = FailedPreconditionError("no outstanding challenge");
    return outcome;
  }
  Result<AttestationReply> reply = AttestationReply::Deserialize(reply_wire);
  if (!reply.ok()) {
    outcome.status = reply.status();
    return outcome;  // Wire noise, not a reply: the challenge stays open.
  }
  // Any well-formed reply consumes the outstanding nonce, accepted or not:
  // single use, fail closed. A rejected reply forces a fresh challenge
  // rather than leaving the old nonce alive for an attacker's second try.
  const Bytes expected = pending_nonce_;
  pending_nonce_.clear();

  Result<SessionExpectation> expectation = ExpectationFromLog(reply.value().log, *binary_, tech_);
  if (!expectation.ok()) {
    outcome.status = expectation.status();
    return outcome;
  }
  // The log's nonce must be the one we issued (the quote check would also
  // catch this, but fail early with a precise error). The test-only
  // vulnerable mode skips this and trusts whatever nonce the wire claims.
  if (!trust_wire_nonce_ && reply.value().log.nonce != expected) {
    outcome.status = ReplayDetectedError("reply log carries a different nonce");
    return outcome;
  }

  AttestationResponse response;
  response.quote = reply.value().quote;
  response.aik_public = reply.value().aik_public;
  const Bytes& expected_nonce = trust_wire_nonce_ ? reply.value().log.nonce : expected;
  outcome.status = VerifyAttestation(expectation.value(), response,
                                     reply.value().aik_certificate, privacy_ca_public_,
                                     expected_nonce);
  if (outcome.status.ok()) {
    outcome.log = reply.value().log;
  }
  return outcome;
}

}  // namespace flicker
