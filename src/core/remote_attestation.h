// Wire-level remote attestation (paper §4.4.1): the challenge/response
// protocol between a verifier and a Flicker platform, with full
// serialization so both ends exchange only byte strings over a
// LossyChannel.
//
//   verifier                         challenged platform
//     |--- AttestationChallenge --------->|   (nonce, PCR selection)
//     |                                   | run PAL session w/ nonce
//     |<-- AttestationReply --------------|   (event log, quote, AIK cert)
//     | verify cert chain, quote sig,     |
//     | PCR 17 chain vs own PAL build     |
//
// RootkitMonitor, the SSH client and the BOINC server are applications of
// this pattern; this module packages it as a reusable API.

#ifndef FLICKER_SRC_CORE_REMOTE_ATTESTATION_H_
#define FLICKER_SRC_CORE_REMOTE_ATTESTATION_H_

#include "src/attest/event_log.h"
#include "src/attest/privacy_ca.h"
#include "src/attest/verifier.h"
#include "src/core/flicker_platform.h"
#include "src/net/lossy_channel.h"

namespace flicker {

// Wire-size bounds: every inbound frame is hostile until proven otherwise,
// so deserializers refuse anything outside these envelopes before parsing.
inline constexpr size_t kMaxChallengeWireBytes = 4096;
inline constexpr size_t kMaxReplyWireBytes = 1u << 20;
inline constexpr size_t kMaxNonceBytes = 64;

// Serialization for the TPM structures that cross the wire.
Bytes SerializeQuote(const TpmQuote& quote);
Result<TpmQuote> DeserializeQuote(const Bytes& data);
Bytes SerializeAikCertificate(const AikCertificate& certificate);
Result<AikCertificate> DeserializeAikCertificate(const Bytes& data);
// The tqd's quote+AIK bundle, for protocols (e.g. BOINC submissions) that
// ship it inside their own frames.
Bytes SerializeAttestationResponse(const AttestationResponse& response);
Result<AttestationResponse> DeserializeAttestationResponse(const Bytes& data);
// One challenger's slice of a batch quote: nonce, shared quote+AIK bundle,
// Merkle auth path (DESIGN.md §12 documents the frame layout).
Bytes SerializeBatchQuoteResponse(const BatchQuoteResponse& response);
Result<BatchQuoteResponse> DeserializeBatchQuoteResponse(const Bytes& data);

struct AttestationChallenge {
  Bytes nonce;
  PcrSelection selection;

  Bytes Serialize() const;
  static Result<AttestationChallenge> Deserialize(const Bytes& data);
};

struct AttestationReply {
  FlickerEventLog log;   // Untrusted session claims.
  TpmQuote quote;        // TPM-signed PCR state.
  Bytes aik_public;      // Serialized AIK public key.
  AikCertificate aik_certificate;

  Bytes Serialize() const;
  static Result<AttestationReply> Deserialize(const Bytes& data);
};

// Host side: runs `binary` with `inputs` under the challenge's nonce, then
// assembles the full reply (session I/O in the event log, fresh quote, the
// platform's AIK certificate). `pal_extends` lists measurements the PAL
// extends itself (application-specific; e.g. the rootkit detector's kernel
// hash equals its outputs).
//
// Every inbound challenge is hostile: the wire is length-bounded, the nonce
// size-checked, and duplicates (a replayed or wire-duplicated challenge
// frame) answered with kReplayDetected exactly once each.
class AttestationService {
 public:
  AttestationService(FlickerPlatform* platform, AikCertificate aik_certificate);

  Result<Bytes> HandleChallenge(const Bytes& challenge_wire, const PalBinary& binary,
                                const Bytes& inputs,
                                const std::vector<Bytes>& pal_extends = {});

  uint64_t replays_rejected() const { return replays_rejected_; }

 private:
  bool NonceSeen(const Bytes& nonce) const;
  void RememberNonce(const Bytes& nonce);

  FlickerPlatform* platform_;
  AikCertificate aik_certificate_;
  // At-most-once challenge handling: a nonce the service already answered
  // is refused (kReplayDetected) instead of burning another PAL session.
  std::vector<Bytes> answered_nonces_;  // FIFO ring, kNonceCacheCapacity deep.
  size_t answered_next_ = 0;
  uint64_t replays_rejected_ = 0;
};

// Verifier side: issues challenges and checks replies against its own
// (authoritative) copy of the PAL binary. A reply is accepted only when its
// nonce matches the outstanding challenge - anything stale, replayed or
// forged fails closed.
class AttestationVerifier {
 public:
  AttestationVerifier(const PalBinary* binary, RsaPublicKey privacy_ca_public,
                      LateLaunchTech tech = LateLaunchTech::kAmdSvm, uint64_t nonce_seed = 0xa77);

  // Builds a fresh challenge; remembers the nonce for the next CheckReply.
  Bytes MakeChallenge();

  struct Outcome {
    Status status;       // OK iff everything verified.
    FlickerEventLog log; // The (now-trustworthy) session facts.
  };
  Outcome CheckReply(const Bytes& reply_wire);

  // DELIBERATELY VULNERABLE mode for negative chaos tests: verify against
  // whatever nonce the reply itself claims instead of the outstanding
  // challenge. A replayed old-but-genuine reply then verifies "fine" - the
  // chaos matrix must catch this variant accepting stale answers.
  void set_trust_wire_nonce_for_testing(bool trust) { trust_wire_nonce_ = trust; }

 private:
  const PalBinary* binary_;
  RsaPublicKey privacy_ca_public_;
  LateLaunchTech tech_;
  Drbg nonce_rng_;
  Bytes pending_nonce_;
  bool trust_wire_nonce_ = false;
};

}  // namespace flicker

#endif  // FLICKER_SRC_CORE_REMOTE_ATTESTATION_H_
