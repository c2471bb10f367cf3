#include "src/apps/ca.h"

#include "src/common/serde.h"
#include "src/crypto/sha1.h"
#include "src/tpm/pcr_bank.h"
#include "src/tpm/tpm_util.h"

namespace flicker {

namespace {

Bytes CaBlobAuth() {
  return Sha1::Digest(BytesOf("ca-pal-state-auth"));
}

// The PAL's cross-session state. Constant size by design: the certificate
// log itself lives with the untrusted OS, and the sealed state carries a
// rolling digest over it (db_digest_{n} = SHA1(db_digest_{n-1} || cert_n)),
// so the log can be audited against the sealed value while the sealed blob
// never outgrows the 4 KB output page.
struct CaState {
  Bytes private_key;  // Serialized RsaPrivateKey.
  uint32_t counter_id = 0;
  Bytes counter_auth;
  uint64_t next_serial = 1;
  Bytes db_digest;  // Rolling digest over every issued certificate.

  Bytes Serialize() const {
    Writer w;
    w.Blob(private_key);
    w.U32(counter_id);
    w.Blob(counter_auth);
    w.U64(next_serial);
    w.Blob(db_digest);
    return w.Take();
  }

  static Result<CaState> Deserialize(const Bytes& data) {
    Reader r(data);
    CaState state;
    state.private_key = r.Blob();
    state.counter_id = r.U32();
    state.counter_auth = r.Blob();
    state.next_serial = r.U64();
    state.db_digest = r.Blob();
    if (!r.ok() || !r.AtEnd()) {
      return InvalidArgumentError("corrupt CA state");
    }
    return state;
  }
};

// Seal the state under the current counter version (Fig. 4 Seal).
Result<Bytes> SealCaState(PalContext* context, const CaState& state, const Bytes& pcr17) {
  ReplayProtectedStorage storage(context->tpm(), state.counter_id, state.counter_auth);
  Result<SealedBlob> blob = storage.Seal(state.Serialize(), pcr17, CaBlobAuth());
  if (!blob.ok()) {
    return blob.status();
  }
  return blob.value().Serialize();
}

}  // namespace

Bytes CertificateSigningRequest::Serialize() const {
  Writer w;
  w.Str(subject);
  w.Blob(subject_public_key);
  return w.Take();
}

Result<CertificateSigningRequest> CertificateSigningRequest::Deserialize(const Bytes& data) {
  Reader r(data);
  CertificateSigningRequest csr;
  csr.subject = r.Str();
  csr.subject_public_key = r.Blob();
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("corrupt CSR");
  }
  return csr;
}

Bytes Certificate::SignedPayload() const {
  Writer w;
  w.U64(serial);
  w.Str(subject);
  w.Blob(subject_public_key);
  w.Str(issuer);
  return w.Take();
}

Bytes Certificate::Serialize() const {
  Writer w;
  w.U64(serial);
  w.Str(subject);
  w.Blob(subject_public_key);
  w.Str(issuer);
  w.Blob(signature);
  return w.Take();
}

Result<Certificate> Certificate::Deserialize(const Bytes& data) {
  Reader r(data);
  Certificate cert;
  cert.serial = r.U64();
  cert.subject = r.Str();
  cert.subject_public_key = r.Blob();
  cert.issuer = r.Str();
  cert.signature = r.Blob();
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("corrupt certificate");
  }
  return cert;
}

bool CaPolicy::Approves(const std::string& subject) const {
  for (const std::string& suffix : allowed_suffixes) {
    if (subject.size() >= suffix.size() &&
        subject.compare(subject.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return true;
    }
  }
  return false;
}

Bytes CaPolicy::Serialize() const {
  Writer w;
  w.U32(static_cast<uint32_t>(allowed_suffixes.size()));
  for (const std::string& suffix : allowed_suffixes) {
    w.Str(suffix);
  }
  return w.Take();
}

Result<CaPolicy> CaPolicy::Deserialize(const Bytes& data) {
  Reader r(data);
  CaPolicy policy;
  uint32_t count = r.U32();
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    policy.allowed_suffixes.push_back(r.Str());
  }
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("corrupt CA policy");
  }
  return policy;
}

Status CaPal::Execute(PalContext* context) {
  Reader in(context->inputs());
  uint8_t mode = in.U8();

  Result<Bytes> pcr17 = context->tpm()->PcrRead(kSkinitPcr);
  if (!pcr17.ok()) {
    return pcr17.status();
  }

  if (mode == kCaModeKeygen) {
    uint32_t counter_id = in.U32();
    Bytes counter_auth = in.Blob();
    if (!in.ok()) {
      return InvalidArgumentError("corrupt keygen inputs");
    }
    Bytes seed = context->tpm()->GetRandom(128);
    Drbg rng(seed);
    context->ChargeRsaKeygen1024();
    RsaPrivateKey key = RsaGenerateKey(1024, &rng);

    CaState state;
    state.private_key = key.Serialize();
    state.counter_id = counter_id;
    state.counter_auth = counter_auth;
    state.next_serial = 1;
    state.db_digest = Sha1::Digest(Bytes());  // Empty log.
    Result<Bytes> sealed = SealCaState(context, state, pcr17.value());
    if (!sealed.ok()) {
      return sealed.status();
    }

    Writer out;
    out.Blob(key.pub.Serialize());
    out.Blob(sealed.value());
    return context->SetOutputs(out.Take());
  }

  if (mode != kCaModeSign) {
    return InvalidArgumentError("unknown CA PAL mode");
  }

  Bytes sealed_state = in.Blob();
  Bytes csr_bytes = in.Blob();
  Bytes policy_bytes = in.Blob();
  std::string issuer = in.Str();
  if (!in.ok()) {
    return InvalidArgumentError("corrupt signing inputs");
  }

  // Peek the counter credentials: they live inside the sealed state, so
  // unseal first (plain unseal), then verify the version against the live
  // counter - the Fig. 4 Unseal check.
  Result<Bytes> payload =
      UnsealInPal(context->tpm(), SealedBlob::Deserialize(sealed_state), CaBlobAuth());
  if (!payload.ok()) {
    return payload.status();
  }
  if (payload.value().size() < 8) {
    return IntegrityFailureError("sealed CA state missing version");
  }
  uint64_t sealed_version = GetUint64(payload.value(), 0);
  Result<CaState> state =
      CaState::Deserialize(Bytes(payload.value().begin() + 8, payload.value().end()));
  if (!state.ok()) {
    return state.status();
  }
  Result<uint64_t> live_version = context->tpm()->ReadCounter(state.value().counter_id);
  if (!live_version.ok()) {
    return live_version.status();
  }
  if (sealed_version != live_version.value()) {
    return ReplayDetectedError("CA database is stale (rollback attack detected)");
  }

  Result<CertificateSigningRequest> csr = CertificateSigningRequest::Deserialize(csr_bytes);
  if (!csr.ok()) {
    return csr.status();
  }
  Result<CaPolicy> policy = CaPolicy::Deserialize(policy_bytes);
  if (!policy.ok()) {
    return policy.status();
  }
  if (!policy.value().Approves(csr.value().subject)) {
    return PermissionDeniedError("CSR rejected by access-control policy: " + csr.value().subject);
  }

  Result<RsaPrivateKey> key = RsaPrivateKey::Deserialize(state.value().private_key);
  if (!key.ok()) {
    return key.status();
  }

  Certificate cert;
  cert.serial = state.value().next_serial;
  cert.subject = csr.value().subject;
  cert.subject_public_key = csr.value().subject_public_key;
  cert.issuer = issuer;
  context->ChargeRsaSign1024();
  cert.signature = RsaSignSha1(key.value(), cert.SignedPayload());

  // Extend the sealed rolling digest over the new certificate, bump the
  // serial, and reseal. The counter increment happens inside SealCaState,
  // last, so a failed session never leaves the counter ahead of the blob.
  CaState new_state = state.take();
  new_state.next_serial = cert.serial + 1;
  Bytes cert_bytes = cert.Serialize();
  new_state.db_digest = Sha1::Digest(Concat(new_state.db_digest, cert_bytes));
  Result<Bytes> resealed = SealCaState(context, new_state, pcr17.value());
  if (!resealed.ok()) {
    return resealed.status();
  }

  Writer out;
  out.Blob(cert.Serialize());
  out.Blob(resealed.value());
  return context->SetOutputs(out.Take());
}

CertificateAuthorityHost::CertificateAuthorityHost(FlickerPlatform* platform,
                                                   const PalBinary* binary,
                                                   std::string issuer_name)
    : platform_(platform), binary_(binary), issuer_(std::move(issuer_name)) {}

Result<Bytes> CertificateAuthorityHost::Initialize(const Bytes& owner_secret) {
  counter_auth_ = Sha1::Digest(BytesOf("ca-replay-counter-auth"));
  Result<uint32_t> counter =
      TpmCreateCounter(platform_->tpm(), counter_auth_, owner_secret);
  if (!counter.ok()) {
    return counter.status();
  }
  counter_id_ = counter.value();

  Writer in;
  in.U8(kCaModeKeygen);
  in.U32(counter_id_);
  in.Blob(counter_auth_);
  Result<FlickerSessionResult> session = platform_->ExecuteSession(*binary_, in.Take());
  if (!session.ok()) {
    return session.status();
  }
  if (!session.value().ok()) {
    return session.value().record.pal_status;
  }

  Reader out(session.value().outputs());
  ca_public_key_ = out.Blob();
  sealed_state_ = out.Blob();
  if (!out.ok()) {
    return InternalError("keygen session produced corrupt outputs");
  }
  return ca_public_key_;
}

CertificateAuthorityHost::SignReport CertificateAuthorityHost::SignCertificate(
    const CertificateSigningRequest& csr, const CaPolicy& policy) {
  SignReport report;
  if (sealed_state_.empty()) {
    report.status = FailedPreconditionError("CA not initialized");
    return report;
  }
  Writer in;
  in.U8(kCaModeSign);
  in.Blob(sealed_state_);
  in.Blob(csr.Serialize());
  in.Blob(policy.Serialize());
  in.Str(issuer_);
  Result<FlickerSessionResult> session = platform_->ExecuteSession(*binary_, in.Take());
  if (!session.ok()) {
    report.status = session.status();
    return report;
  }
  report.session_ms = session.value().session_total_ms;
  if (!session.value().ok()) {
    report.status = session.value().record.pal_status;
    return report;
  }

  Reader out(session.value().outputs());
  Bytes cert_bytes = out.Blob();
  Bytes new_sealed = out.Blob();
  if (!out.ok()) {
    report.status = InternalError("signing session produced corrupt outputs");
    return report;
  }
  sealed_state_ = new_sealed;
  Result<Certificate> cert = Certificate::Deserialize(cert_bytes);
  if (!cert.ok()) {
    report.status = cert.status();
    return report;
  }
  report.certificate = cert.take();
  issued_log_.push_back(report.certificate);
  report.status = Status::Ok();
  return report;
}

Bytes CertificateAuthorityHost::ComputeLogDigest(const std::vector<Certificate>& log) {
  Bytes digest = Sha1::Digest(Bytes());
  for (const Certificate& cert : log) {
    digest = Sha1::Digest(Concat(digest, cert.Serialize()));
  }
  return digest;
}

bool CertificateAuthorityHost::VerifyCertificate(const Bytes& ca_public_key,
                                                 const Certificate& certificate) {
  Result<RsaPublicKey> key = RsaPublicKey::Deserialize(ca_public_key);
  if (!key.ok()) {
    return false;
  }
  return RsaVerifySha1(key.value(), certificate.SignedPayload(), certificate.signature);
}

}  // namespace flicker
