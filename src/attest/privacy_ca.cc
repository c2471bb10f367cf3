#include "src/attest/privacy_ca.h"

namespace flicker {

Bytes AikCertificate::SignedPayload() const {
  Bytes payload = aik_public;
  Bytes label = BytesOf(tpm_label);
  PutUint32(&payload, static_cast<uint32_t>(label.size()));
  payload.insert(payload.end(), label.begin(), label.end());
  return payload;
}

PrivacyCa::PrivacyCa(uint64_t seed) : rng_(seed) {
  key_ = RsaGenerateKey(1024, &rng_);
}

AikCertificate PrivacyCa::Certify(const RsaPublicKey& aik_public,
                                  const std::string& tpm_label) const {
  AikCertificate cert;
  cert.aik_public = aik_public.Serialize();
  cert.tpm_label = tpm_label;
  cert.signature = RsaSignSha1(key_, cert.SignedPayload());
  return cert;
}

bool PrivacyCa::Verify(const RsaPublicKey& ca_public, const AikCertificate& certificate) {
  return RsaVerifySha1(ca_public, certificate.SignedPayload(), certificate.signature);
}

}  // namespace flicker
