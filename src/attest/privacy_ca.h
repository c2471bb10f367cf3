// Privacy CA: certifies that an AIK was generated by a legitimate TPM
// (paper §2.1). The verifier trusts the Privacy CA's public key and checks
// the certificate chain before trusting any quote signature.

#ifndef FLICKER_SRC_ATTEST_PRIVACY_CA_H_
#define FLICKER_SRC_ATTEST_PRIVACY_CA_H_

#include <string>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/rsa.h"

namespace flicker {

struct AikCertificate {
  Bytes aik_public;       // Serialized RsaPublicKey.
  std::string tpm_label;  // Which platform this AIK belongs to.
  Bytes signature;        // Privacy CA signature over (aik_public || label).

  Bytes SignedPayload() const;
};

class PrivacyCa {
 public:
  explicit PrivacyCa(uint64_t seed = 0xca);

  const RsaPublicKey& public_key() const { return key_.pub; }

  // Issues a certificate for an AIK. A real Privacy CA would verify an EK
  // credential first; the simulator trusts the caller to hand it a genuine
  // TPM's AIK (the protocol being reproduced starts after enrollment).
  // Only reads the CA key, so threads may certify concurrently.
  AikCertificate Certify(const RsaPublicKey& aik_public, const std::string& tpm_label) const;

  static bool Verify(const RsaPublicKey& ca_public, const AikCertificate& certificate);

 private:
  RsaPrivateKey key_;
  Drbg rng_;
};

}  // namespace flicker

#endif  // FLICKER_SRC_ATTEST_PRIVACY_CA_H_
