// Flicker-protected Certificate Authority (paper §6.3.2).
//
// The CA's private signing key only ever exists in cleartext inside a
// Flicker session. Session 1 generates the 1024-bit keypair from TPM
// randomness and seals {private key, empty certificate database, counter
// credentials} to the PAL. Each signing session unseals the state, applies
// the administrator's access-control policy to the CSR, signs, appends to
// the database, and reseals under a fresh monotonic-counter version so the
// OS cannot roll the database back (§4.3.2).

#ifndef FLICKER_SRC_APPS_CA_H_
#define FLICKER_SRC_APPS_CA_H_

#include <string>
#include <vector>

#include "src/core/flicker_platform.h"
#include "src/core/sealed_state.h"
#include "src/crypto/rsa.h"
#include "src/slb/pal.h"

namespace flicker {

inline constexpr uint8_t kCaModeKeygen = 0;
inline constexpr uint8_t kCaModeSign = 1;

struct CertificateSigningRequest {
  std::string subject;       // e.g. "www.example.com".
  Bytes subject_public_key;  // Serialized RsaPublicKey.

  Bytes Serialize() const;
  static Result<CertificateSigningRequest> Deserialize(const Bytes& data);
};

struct Certificate {
  uint64_t serial = 0;
  std::string subject;
  Bytes subject_public_key;
  std::string issuer;
  Bytes signature;  // CA signature over (serial || subject || key || issuer).

  Bytes SignedPayload() const;
  Bytes Serialize() const;
  static Result<Certificate> Deserialize(const Bytes& data);
};

// The most suffixes a policy may list: an administrator's allow-list of
// domains, not a database. Deserialize refuses a larger count before it
// allocates anything.
inline constexpr uint32_t kMaxCaPolicySuffixes = 64;

// The administrator-supplied policy: a CSR is approved iff its subject ends
// with one of the allowed suffixes. The policy travels as (attested) session
// input, so a verifier can confirm which policy gated each signature.
struct CaPolicy {
  std::vector<std::string> allowed_suffixes;

  bool Approves(const std::string& subject) const;
  Bytes Serialize() const;
  static Result<CaPolicy> Deserialize(const Bytes& data);
};

class CaPal : public Pal {
 public:
  std::string name() const override { return "certificate-authority"; }
  // No Memory Management module: the CA uses statically allocated buffers,
  // the diet §5.2 recommends, keeping the SLB under the 60 KB code limit.
  std::vector<std::string> required_modules() const override {
    return {kModuleTpmDriver, kModuleTpmUtilities, kModuleCrypto};
  }
  std::vector<std::string> required_symbols() const override {
    return {"rsa_keygen", "rsa_sign", "tpm_seal", "tpm_unseal", "tpm_counter_increment"};
  }
  size_t app_code_bytes() const override { return 3100; }
  int app_lines_of_code() const override { return 240; }

  Status Execute(PalContext* context) override;
};

// Host-side orchestration: runs the keygen and signing sessions, stores the
// sealed state blob between them (untrusted storage, per the threat model).
class CertificateAuthorityHost {
 public:
  CertificateAuthorityHost(FlickerPlatform* platform, const PalBinary* binary,
                           std::string issuer_name);

  // Creates the replay-protection counter (owner-authorized) and runs the
  // keygen session. Returns the CA public key.
  Result<Bytes> Initialize(const Bytes& owner_secret);

  struct SignReport {
    Status status;
    Certificate certificate;
    double session_ms = 0;
  };
  SignReport SignCertificate(const CertificateSigningRequest& csr, const CaPolicy& policy);

  const Bytes& ca_public_key() const { return ca_public_key_; }
  const Bytes& sealed_state() const { return sealed_state_; }
  // Adversary hook: replace the stored blob (e.g. replay an old version).
  void set_sealed_state(const Bytes& blob) { sealed_state_ = blob; }

  // The untrusted certificate log the host keeps; the sealed state carries a
  // rolling digest over it (db_digest_n = SHA1(db_digest_{n-1} || cert_n))
  // so an auditor inside a future PAL session can validate this log.
  const std::vector<Certificate>& issued_log() const { return issued_log_; }
  static Bytes ComputeLogDigest(const std::vector<Certificate>& log);

  // Verifies an issued certificate against the CA public key.
  static bool VerifyCertificate(const Bytes& ca_public_key, const Certificate& certificate);

 private:
  FlickerPlatform* platform_;
  const PalBinary* binary_;
  std::string issuer_;
  Bytes ca_public_key_;
  Bytes sealed_state_;
  std::vector<Certificate> issued_log_;
};

}  // namespace flicker

#endif  // FLICKER_SRC_APPS_CA_H_
