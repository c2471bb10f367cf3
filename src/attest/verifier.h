// Remote-verifier logic (paper §4.4.1).
//
// Given knowledge of the PAL (its SLB image), the session inputs/outputs and
// the nonce it issued, the verifier reconstructs the exact extend chain
// PCR 17 must hold and checks the TPM's quote signature over it. Nothing the
// untrusted OS does can produce the same PCR 17 value without running the
// PAL under SKINIT, because only SKINIT resets PCR 17.

#ifndef FLICKER_SRC_ATTEST_VERIFIER_H_
#define FLICKER_SRC_ATTEST_VERIFIER_H_

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/attest/privacy_ca.h"
#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/os/tqd.h"
#include "src/slb/slb_layout.h"
#include "src/tpm/structures.h"

namespace flicker {

// What the verifier knows/expects about a session.
struct SessionExpectation {
  // The PAL being attested; the verifier recomputes its measurements from
  // the same (public) binary.
  const PalBinary* binary = nullptr;
  Bytes inputs;
  Bytes outputs;
  Bytes nonce;
  // Measurements the PAL itself extended into PCR 17 before the SLB core's
  // closing extends (e.g., the rootkit detector extends the kernel hash).
  std::vector<Bytes> pal_extends;
  // Which launch technology the platform uses: a TXT chain begins with the
  // SINIT ACM measurement.
  LateLaunchTech tech = LateLaunchTech::kAmdSvm;
};

// The extend chain for a session that ran `expectation`:
//   0^20
//   -> [H(SINIT ACM)]                        (Intel TXT platforms only)
//   -> H(measured SLB prefix)                (SKINIT / SENTER)
//   -> [H(full 64 KB image)]                 (measurement stub builds only)
//   -> [pal_extends...]                      (application extends)
//   -> H(inputs) -> H(outputs) -> [H(nonce)] -> termination constant.
Bytes ComputeExpectedPcr17(const SessionExpectation& expectation);

// The PCR 17 value while the PAL executes (before the closing extends):
// what sealed storage should bind to.
Bytes ComputeExecutionPcr17(const PalBinary& binary,
                            LateLaunchTech tech = LateLaunchTech::kAmdSvm);

// An AIK whose Privacy CA certificate checked out. `serialized` is the key
// exactly as the certificate carries it (a response must ship the same
// bytes); `key` is that key parsed.
struct CertifiedAik {
  Bytes serialized;
  RsaPublicKey key;
};

// Verification runs in two steps. Step 1 checks the certificate chain: the
// Privacy CA's signature over the AIK and its label. It depends only on the
// certificate and the CA key, so a verifier that sees the same certificate
// again may reuse the result (VerifiedAikCache).
Result<CertifiedAik> VerifyAikCertificate(const AikCertificate& aik_cert,
                                          const RsaPublicKey& privacy_ca_public);

// Step 2, the per-response check under an already certified AIK: the
// response's AIK matches the certificate, nonce freshness, the quote
// signature, composite reconstruction, and the PCR 17 chain. Returns OK only
// if every link holds.
Status VerifyAttestation(const SessionExpectation& expectation,
                         const AttestationResponse& response, const CertifiedAik& aik,
                         const Bytes& expected_nonce);

// Full attestation check: step 1, then step 2.
Status VerifyAttestation(const SessionExpectation& expectation,
                         const AttestationResponse& response, const AikCertificate& aik_cert,
                         const RsaPublicKey& privacy_ca_public, const Bytes& expected_nonce);

// One challenger's check of a Merkle-aggregated batch quote (step 2). The
// challenger recomputes the batch root from its OWN nonce (`expected_nonce`,
// the one it issued) and the shipped authentication path, then runs the
// step-2 VerifyAttestation chain with that root as the quote's externalData.
// A response carrying a wrong path, another challenger's slice, or a quote
// from a different batch therefore fails closed: nothing in the response is
// trusted to name the nonce being proven.
Status VerifyBatchQuote(const SessionExpectation& expectation, const BatchQuoteResponse& response,
                        const CertifiedAik& aik, const Bytes& expected_nonce);

// Full batch-slice check: step 1, then step 2.
Status VerifyBatchQuote(const SessionExpectation& expectation, const BatchQuoteResponse& response,
                        const AikCertificate& aik_cert, const RsaPublicKey& privacy_ca_public,
                        const Bytes& expected_nonce);

// Step 1 with memory: a bounded map from (full certificate bytes, serialized
// CA key) to the certified AIK. Only successes are stored, so a relabelled,
// re-signed or tampered certificate misses and is re-checked - and rejected -
// on every call. When full, the oldest entry is evicted.
class VerifiedAikCache {
 public:
  static constexpr size_t kCapacity = 4096;

  // The certified AIK for `aik_cert` under `privacy_ca_public`: a hit skips
  // the CA signature check, a miss runs VerifyAikCertificate. The pointer is
  // valid until the next Certify call.
  Result<const CertifiedAik*> Certify(const AikCertificate& aik_cert,
                                      const RsaPublicKey& privacy_ca_public);

  size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<std::string, CertifiedAik> entries_;
  std::deque<const std::string*> insertion_order_;  // Keys owned by entries_.
};

// Reconstructs TPM_COMPOSITE_HASH from a quote's selection + values; must
// match the TPM-side computation bit for bit.
Bytes RecomputeQuoteComposite(const TpmQuote& quote);

}  // namespace flicker

#endif  // FLICKER_SRC_ATTEST_VERIFIER_H_
