#include "src/attest/verifier.h"

#include "src/crypto/merkle.h"
#include "src/crypto/sha1.h"
#include "src/slb/slb_core.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {

namespace {

Bytes Extend(const Bytes& pcr, const Bytes& measurement) {
  return Sha1::Digest(Concat(pcr, measurement));
}

}  // namespace

Bytes ComputeExecutionPcr17(const PalBinary& binary, LateLaunchTech tech) {
  Bytes pcr(kPcrSize, 0x00);
  if (tech == LateLaunchTech::kIntelTxt) {
    pcr = Extend(pcr, SinitAcmMeasurement());
  }
  pcr = Extend(pcr, binary.skinit_measurement);
  if (binary.options.measurement_stub) {
    pcr = Extend(pcr, binary.stub_body_measurement);
  }
  return pcr;
}

Bytes ComputeExpectedPcr17(const SessionExpectation& expectation) {
  Bytes pcr = ComputeExecutionPcr17(*expectation.binary, expectation.tech);
  for (const Bytes& measurement : expectation.pal_extends) {
    pcr = Extend(pcr, measurement);
  }
  pcr = Extend(pcr, Sha1::Digest(expectation.inputs));
  pcr = Extend(pcr, Sha1::Digest(expectation.outputs));
  if (!expectation.nonce.empty()) {
    pcr = Extend(pcr, Sha1::Digest(expectation.nonce));
  }
  pcr = Extend(pcr, FlickerTerminationConstant());
  return pcr;
}

Bytes RecomputeQuoteComposite(const TpmQuote& quote) {
  Bytes buffer = quote.selection.Serialize();
  Bytes values;
  for (const Bytes& v : quote.pcr_values) {
    values.insert(values.end(), v.begin(), v.end());
  }
  PutUint32(&buffer, static_cast<uint32_t>(values.size()));
  buffer.insert(buffer.end(), values.begin(), values.end());
  return Sha1::Digest(buffer);
}

Result<CertifiedAik> VerifyAikCertificate(const AikCertificate& aik_cert,
                                          const RsaPublicKey& privacy_ca_public) {
  if (!PrivacyCa::Verify(privacy_ca_public, aik_cert)) {
    return IntegrityFailureError("AIK certificate signature invalid");
  }
  Result<RsaPublicKey> aik = RsaPublicKey::Deserialize(aik_cert.aik_public);
  if (!aik.ok()) {
    return aik.status();
  }
  return CertifiedAik{aik_cert.aik_public, aik.take()};
}

Status VerifyAttestation(const SessionExpectation& expectation,
                         const AttestationResponse& response, const CertifiedAik& aik,
                         const Bytes& expected_nonce) {
  // 1. The AIK shipped with the response must be the certified one.
  if (aik.serialized != response.aik_public) {
    return IntegrityFailureError("AIK in response does not match certificate");
  }

  // 2. Nonce freshness.
  if (response.quote.nonce != expected_nonce) {
    return ReplayDetectedError("quote nonce does not match the challenge");
  }

  // 3. Quote signature over TPM_QUOTE_INFO.
  Bytes composite = RecomputeQuoteComposite(response.quote);
  Bytes info = BytesOf("QUOT");
  info.insert(info.end(), composite.begin(), composite.end());
  info.insert(info.end(), response.quote.nonce.begin(), response.quote.nonce.end());
  if (!RsaVerifySha1(aik.key, info, response.quote.signature)) {
    return IntegrityFailureError("quote signature invalid");
  }

  // 4. PCR 17 must be in the selection and hold the reconstructed chain.
  if (!response.quote.selection.IsSelected(kSkinitPcr)) {
    return InvalidArgumentError("quote does not cover PCR 17");
  }
  size_t position = 0;
  for (int index : response.quote.selection.Indices()) {
    if (index == kSkinitPcr) {
      break;
    }
    ++position;
  }
  if (position >= response.quote.pcr_values.size()) {
    return InvalidArgumentError("quote value list shorter than selection");
  }
  Bytes expected_pcr17 = ComputeExpectedPcr17(expectation);
  if (!ConstantTimeEquals(response.quote.pcr_values[position], expected_pcr17)) {
    return IntegrityFailureError(
        "PCR 17 does not match the expected session chain (wrong PAL, tampered I/O, or no "
        "Flicker session)");
  }
  return Status::Ok();
}

Status VerifyAttestation(const SessionExpectation& expectation,
                         const AttestationResponse& response, const AikCertificate& aik_cert,
                         const RsaPublicKey& privacy_ca_public, const Bytes& expected_nonce) {
  Result<CertifiedAik> aik = VerifyAikCertificate(aik_cert, privacy_ca_public);
  if (!aik.ok()) {
    return aik.status();
  }
  return VerifyAttestation(expectation, response, aik.value(), expected_nonce);
}

Status VerifyBatchQuote(const SessionExpectation& expectation, const BatchQuoteResponse& response,
                        const CertifiedAik& aik, const Bytes& expected_nonce) {
  // The response's own nonce field is advisory; the proof must hold for the
  // nonce this challenger actually issued.
  if (response.nonce != expected_nonce) {
    return ReplayDetectedError("batch slice does not answer this challenge");
  }
  if (response.path.steps.size() > kMaxMerklePathSteps) {
    return InvalidArgumentError("batch auth path implausibly deep");
  }
  Bytes root = MerkleTree::RootFromPath(expected_nonce, response.path);
  // VerifyAttestation's nonce-freshness check now pins the quote's
  // externalData to the recomputed root: a quote from any other batch - or a
  // path for any other leaf - yields a different root and fails there.
  return VerifyAttestation(expectation, response.response, aik, root);
}

Status VerifyBatchQuote(const SessionExpectation& expectation, const BatchQuoteResponse& response,
                        const AikCertificate& aik_cert, const RsaPublicKey& privacy_ca_public,
                        const Bytes& expected_nonce) {
  Result<CertifiedAik> aik = VerifyAikCertificate(aik_cert, privacy_ca_public);
  if (!aik.ok()) {
    return aik.status();
  }
  return VerifyBatchQuote(expectation, response, aik.value(), expected_nonce);
}

Result<const CertifiedAik*> VerifiedAikCache::Certify(const AikCertificate& aik_cert,
                                                      const RsaPublicKey& privacy_ca_public) {
  // Every field length-prefixed, so distinct (certificate, CA) pairs never
  // share a key.
  std::string key;
  auto append = [&key](const void* data, size_t size) {
    const uint32_t length = static_cast<uint32_t>(size);
    key.append(reinterpret_cast<const char*>(&length), sizeof(length));
    key.append(static_cast<const char*>(data), size);
  };
  const Bytes ca = privacy_ca_public.Serialize();
  append(aik_cert.aik_public.data(), aik_cert.aik_public.size());
  append(aik_cert.tpm_label.data(), aik_cert.tpm_label.size());
  append(aik_cert.signature.data(), aik_cert.signature.size());
  append(ca.data(), ca.size());
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    return &it->second;
  }

  Result<CertifiedAik> aik = VerifyAikCertificate(aik_cert, privacy_ca_public);
  if (!aik.ok()) {
    return aik.status();
  }
  if (entries_.size() >= kCapacity) {
    entries_.erase(*insertion_order_.front());
    insertion_order_.pop_front();
  }
  it = entries_.emplace(std::move(key), aik.take()).first;
  insertion_order_.push_back(&it->first);
  return &it->second;
}

}  // namespace flicker
