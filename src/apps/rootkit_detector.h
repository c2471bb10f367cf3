// Rootkit detection with verifiable execution (paper §6.1).
//
// A network administrator challenges a remote host: the host runs the
// detector PAL under Flicker, which hashes the kernel's text segment,
// syscall table and loaded modules, extends the result into PCR 17 and
// returns it. The subsequent TPM quote proves (a) the genuine detector ran
// under SKINIT and (b) the returned hash is exactly what it computed - a
// compromised OS can neither skip the scan nor forge a clean result.

#ifndef FLICKER_SRC_APPS_ROOTKIT_DETECTOR_H_
#define FLICKER_SRC_APPS_ROOTKIT_DETECTOR_H_

#include "src/attest/privacy_ca.h"
#include "src/attest/verifier.h"
#include "src/core/flicker_platform.h"
#include "src/net/lossy_channel.h"
#include "src/slb/pal.h"

namespace flicker {

// The PAL: input is the serialized region list; output is the 20-byte
// SHA-1 over all regions, also extended into PCR 17. Runs WITHOUT the OS
// Protection module - it must read kernel memory outside its own segment.
class RootkitDetectorPal : public Pal {
 public:
  std::string name() const override { return "rootkit-detector"; }
  // Only the raw TPM driver is linked; SHA-1 and the PCR-extend command are
  // inlined in the app code. That keeps the whole SLB near 5 KB, matching
  // Table 1's 15.4 ms SKINIT (the detector predates the measurement-stub
  // optimization, §7.2).
  std::vector<std::string> required_modules() const override { return {kModuleTpmDriver}; }
  std::vector<std::string> required_symbols() const override { return {"tpm_transmit"}; }
  size_t app_code_bytes() const override { return 4096; }
  int app_lines_of_code() const override { return 220; }

  Status Execute(PalContext* context) override;
};

// Administrator-side logic: issue a challenge over the network, verify the
// attestation, compare against the known-good kernel measurement.
class RootkitMonitor {
 public:
  struct QueryReport {
    Status status;             // OK iff the attestation verified.
    bool kernel_clean = false; // Hash matched the known-good value.
    Bytes reported_measurement;
    double total_latency_ms = 0;  // Challenge sent -> verdict reached.
    double skinit_ms = 0;
    double session_ms = 0;
    double quote_ms = 0;
  };

  RootkitMonitor(const PalBinary* binary, Bytes known_good_measurement,
                 const RsaPublicKey& privacy_ca_public, AikCertificate host_aik_cert,
                 uint64_t nonce_seed = 0xad317);

  // Runs one detection query against `platform` over `channel`: the nonce
  // travels client -> server, the serialized quote bundle server -> client.
  // A datagram the wire loses fails the query with kUnavailable.
  QueryReport Query(FlickerPlatform* platform, LossyChannel* channel);

 private:
  const PalBinary* binary_;
  Bytes known_good_;
  RsaPublicKey privacy_ca_public_;
  AikCertificate host_aik_cert_;
  Drbg nonce_rng_;
};

}  // namespace flicker

#endif  // FLICKER_SRC_APPS_ROOTKIT_DETECTOR_H_
