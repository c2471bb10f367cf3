// Trustworthy distributed computing (paper §6.2).
//
// A BOINC-style server hands out work units (naive trial-division factoring,
// the paper's demo application). Clients process them inside Flicker
// sessions: the first session generates a 160-bit HMAC key from TPM
// randomness and seals it to the PAL; each work session unseals the key,
// verifies the MAC on its checkpointed state, computes for a bounded slice
// so the OS can multitask, and MACs the new state before yielding. The final
// session extends the result into PCR 17 so one attestation covers the whole
// computation - replacing the 3x/5x/7x redundancy defense (Fig. 8).

#ifndef FLICKER_SRC_APPS_DISTRIBUTED_H_
#define FLICKER_SRC_APPS_DISTRIBUTED_H_

#include <vector>

#include "src/attest/privacy_ca.h"
#include "src/attest/verifier.h"
#include "src/core/flicker_platform.h"
#include "src/slb/pal.h"

namespace flicker {

// A factoring work unit: find every divisor of `composite` among candidate
// divisors in [2, search_limit).
struct FactorWorkUnit {
  uint64_t composite = 0;
  uint64_t search_limit = 0;
};

struct FactorState {
  uint64_t next_divisor = 2;
  std::vector<uint64_t> found;

  Bytes Serialize() const;
  static Result<FactorState> Deserialize(const Bytes& data);
};

// PAL input modes.
inline constexpr uint8_t kDistributedModeInit = 0;
inline constexpr uint8_t kDistributedModeWork = 1;

// Bound on any submission frame crossing the network (carries a quote).
inline constexpr size_t kMaxSubmissionFrameBytes = 1u << 20;

class DistributedPal : public Pal {
 public:
  std::string name() const override { return "boinc-factoring"; }
  // Statically allocated state buffers (no Memory Management module), per
  // the §5.2 guidance, so the linked SLB stays under the 60 KB code limit.
  std::vector<std::string> required_modules() const override {
    return {kModuleTpmDriver, kModuleTpmUtilities, kModuleCrypto};
  }
  std::vector<std::string> required_symbols() const override {
    return {"tpm_seal", "tpm_unseal", "tpm_get_random", "hmac_sha1"};
  }
  size_t app_code_bytes() const override { return 2650; }
  int app_lines_of_code() const override { return 210; }

  Status Execute(PalContext* context) override;
};

// Client-side orchestration: drives the PAL through init + repeated work
// sessions with a caller-chosen slice length (the Table 4 / Fig. 8 knob).
class BoincClient {
 public:
  struct RunStats {
    Status status;
    std::vector<uint64_t> divisors;
    int sessions = 0;
    double total_ms = 0;          // All sessions end to end.
    double work_ms = 0;           // Useful application compute.
    double overhead_ms = 0;       // total - work: Flicker-induced.
    double first_session_unseal_ms = 0;
    Bytes final_outputs;          // What the final session emitted (attested).
  };

  BoincClient(FlickerPlatform* platform, const PalBinary* binary);

  // Runs the init session; stores the sealed key for later work sessions.
  Status Initialize();

  // Processes a unit, slicing work into sessions of ~slice_ms of compute.
  // When `nonce` is nonempty it is extended into PCR 17 of the *final*
  // session, and `Process` leaves the platform in a state where the quote
  // daemon can attest the result (§6.2: "our modified BOINC client then
  // returns the results to the server, along with an attestation").
  RunStats Process(const FactorWorkUnit& unit, double slice_ms, const Bytes& nonce = Bytes());

  // Assembles the attestation bundle for the last completed unit: the final
  // session's inputs/outputs and a fresh TPM quote over PCR 17.
  struct ResultSubmission {
    Bytes final_inputs;   // Inputs of the final work session.
    Bytes final_outputs;  // Outputs carrying the factor list.
    AttestationResponse attestation;

    Bytes Serialize() const;
    static Result<ResultSubmission> Deserialize(const Bytes& data);
  };
  Result<ResultSubmission> SubmitResult(const Bytes& nonce);

  const Bytes& sealed_key() const { return sealed_key_; }

 private:
  FlickerPlatform* platform_;
  const PalBinary* binary_;
  Bytes sealed_key_;
  Bytes last_final_inputs_;
  Bytes last_final_outputs_;
};

// Server side: creates work and checks results, trusting the attestation
// rather than redundant execution.
class BoincServer {
 public:
  explicit BoincServer(uint64_t seed = 0xb01c);

  FactorWorkUnit CreateWorkUnit(uint64_t composite);

  // Server-side acceptance: verify that the submitted result was produced
  // by the genuine PAL under Flicker (quote over the final session's PCR 17
  // chain), and extract the divisors. This is what replaces redundant
  // re-execution (Fig. 8). The server knows the PAL binary and the
  // challenge nonce it issued; everything else arrives in the submission.
  Result<std::vector<uint64_t>> VerifyResult(const PalBinary& binary,
                                             const BoincClient::ResultSubmission& submission,
                                             const AikCertificate& client_aik_cert,
                                             const RsaPublicKey& privacy_ca_public,
                                             const Bytes& nonce);

  // Wire entry point: a hostile submission frame. Corrupt frames and failed
  // attestations are Status errors - the server never accepts a wrong
  // factor list. Returns the divisors as a u32-count + u64 list.
  Result<Bytes> HandleSubmissionFrame(const PalBinary& binary, const Bytes& frame,
                                      const AikCertificate& client_aik_cert,
                                      const RsaPublicKey& privacy_ca_public, const Bytes& nonce);

 private:
  Drbg rng_;
};

}  // namespace flicker

#endif  // FLICKER_SRC_APPS_DISTRIBUTED_H_
