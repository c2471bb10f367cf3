// The single choke point between software and the TPM device model.
//
// TpmTransport carries every driver-side command as a byte frame
// (src/tpm/commands.h) through Transmit(), and owns the TIS locality state:
// software may request localities 0-2; locality 4 is reachable only through
// the hardware facade that wraps Tpm::HardwareInterface (the SKINIT path).
// The transport rejects locality-inappropriate commands before they reach
// the device and can inject faults - drop, garble or delay every Nth frame -
// so upper layers' retry logic is testable.
//
// Every command is counted in the global metrics registry and, while a
// tracer is installed, recorded on the unified observability stream
// (src/obs/trace.h) as one completed `tpm` span: named by ordinal, lasting
// exactly the simulated latency charged, with `locality` and `rc` (wire
// return code) args. That stream is the command history a failing test
// prints.
//
// TpmClient is the one driver built on top, and the handle every caller
// (including the TPM utilities in tpm_util.h) holds: it mirrors the Tpm
// software API method-for-method so call sites keep their shape, but every
// operation is marshalled, transmitted, policy-checked and unmarshalled. Timing is
// unchanged by construction: the device model charges the calibrated
// latencies exactly as before, and the transport adds none of its own.

#ifndef FLICKER_SRC_TPM_TRANSPORT_H_
#define FLICKER_SRC_TPM_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/rsa.h"
#include "src/tpm/structures.h"
#include "src/tpm/tpm.h"

namespace flicker {

// Fault-injection plan applied to transmitted frames. `every_n` selects
// every Nth frame (1-based count of Transmit calls); 0 disables injection.
struct FaultPlan {
  enum class Kind { kNone, kDrop, kGarble, kDelay };
  Kind kind = Kind::kNone;
  uint64_t every_n = 0;
  double delay_ms = 0;         // Extra latency for kDelay.
  double drop_timeout_ms = 0;  // Time the driver burns waiting on a dropped frame.
};

class TpmTransport {
 public:
  explicit TpmTransport(Tpm* tpm);

  // Sends one request frame to the device and returns the response frame.
  // Transport-level failures (dropped frame, locality rejection) surface as
  // an error Status; device-level errors come back encoded in the response.
  Result<Bytes> Transmit(const Bytes& request_frame);

  // TIS locality handshake for the software side (localities 0-2 only;
  // 3 and 4 are denied exactly as Tpm::RequestLocality denies them).
  // ReleaseLocality restores the locality active before the last request.
  Status RequestLocality(int locality);
  Status ReleaseLocality();
  int locality() const { return tpm_->locality(); }

  // ---- Hardware facade: the sole holder of Tpm::HardwareInterface ----
  //
  // The chipset/CPU model goes through this so hardware-path events appear
  // in the same trace as driver commands.
  class Hardware {
   public:
    explicit Hardware(TpmTransport* transport) : transport_(transport) {}

    void SkinitReset(const Bytes& slb_measurement);
    void ExtendIdentityPcr(const Bytes& measurement);
    // TPM_Init alone: volatile state is lost and the device demands a
    // TPM_Startup before accepting further commands. This is the reset-line
    // event the power domain pulls on PowerCut.
    void Init();
    // Legacy reset: TPM_Init plus the BIOS's automatic TPM_Startup(ST_CLEAR),
    // preserving the pre-lifecycle Reboot contract.
    void PowerCycle();
    // Latches/clears the hardware self-test fault (for failure-mode tests).
    void ForceFailureMode();
    void ClearFailureMode();
    Status SetLocality(int locality);
    // Probes the NV array directly (Tpm::NvContents): no product reads NV
    // back, so this is how a crash test checks a write landed whole.
    Result<Bytes> NvContents(uint32_t index) const {
      return transport_->tpm_->NvContents(index);
    }

   private:
    TpmTransport* transport_;
  };

  Hardware* hardware() { return &hardware_; }

  // ---- Fault injection ----
  void set_fault_plan(const FaultPlan& plan) { plan_ = plan; }
  const FaultPlan& fault_plan() const { return plan_; }
  uint64_t faults_injected() const { return faults_injected_; }

  // Transmit calls so far (TIS and hardware pseudo-commands excluded); the
  // 1-based count FaultPlan::every_n selects on.
  uint64_t total_commands() const { return total_commands_; }

 private:
  friend class Hardware;

  void Record(uint32_t ordinal, int locality, double latency_ms, uint32_t result_code);

  Tpm* tpm_;
  Hardware hardware_;

  FaultPlan plan_;
  uint64_t total_commands_ = 0;
  uint64_t faults_injected_ = 0;

  std::vector<int> locality_stack_;
};

// Driver-side TPM access over the transport. Mirrors the Tpm software API so
// existing call sites (machine->tpm()->..., context->tpm()->...) compile
// unchanged while every operation crosses the wire.
class TpmClient {
 public:
  explicit TpmClient(TpmTransport* transport);

  Bytes GetRandom(size_t len);  // Empty on transport failure.
  Result<Bytes> PcrRead(int index);
  // Extends of dynamic PCRs auto-negotiate locality 2 when the current
  // locality would be rejected, as a real driver's TIS handshake does.
  Status PcrExtend(int index, const Bytes& measurement);

  AuthSessionInfo StartOiap();  // handle == 0 on transport failure.
  void TerminateSession(uint32_t handle);

  Result<SealedBlob> Seal(const Bytes& data, const PcrSelection& selection,
                          const std::map<int, Bytes>& release_pcrs, const Bytes& blob_auth,
                          const CommandAuth& auth);
  Result<Bytes> Unseal(const SealedBlob& blob, const Bytes& blob_auth, const CommandAuth& auth);

  // One TPM_ORD_Quote frame, signed by the resident AIK at the calibrated
  // quote latency.
  Result<TpmQuote> Quote(const Bytes& nonce, const PcrSelection& selection);

  Status NvDefineSpace(uint32_t index, size_t size, const PcrSelection& write_selection,
                       const std::map<int, Bytes>& write_pcrs, const CommandAuth& auth);
  Status NvWrite(uint32_t index, const Bytes& data);

  Result<uint32_t> CreateCounter(const Bytes& counter_auth, const CommandAuth& auth);
  Result<uint64_t> IncrementCounter(uint32_t id, const Bytes& counter_auth);
  Result<uint64_t> ReadCounter(uint32_t id);

  Status TakeOwnership(const Bytes& owner_auth);

  // ---- Lifecycle (TPM_Startup family) ----
  Result<TpmStartupReport> Startup(TpmStartupType type);
  Status SaveState();
  Result<uint32_t> GetTestResult();

  // Fetched over the wire once at construction (a capability read; free).
  const RsaPublicKey& aik_public() const { return aik_public_; }
  const RsaPublicKey& srk_public() const { return srk_public_; }
  static Bytes WellKnownSecret() { return Tpm::WellKnownSecret(); }

  int locality() const { return transport_->locality(); }
  TpmTransport* transport() { return transport_; }
  TpmTransport::Hardware* hardware() { return transport_->hardware(); }

 private:
  Result<Bytes> Roundtrip(const Bytes& request_frame);

  TpmTransport* transport_;
  RsaPublicKey aik_public_;
  RsaPublicKey srk_public_;
};

}  // namespace flicker

#endif  // FLICKER_SRC_TPM_TRANSPORT_H_
