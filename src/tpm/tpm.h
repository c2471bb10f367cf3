// Software model of a v1.2 TPM.
//
// All cryptography is real (this file's seal blobs are AES-CBC + HMAC-SHA1
// envelopes whose keys are wrapped by the TPM's real RSA storage key, and
// quotes are real PKCS#1 signatures by the AIK). Only command *latency* is
// modeled, by charging the shared SimClock per the TpmTimingProfile; the
// profile defaults reproduce the Broadcom BCM0102 the paper measured.
//
// The hardware-only interface (dynamic PCR reset, locality changes) is
// reachable through Tpm::HardwareInterface, which only the CPU/chipset model
// holds - mirroring the property that software cannot reset PCR 17 (§2.3).

#ifndef FLICKER_SRC_TPM_TPM_H_
#define FLICKER_SRC_TPM_TPM_H_

#include <cstdint>
#include <map>
#include <optional>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/drbg.h"
#include "src/crypto/rsa.h"
#include "src/hw/clock.h"
#include "src/hw/timing.h"
#include "src/tpm/pcr_bank.h"
#include "src/tpm/structures.h"

namespace flicker {

struct TpmConfig {
  // Seed for the manufacture-time entropy pool (EK/SRK/AIK derivation).
  // Kept settable: §6.2's distributed computation needs a distinct TPM
  // identity per volunteer (distributed_test gives each its own seed).
  uint64_t manufacture_seed = 0x7501;
  // Storage/identity key size. Real v1.2 TPMs use 2048-bit keys; tests may
  // shrink this for speed.
  size_t key_bits = 2048;
};

// Authorization session state (TPM_OIAP).
struct AuthSessionInfo {
  uint32_t handle = 0;
  Bytes nonce_even;  // TPM-chosen rolling nonce.
};

// Authorization data a caller attaches to an authorized command.
struct CommandAuth {
  uint32_t session_handle = 0;
  Bytes nonce_odd;
  Bytes auth;  // HMAC-SHA1(secret, param_digest || nonce_even || nonce_odd).
};

// Entities whose usage secrets can authorize commands.
enum class AuthEntity {
  kSrk,    // Storage Root Key: authorizes Seal/Unseal.
  kOwner,  // TPM owner: authorizes NV definition and counter creation.
};

// ---- v1.2 lifecycle (TPM_Init -> TPM_Startup -> operational) ----
//
// TPM_Init is the hardware reset signal (a power cut or platform reset);
// after it the TPM accepts only TPM_Startup/TPM_GetTestResult until software
// issues TPM_Startup. A failed self test (or a ST_STATE resume without valid
// saved state) enters failure mode, where again only those two commands are
// accepted - everything else answers kTpmFailed.

enum class TpmStartupType {
  kClear,  // TPM_ST_CLEAR: boot with default volatile state.
  kState,  // TPM_ST_STATE: resume from a TPM_SaveState snapshot (S3 wake).
};

enum class TpmLifecycleState {
  kNeedStartup,  // TPM_Init seen; waiting for TPM_Startup.
  kOperational,
  kFailed,       // self-test failure mode.
};

// What TPM_Startup did while bringing the device up - the recovery story a
// crash-consistency harness asserts on.
struct TpmStartupReport {
  bool journal_rolled_forward = false;  // committed NV/counter journal applied
  bool journal_discarded = false;       // torn or uncommitted journal dropped
  bool state_restored = false;          // ST_STATE restored static PCRs
};

// TPM_GetTestResult values the model reports.
constexpr uint32_t kTpmTestPassed = 0;
constexpr uint32_t kTpmTestNoSavedState = 0x21;   // ST_STATE without SaveState
constexpr uint32_t kTpmTestHardwareFault = 0x5A;  // injected permanent fault

class Tpm {
 public:
  Tpm(SimClock* clock, TpmTimingProfile profile, TpmConfig config = TpmConfig());

  // ---- Software command interface (what drivers may call) ----

  // ---- Lifecycle commands (§v1.2 startup semantics) ----
  //
  // These charge no simulated latency: the calibrated Broadcom profile
  // models steady-state command costs, and startup happens outside every
  // measured window, so the reproduced tables are unaffected.

  // TPM_Startup. Replays the NV/counter write-ahead journal (rolling a
  // committed record forward, discarding a torn or uncommitted one), then
  // either boots clear or restores the SaveState snapshot. Fails with
  // kFailedPrecondition when no TPM_Init preceded it, and with kTpmFailed
  // when the self test fails (ST_STATE without valid saved state included).
  Result<TpmStartupReport> Startup(TpmStartupType type);

  // TPM_SaveState: snapshot volatile state ahead of S3. The snapshot is
  // single-use and only static PCRs are restored - resettable PCRs 17-23
  // return to -1 on every TPM_Init, so a suspend/resume cycle can never
  // resurrect a Flicker session's PCR 17 value.
  Status SaveState();

  // TPM_GetTestResult: answers in every lifecycle state. kTpmTestPassed (0)
  // means healthy.
  uint32_t GetTestResult() const { return self_test_result_; }

  TpmLifecycleState lifecycle_state() const { return lifecycle_; }
  bool saved_state_valid() const { return saved_state_valid_; }
  // True while an NV/counter journal record is pending (crashed mid-write).
  bool journal_pending() const { return journal_.has_value(); }

  // TPM_GetRandom. Charges get_random_ms per call. Returns at most
  // kMaxRandomBytes: v1.2 lets the device answer with fewer bytes than
  // requested, so a wire-supplied length never sizes an allocation.
  static constexpr size_t kMaxRandomBytes = 4096;
  Bytes GetRandom(size_t len);

  // TPM_PCRRead / TPM_Extend. Extend requires a 20-byte measurement.
  Result<Bytes> PcrRead(int index);
  Status PcrExtend(int index, const Bytes& measurement);

  // TPM_OIAP: start an object-independent session.
  AuthSessionInfo StartOiap();
  void TerminateSession(uint32_t handle);

  // TPM_Seal (authorized by SRK usage secret). Encrypts `data` so it can only
  // be released when the PCRs in `selection` hold the values in
  // `release_pcrs` (or, if empty, their current values) and the caller
  // proves knowledge of `blob_auth`. The blob itself is handled by untrusted
  // software.
  Result<SealedBlob> Seal(const Bytes& data, const PcrSelection& selection,
                          const std::map<int, Bytes>& release_pcrs, const Bytes& blob_auth,
                          const CommandAuth& auth);

  // TPM_Unseal. Fails with kIntegrityFailure when the current PCR state does
  // not match the sealed composite, and kPermissionDenied on bad auth.
  Result<Bytes> Unseal(const SealedBlob& blob, const Bytes& blob_auth, const CommandAuth& auth);

  // TPM_Quote: sign (composite of `selection`, nonce) with the resident AIK,
  // charging the full measured quote latency. quote_ms is calibrated on a
  // device that loads the AIK before signing (§6: "the OS causes the TPM to
  // load its AIK"), so the charge is two steps - load_key_ms, then the
  // remaining quote_ms - load_key_ms - keeping the SimClock on the same
  // nanosecond as the calibrated load-then-sign sequence.
  Result<TpmQuote> Quote(const Bytes& nonce, const PcrSelection& selection);

  // ---- NV storage (§4.3.2) ----

  // Defines an NV space. Owner-authorized. `write_pcrs` gates writes on the
  // *values the selected PCRs hold at definition time* unless explicit
  // values are provided.
  Status NvDefineSpace(uint32_t index, size_t size, const PcrSelection& write_selection,
                       const std::map<int, Bytes>& write_pcrs, const CommandAuth& auth);
  Status NvWrite(uint32_t index, const Bytes& data);
  // Observer: a space's contents, kNotFound when undefined. No product reads
  // NV back; tests check that a write landed (or rolled back) whole.
  Result<Bytes> NvContents(uint32_t index) const;

  // ---- Monotonic counters (§4.3.2) ----

  // Owner-authorized creation. Returns the counter id.
  Result<uint32_t> CreateCounter(const Bytes& counter_auth, const CommandAuth& auth);
  Result<uint64_t> IncrementCounter(uint32_t id, const Bytes& counter_auth);
  Result<uint64_t> ReadCounter(uint32_t id);

  // ---- Ownership & identity ----

  // Installs the 20-byte owner authorization secret (TPM_TakeOwnership).
  Status TakeOwnership(const Bytes& owner_auth);

  const RsaPublicKey& aik_public() const { return aik_.pub; }
  const RsaPublicKey& srk_public() const { return srk_.pub; }
  // Usage secret of the SRK (the TCG "well-known secret" of 20 zero bytes).
  static Bytes WellKnownSecret() { return Bytes(kPcrSize, 0x00); }

  // Current locality (0 = legacy software, 4 = CPU during SKINIT).
  int locality() const { return locality_; }

  // The simulated clock command latencies are charged to; the transport
  // reads it to measure per-command dispatch latency for its trace.
  SimClock* sim_clock() { return clock_; }

  // TIS-style locality request from the software side. Localities 0-2 are
  // driver-reachable; 3 is reserved for the ACM and 4 for CPU microcode, so
  // software requests for those return kPermissionDenied (§2.3).
  Status RequestLocality(int locality);

  // True iff an extend of `index` is permitted at `locality`. Dynamic PCRs
  // are gated: 17-19 accept localities 2-4, 20 accepts 1-4, 21-22 accept
  // only locality 2 (trusted OS); static PCRs accept any locality.
  static bool ExtendAllowedAt(int index, int locality);

  // ---- Hardware interface: held by the chipset/CPU model only ----
  class HardwareInterface {
   public:
    explicit HardwareInterface(Tpm* tpm) : tpm_(tpm) {}

    // The SKINIT handshake: raise locality 4, reset dynamic PCRs, extend the
    // SLB measurement into PCR 17, drop to locality 2.
    void SkinitReset(const Bytes& slb_measurement);

    // Additional hardware-path extend into PCR 17 at launch locality; used
    // by the TXT model for the post-ACM MLE measurement.
    void ExtendIdentityPcr(const Bytes& measurement);

    // TPM_Init: the reset line. Drops volatile state (sessions, locality),
    // resets PCRs to power-cycle defaults and leaves the device
    // awaiting TPM_Startup. Persistent state (NV, counters, journal, saved
    // state, fault flag) survives.
    void Init();

    // Platform reboot: TPM_Init plus an immediate TPM_Startup(ST_CLEAR), the
    // one-shot cycle a BIOS performs before handing off to the OS.
    void PowerCycle();

    // Latches / clears the permanent hardware fault the self test reports -
    // the knob robustness tests use to put the device into failure mode.
    void ForceFailureMode();
    void ClearFailureMode();

    // Hardware-side locality transition (any locality 0-4). Out-of-range
    // values are a chipset-model bug and are rejected.
    Status SetLocality(int locality);

   private:
    Tpm* tpm_;
  };

  HardwareInterface* hardware() { return &hardware_; }

  // Computes the HMAC a caller must present for an authorized command, and
  // is reused by driver-side helpers. Exposed so the SLB-core TPM utilities
  // implement the same computation the TPM checks.
  static Bytes ComputeCommandAuth(const Bytes& secret, const Bytes& param_digest,
                                  const Bytes& nonce_even, const Bytes& nonce_odd);

 private:
  friend class HardwareInterface;

  struct NvSpace {
    size_t size = 0;
    PcrSelection write_selection;
    Bytes write_composite;
    Bytes data;
  };

  // Write-ahead journal record for NV/counter mutations. The record is
  // "durably written" in stages (payload, checksum, commit mark) with a
  // crash point between each, so a power cut leaves exactly one of: no
  // record, a torn record (checksum mismatch), an uncommitted record, or a
  // committed record - and TPM_Startup replay resolves each case.
  struct JournalEntry {
    enum class Kind : uint8_t { kNvWrite, kCounterIncrement };
    Kind kind = Kind::kNvWrite;
    uint32_t index = 0;          // NV index or counter id.
    Bytes data;                  // Full new NV contents (kNvWrite).
    uint64_t counter_value = 0;  // Target value (kCounterIncrement).
    bool committed = false;
    uint32_t crc = 0;
  };

  static uint32_t JournalCrc(const JournalEntry& entry);
  void ReplayJournal(TpmStartupReport* report);

  // Verifies `auth` against the entity's secret for a command whose
  // parameters hash to `param_digest`, then rolls the session nonce.
  Status CheckAuth(AuthEntity entity, const Bytes& param_digest, const CommandAuth& auth);

  // Computes a composite digest over `selection` using explicit `values`
  // where provided and current PCR contents otherwise.
  Result<Bytes> CompositeWithOverrides(const PcrSelection& selection,
                                       const std::map<int, Bytes>& overrides) const;

  const Bytes& EntitySecret(AuthEntity entity) const;

  // The single checked locality mutator; every transition (software or
  // hardware) funnels through it. `hardware` unlocks localities 3 and 4.
  Status TransitionLocality(int locality, bool hardware);

  void Charge(double ms) { clock_->AdvanceMillis(ms); }

  SimClock* clock_;
  TpmTimingProfile profile_;
  HardwareInterface hardware_;

  // ---- Volatile state: lost on TPM_Init / power cut ----
  //
  // Devices in the field begin life powered up: the model constructs in
  // kOperational (BIOS POST already ran Startup), and only an explicit
  // TPM_Init drops to kNeedStartup.
  TpmLifecycleState lifecycle_ = TpmLifecycleState::kOperational;
  PcrBank pcrs_;
  Drbg rng_;
  int locality_ = 0;

  std::map<uint32_t, AuthSessionInfo> sessions_;
  uint32_t next_session_handle_ = 0x1000;

  // ---- Persistent state: survives TPM_Init (battery-backed NVRAM) ----
  RsaPrivateKey srk_;
  RsaPrivateKey aik_;
  Bytes srk_usage_auth_;
  Bytes owner_auth_;
  bool owned_ = false;

  std::map<uint32_t, NvSpace> nv_spaces_;

  struct Counter {
    uint64_t value = 0;
    Bytes auth;
  };
  std::map<uint32_t, Counter> counters_;
  uint32_t next_counter_id_ = 1;

  std::optional<JournalEntry> journal_;
  bool saved_state_valid_ = false;
  PcrBank saved_pcrs_;                       // SaveState snapshot (statics restored).
  uint32_t self_test_result_ = kTpmTestPassed;
};

}  // namespace flicker

#endif  // FLICKER_SRC_TPM_TPM_H_
