// Cross-session PAL state: TPM sealed storage plus the replay protection of
// paper §4.3.2 (Fig. 4).
//
// TPM_Seal alone guarantees only the *intended PAL* can read a blob; it does
// not guarantee the blob is the *latest* one - the untrusted OS stores the
// ciphertexts and can hand back an old version. ReplayProtectedStorage
// binds each sealed version to a TPM monotonic counter: Seal increments the
// counter and embeds its value; Unseal compares the embedded value to the
// live counter and rejects stale blobs.

#ifndef FLICKER_SRC_CORE_SEALED_STATE_H_
#define FLICKER_SRC_CORE_SEALED_STATE_H_

#include <map>
#include <optional>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/tpm/transport.h"
#include "src/tpm/tpm_util.h"

namespace flicker {

// Seals `data` so only a PAL whose in-execution PCR 17 equals
// `release_pcr17` can unseal it - the §4.3.1 pattern ("PCR 17 must have the
// value V <- H(0x00^20 || H(P')) before the data can be unsealed").
Result<SealedBlob> SealForPal(TpmClient* tpm, const Bytes& data, const Bytes& release_pcr17,
                              const Bytes& blob_auth);

// Unseals inside the target PAL's session (PCR 17 currently holds the bound
// value).
Result<Bytes> UnsealInPal(TpmClient* tpm, const SealedBlob& blob, const Bytes& blob_auth);

class ReplayProtectedStorage {
 public:
  // Creates the backing monotonic counter (owner-authorized).
  static Result<ReplayProtectedStorage> Create(TpmClient* tpm, const Bytes& counter_auth,
                                               const Bytes& owner_secret);

  // Rebinds to an existing counter (e.g., in a later session).
  ReplayProtectedStorage(TpmClient* tpm, uint32_t counter_id, Bytes counter_auth);

  // Fig. 4 Seal: IncrementCounter(); c <- TPM_Seal(data || j, PCR list).
  Result<SealedBlob> Seal(const Bytes& data, const Bytes& release_pcr17, const Bytes& blob_auth);

  // Fig. 4 Unseal in two steps, so that state which names its own counter
  // (the CA's does) is checked against that counter, never against one an
  // untrusted host supplies. Unseal yields d and j' from
  // d || j' <- TPM_Unseal(c); CheckVersion then passes iff j' == counter.
  struct Unsealed {
    Bytes data;
    uint64_t version = 0;
  };
  static Result<Unsealed> Unseal(TpmClient* tpm, const SealedBlob& blob, const Bytes& blob_auth);
  // kReplayDetected for a stale version.
  Status CheckVersion(uint64_t version);

  uint32_t counter_id() const { return counter_id_; }

 private:
  TpmClient* tpm_;
  uint32_t counter_id_;
  Bytes counter_auth_;
};

// What Recover() found and did after a crash (see DESIGN.md §9).
enum class RecoveryClass {
  kClean,            // No staged snapshot; nothing to do.
  kDiscardedStaged,  // Crash before the counter moved (or stale orphan): staged dropped.
  kRolledForward,    // Counter moved but commit didn't: staged promoted to committed.
  kFailClosed,       // Staged version is ahead of any state the counter explains.
};

// Crash-consistent wrapper around replay-protected sealing: a two-phase
// protocol over untrusted storage (modeled by the staged/committed slots,
// which survive machine resets the way a disk does).
//
//   Seal:  stage blob(version = counter+1)  ->  IncrementCounter  ->  commit
//
// A power loss between any two steps leaves a state Recover() can classify
// from the staged version and the live counter alone:
//   staged == counter+1  crash before the increment: the staged blob would
//                        never unseal (its version is ahead) - discard it.
//   staged == counter    increment landed, commit didn't: promote the staged
//                        blob. The previously committed blob's version is now
//                        behind the counter, so rolling forward is the only
//                        way any data stays reachable - and it is the newest.
//   staged <  counter    an orphan from an older crash - discard.
//   staged >  counter+1  impossible under the protocol; refuse to serve
//                        anything (fail closed) rather than guess.
// In every class, UnsealLatest() still verifies the embedded version against
// the live counter, so stale data is never returned even if classification
// were wrong.
// Deliberately mis-orderable protocol knobs; at namespace scope so the
// store's declarations can default-construct it (a nested struct's member
// initializers are not complete until the enclosing class is).
struct CrashStoreOptions {
  // Commit before increment: used to demonstrate that the crash matrix
  // catches the stale-unseal bug.
  bool broken_commit_before_increment = false;
};

class CrashConsistentSealedStore {
 public:
  using Options = CrashStoreOptions;

  // Creates the backing monotonic counter (owner-authorized).
  static Result<CrashConsistentSealedStore> Create(TpmClient* tpm, const Bytes& counter_auth,
                                                   const Bytes& owner_secret,
                                                   const Options& options = Options());

  // Rebinds to an existing counter (the post-crash recovery path).
  CrashConsistentSealedStore(TpmClient* tpm, uint32_t counter_id, Bytes counter_auth,
                             const Options& options = Options());

  // Two-phase seal; on success the new version is committed and readable.
  // A PowerLossException can escape from any CRASH_POINT inside.
  Status Seal(const Bytes& data, const Bytes& release_pcr17, const Bytes& blob_auth);

  // Classifies the on-"disk" state after a crash and repairs it. Must be
  // called before UnsealLatest() after any reset.
  Result<RecoveryClass> Recover();

  // Unseals the committed blob and verifies its embedded version against the
  // live counter; kReplayDetected for stale data, error after fail-closed.
  Result<Bytes> UnsealLatest(const Bytes& blob_auth);

  uint32_t counter_id() const { return counter_id_; }
  bool has_committed() const { return committed_.has_value(); }
  bool has_staged() const { return staged_.has_value(); }
  uint64_t committed_version() const { return committed_ ? committed_->version : 0; }

  struct Snapshot {
    SealedBlob blob;
    uint64_t version = 0;
  };
  // Both "disk" slots as the untrusted OS sees them. Rollback-attack tests
  // copy the image before a later Seal and hand the stale copy back with
  // RestoreDiskForTest; Recover()/UnsealLatest() must then detect it.
  struct DiskImageForTest {
    std::optional<Snapshot> staged;
    std::optional<Snapshot> committed;
  };
  DiskImageForTest CaptureDiskForTest() const { return {staged_, committed_}; }
  void RestoreDiskForTest(DiskImageForTest image) {
    staged_ = std::move(image.staged);
    committed_ = std::move(image.committed);
  }

 private:
  TpmClient* tpm_;
  uint32_t counter_id_;
  Bytes counter_auth_;
  Options options_;

  // The untrusted OS's disk: both slots persist across machine resets.
  std::optional<Snapshot> staged_;
  std::optional<Snapshot> committed_;
  bool fail_closed_ = false;
};

}  // namespace flicker

#endif  // FLICKER_SRC_CORE_SEALED_STATE_H_
