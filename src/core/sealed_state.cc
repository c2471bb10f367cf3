#include "src/core/sealed_state.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

#include "src/common/fault.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {

Result<SealedBlob> SealForPal(TpmClient* tpm, const Bytes& data, const Bytes& release_pcr17,
                              const Bytes& blob_auth) {
  if (release_pcr17.size() != kPcrSize) {
    return InvalidArgumentError("release PCR 17 value must be 20 bytes");
  }
  PcrSelection selection({kSkinitPcr});
  std::map<int, Bytes> release = {{kSkinitPcr, release_pcr17}};
  return TpmSealData(tpm, data, selection, release, blob_auth);
}

Result<Bytes> UnsealInPal(TpmClient* tpm, const SealedBlob& blob, const Bytes& blob_auth) {
  return TpmUnsealData(tpm, blob, blob_auth);
}

Result<ReplayProtectedStorage> ReplayProtectedStorage::Create(TpmClient* tpm, const Bytes& counter_auth,
                                                              const Bytes& owner_secret) {
  Result<uint32_t> id = TpmCreateCounter(tpm, counter_auth, owner_secret);
  if (!id.ok()) {
    return id.status();
  }
  return ReplayProtectedStorage(tpm, id.value(), counter_auth);
}

ReplayProtectedStorage::ReplayProtectedStorage(TpmClient* tpm, uint32_t counter_id, Bytes counter_auth)
    : tpm_(tpm), counter_id_(counter_id), counter_auth_(std::move(counter_auth)) {}

Result<SealedBlob> ReplayProtectedStorage::Seal(const Bytes& data, const Bytes& release_pcr17,
                                                const Bytes& blob_auth) {
  Result<uint64_t> version = tpm_->IncrementCounter(counter_id_, counter_auth_);
  if (!version.ok()) {
    return version.status();
  }
  Bytes payload;
  PutUint64(&payload, version.value());
  payload.insert(payload.end(), data.begin(), data.end());
  return SealForPal(tpm_, payload, release_pcr17, blob_auth);
}

Result<ReplayProtectedStorage::Unsealed> ReplayProtectedStorage::Unseal(TpmClient* tpm,
                                                                        const SealedBlob& blob,
                                                                        const Bytes& blob_auth) {
  Result<Bytes> payload = UnsealInPal(tpm, blob, blob_auth);
  if (!payload.ok()) {
    return payload.status();
  }
  if (payload.value().size() < 8) {
    return IntegrityFailureError("replay-protected blob missing version field");
  }
  return Unsealed{Bytes(payload.value().begin() + 8, payload.value().end()),
                  GetUint64(payload.value(), 0)};
}

Status ReplayProtectedStorage::CheckVersion(uint64_t version) {
  Result<uint64_t> live = tpm_->ReadCounter(counter_id_);
  if (!live.ok()) {
    return live.status();
  }
  if (version != live.value()) {
    return ReplayDetectedError("sealed blob version is stale (counter advanced)");
  }
  return Status::Ok();
}

// ---- CrashConsistentSealedStore ----

Result<CrashConsistentSealedStore> CrashConsistentSealedStore::Create(
    TpmClient* tpm, const Bytes& counter_auth, const Bytes& owner_secret, const Options& options) {
  Result<uint32_t> id = TpmCreateCounter(tpm, counter_auth, owner_secret);
  if (!id.ok()) {
    return id.status();
  }
  return CrashConsistentSealedStore(tpm, id.value(), counter_auth, options);
}

CrashConsistentSealedStore::CrashConsistentSealedStore(TpmClient* tpm, uint32_t counter_id,
                                                       Bytes counter_auth, const Options& options)
    : tpm_(tpm),
      counter_id_(counter_id),
      counter_auth_(std::move(counter_auth)),
      options_(options) {}

Status CrashConsistentSealedStore::Seal(const Bytes& data, const Bytes& release_pcr17,
                                        const Bytes& blob_auth) {
  obs::ScopedSpan seal_span("seal", "seal.two_phase");
  if (fail_closed_) {
    return IntegrityFailureError("store failed closed; refusing further seals");
  }
  Result<uint64_t> current = tpm_->ReadCounter(counter_id_);
  if (!current.ok()) {
    return current.status();
  }
  const uint64_t version = current.value() + 1;
  Bytes payload;
  PutUint64(&payload, version);
  payload.insert(payload.end(), data.begin(), data.end());
  Result<SealedBlob> blob = SealForPal(tpm_, payload, release_pcr17, blob_auth);
  if (!blob.ok()) {
    return blob.status();
  }

  // Phase 1: stage. The staged blob's version is ahead of the counter, so a
  // crash here leaves nothing unsealable.
  staged_ = Snapshot{blob.take(), version};
  CRASH_POINT("seal.staged");

  if (options_.broken_commit_before_increment) {
    // The bug the matrix must catch: committing first means a crash before
    // the increment leaves a committed blob whose version the counter never
    // reaches - and the previously committed (stale) data already replaced.
    committed_ = staged_;
    CRASH_POINT("seal.committed");
    Result<uint64_t> bumped = tpm_->IncrementCounter(counter_id_, counter_auth_);
    if (!bumped.ok()) {
      return bumped.status();
    }
    CRASH_POINT("seal.incremented");
    staged_.reset();
    return Status::Ok();
  }

  // Phase 2: the counter increment is the atomic commit point.
  Result<uint64_t> bumped = tpm_->IncrementCounter(counter_id_, counter_auth_);
  if (!bumped.ok()) {
    return bumped.status();
  }
  CRASH_POINT("seal.incremented");

  // Phase 3: publish. A crash between increment and here is repaired by
  // Recover() rolling the staged snapshot forward.
  committed_ = staged_;
  CRASH_POINT("seal.committed");
  staged_.reset();
  return Status::Ok();
}

Result<RecoveryClass> CrashConsistentSealedStore::Recover() {
  obs::ScopedSpan recover_span("seal", "seal.recover");
  Result<uint64_t> live = tpm_->ReadCounter(counter_id_);
  if (!live.ok()) {
    return live.status();
  }
  if (!staged_.has_value()) {
    obs::Count(obs::Ctr::kSealRecoverClean);
    return RecoveryClass::kClean;
  }
  const uint64_t staged_version = staged_->version;
  if (staged_version == live.value() + 1) {
    // Crash before the increment: the seal never committed. A second crash
    // here leaves the staged orphan in place; the next Recover() reclassifies
    // it identically, so discarding is idempotent.
    CRASH_POINT("seal.recover.discard");
    staged_.reset();
    obs::Count(obs::Ctr::kSealRecoverDiscardedStaged);
    return RecoveryClass::kDiscardedStaged;
  }
  if (staged_version == live.value()) {
    // Increment landed, publish didn't: the staged snapshot is the only
    // blob the counter will accept - roll it forward. The promote is written
    // committed-first so a crash between the two writes leaves both slots
    // holding the same version and the next Recover() re-promotes.
    committed_ = staged_;
    CRASH_POINT("seal.recover.promote");
    staged_.reset();
    obs::Count(obs::Ctr::kSealRecoverRolledForward);
    return RecoveryClass::kRolledForward;
  }
  if (staged_version < live.value()) {
    // Orphan from an older crash; the committed blob is newer.
    CRASH_POINT("seal.recover.discard");
    staged_.reset();
    obs::Count(obs::Ctr::kSealRecoverDiscardedStaged);
    return RecoveryClass::kDiscardedStaged;
  }
  // staged_version > live + 1: the protocol cannot produce this. Serve
  // nothing rather than guess which state is real.
  fail_closed_ = true;
  obs::Count(obs::Ctr::kSealRecoverFailClosed);
  obs::Instant("seal", "seal.fail_closed");
  return RecoveryClass::kFailClosed;
}

Result<Bytes> CrashConsistentSealedStore::UnsealLatest(const Bytes& blob_auth) {
  if (fail_closed_) {
    return IntegrityFailureError("store failed closed during recovery");
  }
  if (!committed_.has_value()) {
    return NotFoundError("no committed sealed state");
  }
  Result<ReplayProtectedStorage::Unsealed> unsealed =
      ReplayProtectedStorage::Unseal(tpm_, committed_->blob, blob_auth);
  if (!unsealed.ok()) {
    return unsealed.status();
  }
  FLICKER_RETURN_IF_ERROR(ReplayProtectedStorage(tpm_, counter_id_, counter_auth_)
                              .CheckVersion(unsealed.value().version));
  return unsealed.value().data;
}

}  // namespace flicker
