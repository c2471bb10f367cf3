#include "src/vtpm/vtpm_manager.h"

#include <utility>

#include "src/common/fault.h"
#include "src/crypto/sha1.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flicker {
namespace vtpm {

VtpmManager::VtpmManager(Machine* machine, VtpmManagerConfig config)
    : machine_(machine), config_(std::move(config)) {}

bool VtpmManager::TenantQuarantined(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it != tenants_.end() && it->second.quarantined;
}

bool VtpmManager::TenantResident(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it != tenants_.end() && it->second.resident != nullptr;
}

size_t VtpmManager::resident_count() const {
  size_t count = 0;
  for (const auto& [name, record] : tenants_) {
    if (record.resident != nullptr) {
      ++count;
    }
  }
  return count;
}

CrashConsistentSealedStore* VtpmManager::StoreForTest(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second.store.get();
}

void VtpmManager::Quarantine(const std::string& tenant, TenantRecord* record) {
  record->quarantined = true;
  record->resident.reset();
  (void)tenant;
  obs::Instant("vtpm", "vtpm.quarantine");
}

Status VtpmManager::CreateTenant(const std::string& tenant, const Bytes& owner_auth) {
  if (tenant.empty() || tenant.size() > kMaxTenantNameLen) {
    return InvalidArgumentError("tenant name empty or too long");
  }
  if (owner_auth.size() != kVtpmDigestSize) {
    return InvalidArgumentError("tenant owner auth must be 20 bytes");
  }
  if (tenants_.count(tenant) != 0) {
    return FailedPreconditionError("tenant already exists: " + tenant);
  }
  Result<CrashConsistentSealedStore> store = CrashConsistentSealedStore::Create(
      machine_->tpm(), Sha1::Digest(BytesOf("vtpm-ctr-" + tenant)), config_.owner_secret);
  if (!store.ok()) {
    return store.status();
  }
  TenantRecord& record = tenants_[tenant];
  record.store = std::make_unique<CrashConsistentSealedStore>(store.take());
  // A crash here leaves a store with no committed snapshot; RecoverAll rolls
  // the half-created tenant back by dropping its record.
  CRASH_POINT("vtpm.create.provisioned");

  Bytes key_seed = machine_->tpm()->GetRandom(kVtpmDigestSize);
  record.resident = std::make_unique<VirtualTpm>(VtpmState::Fresh(tenant, owner_auth, key_seed));
  record.last_used = ++lru_tick_;
  Status sealed = SnapshotRecord(tenant, &record);
  if (!sealed.ok()) {
    return sealed;
  }
  return EvictLruIfNeeded();
}

Status VtpmManager::SnapshotRecord(const std::string& tenant, TenantRecord* record) {
  obs::ScopedSpan span("vtpm", "vtpm.snapshot");
  VirtualTpm* vt = record->resident.get();
  Result<uint64_t> live = machine_->tpm()->ReadCounter(record->store->counter_id());
  if (!live.ok()) {
    return live.status();
  }
  VtpmState next = vt->state();
  next.generation += 1;
  next.binding.counter_id = record->store->counter_id();
  // The store's Seal increments the counter exactly once; bind the snapshot
  // to the post-commit reading, so it is live iff that seal committed and no
  // later snapshot superseded it.
  next.binding.counter_value = live.value() + 1;
  next.binding.tenant_tag = TenantTag(tenant);
  Bytes wire = next.Serialize();
  CRASH_POINT("vtpm.snapshot.serialized");
  Status sealed = record->store->Seal(wire, config_.release_pcr17, config_.blob_auth);
  if (!sealed.ok()) {
    return sealed;
  }
  CRASH_POINT("vtpm.snapshot.sealed");
  *vt->mutable_state() = std::move(next);
  obs::Count(obs::Ctr::kVtpmSnapshots);
  return Status::Ok();
}

Status VtpmManager::SnapshotTenant(const std::string& tenant) {
  Result<VirtualTpm*> vt = ResidentTenant(tenant);
  if (!vt.ok()) {
    return vt.status();
  }
  return SnapshotRecord(tenant, &tenants_[tenant]);
}

Status VtpmManager::Extend(const std::string& tenant, int index, const Bytes& owner_auth,
                           const Bytes& measurement) {
  Result<VirtualTpm*> vt = ResidentTenant(tenant);
  if (!vt.ok()) {
    return vt.status();
  }
  if (!vt.value()->CheckOwnerAuth(owner_auth)) {
    return PermissionDeniedError("tenant owner auth mismatch: " + tenant);
  }
  FLICKER_RETURN_IF_ERROR(vt.value()->Extend(index, measurement));
  // RAM-only until the next snapshot: a crash here loses the extend, never
  // tears durable state.
  CRASH_POINT("vtpm.extend.applied");
  obs::Count(obs::Ctr::kVtpmExtends);
  return Status::Ok();
}

Status VtpmManager::EvictTenant(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return NotFoundError("no such tenant: " + tenant);
  }
  if (it->second.resident == nullptr) {
    return Status::Ok();
  }
  FLICKER_RETURN_IF_ERROR(SnapshotRecord(tenant, &it->second));
  it->second.resident.reset();
  CRASH_POINT("vtpm.evict.dropped");
  return Status::Ok();
}

Status VtpmManager::EvictLruIfNeeded() {
  while (resident_count() > config_.max_resident) {
    const std::string* lru = nullptr;
    uint64_t oldest = 0;
    for (const auto& [name, record] : tenants_) {
      if (record.resident != nullptr && (lru == nullptr || record.last_used < oldest)) {
        lru = &name;
        oldest = record.last_used;
      }
    }
    if (lru == nullptr) {
      return Status::Ok();
    }
    FLICKER_RETURN_IF_ERROR(EvictTenant(*lru));
  }
  return Status::Ok();
}

Result<VirtualTpm*> VtpmManager::LoadRecord(const std::string& tenant, TenantRecord* record) {
  if (record->quarantined) {
    return RollbackDetectedError("tenant quarantined: " + tenant);
  }
  if (record->resident != nullptr) {
    record->last_used = ++lru_tick_;
    return record->resident.get();
  }
  Result<Bytes> wire = record->store->UnsealLatest(config_.blob_auth);
  if (!wire.ok()) {
    if (wire.status().code() == StatusCode::kReplayDetected) {
      // Check 1 fired: the sealed payload's version is not the live counter.
      ++rollbacks_detected_;
      obs::Count(obs::Ctr::kVtpmRollbacksDetected);
      Quarantine(tenant, record);
      return RollbackDetectedError("stale vTPM snapshot for tenant " + tenant + ": " +
                                   wire.status().message());
    }
    return wire.status();
  }
  Result<VtpmState> state = VtpmState::Deserialize(wire.value());
  if (!state.ok()) {
    Quarantine(tenant, record);
    return IntegrityFailureError("tenant state blob corrupt: " + state.status().ToString());
  }
  // Check 2: the counter binding inside the state must name this store's
  // counter at its exact live reading.
  Result<uint64_t> live = machine_->tpm()->ReadCounter(record->store->counter_id());
  if (!live.ok()) {
    return live.status();
  }
  if (state.value().binding.counter_id != record->store->counter_id() ||
      state.value().binding.counter_value != live.value() ||
      state.value().binding.tenant_tag != TenantTag(tenant)) {
    ++rollbacks_detected_;
    obs::Count(obs::Ctr::kVtpmRollbacksDetected);
    Quarantine(tenant, record);
    return RollbackDetectedError("counter binding mismatch for tenant " + tenant);
  }
  record->resident = std::make_unique<VirtualTpm>(state.take());
  record->last_used = ++lru_tick_;
  FLICKER_RETURN_IF_ERROR(EvictLruIfNeeded());
  return record->resident.get();
}

Result<VirtualTpm*> VtpmManager::ResidentTenant(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return NotFoundError("no such tenant: " + tenant);
  }
  return LoadRecord(tenant, &it->second);
}

Status VtpmManager::RecoverAll() {
  obs::ScopedSpan span("vtpm", "vtpm.recover_all");
  Status first = Status::Ok();
  std::vector<std::string> rolled_back_creates;
  for (auto& [tenant, record] : tenants_) {
    Result<RecoveryClass> recovered = record.store->Recover();
    obs::Count(obs::Ctr::kVtpmRecoveries);
    if (!recovered.ok() || recovered.value() == RecoveryClass::kFailClosed) {
      Quarantine(tenant, &record);
      if (first.ok()) {
        first = recovered.ok() ? IntegrityFailureError("tenant store failed closed: " + tenant)
                               : recovered.status();
      }
      continue;
    }
    // The recovery decision itself is a durability boundary the double-fault
    // suite sweeps: a second cut here must leave the next RecoverAll able to
    // reach the same classification.
    CRASH_POINT("vtpm.recover.restored");
    if (!record.store->has_committed()) {
      // A create that crashed before its first snapshot committed: no
      // durable state ever existed, so the tenant rolls back to nonexistence.
      rolled_back_creates.push_back(tenant);
    }
  }
  for (const std::string& tenant : rolled_back_creates) {
    tenants_.erase(tenant);
  }
  return first;
}

void VtpmManager::OnPowerLoss() {
  for (auto& [tenant, record] : tenants_) {
    record.resident.reset();
  }
}

}  // namespace vtpm
}  // namespace flicker
