// VtpmManager: vtpmmgr-style multiplexing of N per-tenant virtual TPMs over
// the one hardware TPM.
//
// Every tenant owns a CrashConsistentSealedStore (its own hardware monotonic
// counter) holding the tenant's sealed VtpmState. The manager's in-RAM
// VirtualTpm instances are a bounded working set (LRU-evicted at
// max_resident); the stores' staged/committed slots model the untrusted
// disk, so they survive machine resets while resident instances do not.
//
// Rollback defense, twice over:
//   1. The store's two-phase seal embeds the counter version in the sealed
//      payload; UnsealLatest rejects any blob whose version is not the live
//      counter reading (kReplayDetected).
//   2. The VtpmState inside carries a VtpmCounterBinding naming the counter
//      and the exact value it must read; LoadTenant re-checks it after
//      unsealing. Either check failing maps to kRollbackDetected and
//      quarantines the tenant fail-closed: a stale snapshot must never
//      attest, derive keys, or accept extends.
//
// Durability boundaries are CRASH_POINT-instrumented (create / extend /
// snapshot-serialize / snapshot-seal / evict / recover) and swept by the
// vTPM crash matrix.

#ifndef FLICKER_SRC_VTPM_VTPM_MANAGER_H_
#define FLICKER_SRC_VTPM_VTPM_MANAGER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/core/sealed_state.h"
#include "src/hw/machine.h"
#include "src/vtpm/vtpm.h"

namespace flicker {
namespace vtpm {

struct VtpmManagerConfig {
  // Resident working-set bound; the least recently used tenant is
  // snapshot-evicted when a load would exceed it.
  size_t max_resident = 4;
  // Hardware TPM owner secret (counter creation is owner-authorized).
  Bytes owner_secret;
  // Usage secret on every tenant's sealed snapshot.
  Bytes blob_auth;
  // PCR 17 value the group seal binds to (the manager PAL's identity; tests
  // bind to the current OS-context value, like the crash matrix does).
  Bytes release_pcr17;
};

class VtpmManager {
 public:
  VtpmManager(Machine* machine, VtpmManagerConfig config);

  // Provisions a tenant: dedicated store + counter, fresh VtpmState,
  // initial snapshot sealed.
  Status CreateTenant(const std::string& tenant, const Bytes& owner_auth);

  // Owner-authorized vPCR extend on the resident instance (RAM only; made
  // durable by the next snapshot).
  Status Extend(const std::string& tenant, int index, const Bytes& owner_auth,
                const Bytes& measurement);

  // Serializes the resident state (generation+1, counter binding re-bound to
  // the post-seal counter value) and seals it through the tenant's store.
  Status SnapshotTenant(const std::string& tenant);

  // Snapshot, then drop the resident instance (working-set management).
  Status EvictTenant(const std::string& tenant);

  // Loads (unseal + deserialize + binding check) the tenant if not resident;
  // returns the live instance. kRollbackDetected quarantines the tenant.
  Result<VirtualTpm*> ResidentTenant(const std::string& tenant);

  // Post-reset recovery: runs every tenant store's Recover() and verifies
  // each tenant still loads. Tenants whose state fails the rollback or
  // recovery checks are quarantined; healthy tenants keep running. The
  // returned status is the first failure, after every tenant was attempted.
  Status RecoverAll();

  // Power-domain hook: resident instances lived in RAM.
  void OnPowerLoss();

  bool TenantExists(const std::string& tenant) const { return tenants_.count(tenant) != 0; }
  bool TenantQuarantined(const std::string& tenant) const;
  bool TenantResident(const std::string& tenant) const;
  size_t resident_count() const;
  uint64_t rollbacks_detected() const { return rollbacks_detected_; }

  Machine* machine() { return machine_; }

  // The untrusted disk, for rollback-attack tests: lets a test capture and
  // restore a tenant's staged/committed slots around a later snapshot.
  CrashConsistentSealedStore* StoreForTest(const std::string& tenant);

 private:
  struct TenantRecord {
    // Disk surface: survives resets.
    std::unique_ptr<CrashConsistentSealedStore> store;
    // RAM surface: cleared by OnPowerLoss.
    std::unique_ptr<VirtualTpm> resident;
    uint64_t last_used = 0;  // LRU tick.
    bool quarantined = false;
  };

  Status SnapshotRecord(const std::string& tenant, TenantRecord* record);
  Result<VirtualTpm*> LoadRecord(const std::string& tenant, TenantRecord* record);
  Status EvictLruIfNeeded();
  void Quarantine(const std::string& tenant, TenantRecord* record);

  Machine* machine_;
  VtpmManagerConfig config_;
  std::map<std::string, TenantRecord> tenants_;  // Sorted: deterministic sweeps.
  uint64_t lru_tick_ = 0;
  uint64_t rollbacks_detected_ = 0;
};

}  // namespace vtpm
}  // namespace flicker

#endif  // FLICKER_SRC_VTPM_VTPM_MANAGER_H_
