// Deterministic power-loss fault injection.
//
// Crash consistency can only be tested if a "power cut" can strike between
// any two durable writes. Components on the SKINIT -> PAL -> seal -> exit
// path instrument those boundaries with CRASH_POINT("name"); a harness arms
// a FaultScheduler with a CrashPlan ("crash at the Nth hit") and replays the
// same deterministic workload once per hit, so every interleaving of crash x
// recovery is swept by an ordinary test.
//
// A power cut is not a Status: no code under test may catch and "handle" it,
// exactly as real software cannot intercept the mains dropping. It is a
// dedicated exception type that unwinds to the harness, leaving whatever
// torn intermediate state the interrupted component had already made
// durable. Only test harnesses may catch PowerLossException.
//
// The scheduler is installed process-globally (RAII FaultInjectionScope)
// rather than plumbed through six layers of constructors; production builds
// never install one, so CRASH_POINT is a single null check.

#ifndef FLICKER_SRC_COMMON_FAULT_H_
#define FLICKER_SRC_COMMON_FAULT_H_

#include <cstdint>
#include <exception>
#include <iosfwd>
#include <string>
#include <vector>

namespace flicker {

// Where and when to cut power. `crash_at_hit` counts CRASH_POINT executions
// 1-based from Arm(); 0 never fires (pure recording). When `only_point` is
// non-empty, only hits with that exact name are counted.
struct CrashPlan {
  uint64_t crash_at_hit = 0;
  std::string only_point;
};

// Thrown by CRASH_POINT when the armed plan elects the current hit. Carries
// the site name and the 1-based hit index for diagnostics.
class PowerLossException : public std::exception {
 public:
  PowerLossException(std::string point, uint64_t hit_index)
      : point_(std::move(point)),
        hit_index_(hit_index),
        what_("simulated power loss at crash point '" + point_ + "' (hit " +
              std::to_string(hit_index_) + ")") {}

  const char* what() const noexcept override { return what_.c_str(); }
  const std::string& point() const { return point_; }
  uint64_t hit_index() const { return hit_index_; }

 private:
  std::string point_;
  uint64_t hit_index_;
  std::string what_;
};

// Counts crash-point hits and fires the armed plan. Also records the ordered
// hit names so a recording pass can enumerate the crash surface of a
// workload before the replay passes sweep it.
class FaultScheduler {
 public:
  // Starts counting hits from zero under `plan`.
  void Arm(const CrashPlan& plan) {
    plan_ = plan;
    armed_ = true;
    hit_count_ = 0;
  }
  void Disarm() { armed_ = false; }
  bool armed() const { return armed_; }

  // Called by CRASH_POINT. Records the hit; throws PowerLossException when
  // the armed plan's index is reached.
  void OnCrashPoint(const char* name);

  // Ordered names of every hit observed since the last ClearHits/Arm.
  const std::vector<std::string>& hits() const { return hits_; }
  void ClearHits() { hits_.clear(); }

  uint64_t hit_count() const { return hit_count_; }

  // The process-wide crash-point census (every CRASH_POINT site that has
  // executed, fault injection armed or not), one name per line with a '*'
  // marker and hit count for the sites this scheduler observed. Failing-test
  // fixtures print it alongside the cell's exported trace; the verify.sh
  // crash-point coverage gate consumes the same census via
  // WriteCrashPointCensus().
  void DumpCrashPoints(std::ostream& os) const;

 private:
  CrashPlan plan_;
  bool armed_ = false;
  uint64_t hit_count_ = 0;
  std::vector<std::string> hits_;
};

// The process-global scheduler CRASH_POINT consults; null when no harness
// has installed one.
FaultScheduler* ActiveFaultScheduler();

// Registers one CRASH_POINT site in the process-wide census the first time
// it executes. Called through a function-local static in the macro, so the
// steady-state cost stays a guard check. Always returns true.
bool RegisterCrashPointSite(const char* name);

// Sorted names of every crash-point site executed so far in this process.
std::vector<std::string> ExecutedCrashPointNames();

// Writes the census (one name per line, sorted) to
// "$FLICKER_CRASH_POINTS_OUT.<tag>.txt" for the verify.sh coverage gate.
// A no-op returning true when the environment variable is unset (plain
// developer runs produce no files); false only on an I/O error.
bool WriteCrashPointCensus(const char* tag);

// Installs `scheduler` as the active one for the current scope. Nestable;
// the previous scheduler is restored on destruction.
class FaultInjectionScope {
 public:
  explicit FaultInjectionScope(FaultScheduler* scheduler);
  ~FaultInjectionScope();

  FaultInjectionScope(const FaultInjectionScope&) = delete;
  FaultInjectionScope& operator=(const FaultInjectionScope&) = delete;

 private:
  FaultScheduler* previous_;
};

}  // namespace flicker

// Marks a durability boundary: the instants immediately before/after this
// statement are distinct crash states. Free (one null check) unless a
// FaultInjectionScope is active.
#define CRASH_POINT(name)                                                  \
  do {                                                                     \
    static const bool _flicker_cp_registered =                             \
        ::flicker::RegisterCrashPointSite(name);                           \
    (void)_flicker_cp_registered;                                          \
    ::flicker::FaultScheduler* _flicker_fs = ::flicker::ActiveFaultScheduler(); \
    if (_flicker_fs != nullptr) {                                          \
      _flicker_fs->OnCrashPoint(name);                                     \
    }                                                                      \
  } while (0)

#endif  // FLICKER_SRC_COMMON_FAULT_H_
