#include "src/common/fault.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>

namespace flicker {

namespace {

// Every CRASH_POINT site executed at least once in this process. The macro
// registers each site through a function-local static, so after the first
// execution the steady-state cost stays a guard check plus the null test.
// Two threads can first reach two different sites at once (the fleet build
// sets machines up on a pool), so the census sits behind a mutex.
std::mutex& CrashPointCensusMutex() {
  static std::mutex mutex;
  return mutex;
}

std::map<std::string, bool>& CrashPointCensus() {
  static std::map<std::string, bool> census;
  return census;
}

FaultScheduler*& ActiveSchedulerSlot() {
  static FaultScheduler* active = nullptr;
  return active;
}

}  // namespace

void FaultScheduler::OnCrashPoint(const char* name) {
  hits_.emplace_back(name);
  if (!armed_ || plan_.crash_at_hit == 0) {
    return;
  }
  if (!plan_.only_point.empty() && plan_.only_point != name) {
    return;
  }
  if (++hit_count_ == plan_.crash_at_hit) {
    armed_ = false;  // One crash per plan; recovery code must not re-crash.
    throw PowerLossException(name, plan_.crash_at_hit);
  }
}

void FaultScheduler::DumpCrashPoints(std::ostream& os) const {
  std::map<std::string, uint64_t> observed;
  for (const std::string& hit : hits_) {
    ++observed[hit];
  }
  const std::vector<std::string> registered = ExecutedCrashPointNames();
  os << "crash points (registered=" << registered.size()
     << ", observed by this scheduler=" << observed.size() << "):\n";
  for (const std::string& name : registered) {
    auto it = observed.find(name);
    if (it != observed.end()) {
      os << "  * " << name << " x" << it->second << "\n";
    } else {
      os << "    " << name << "\n";
    }
  }
  // Hits on sites whose registration we have not seen would mean the macro's
  // registration guard broke; surface them rather than hiding them.
  for (const auto& [name, count] : observed) {
    if (!std::binary_search(registered.begin(), registered.end(), name)) {
      os << "  ! " << name << " x" << count << " (unregistered)\n";
    }
  }
}

FaultScheduler* ActiveFaultScheduler() { return ActiveSchedulerSlot(); }

bool RegisterCrashPointSite(const char* name) {
  std::lock_guard<std::mutex> lock(CrashPointCensusMutex());
  CrashPointCensus()[name] = true;
  return true;
}

std::vector<std::string> ExecutedCrashPointNames() {
  std::lock_guard<std::mutex> lock(CrashPointCensusMutex());
  std::vector<std::string> names;
  names.reserve(CrashPointCensus().size());
  for (const auto& [name, unused] : CrashPointCensus()) {
    names.push_back(name);
  }
  return names;  // std::map iteration is already sorted.
}

bool WriteCrashPointCensus(const char* tag) {
  const char* prefix = std::getenv("FLICKER_CRASH_POINTS_OUT");
  if (prefix == nullptr || prefix[0] == '\0') {
    return true;
  }
  std::string path = std::string(prefix) + "." + tag + ".txt";
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& name : ExecutedCrashPointNames()) {
    out << name << "\n";
  }
  out.flush();
  if (!out) {
    std::fprintf(stderr, "WriteCrashPointCensus: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

FaultInjectionScope::FaultInjectionScope(FaultScheduler* scheduler)
    : previous_(ActiveSchedulerSlot()) {
  ActiveSchedulerSlot() = scheduler;
}

FaultInjectionScope::~FaultInjectionScope() { ActiveSchedulerSlot() = previous_; }

}  // namespace flicker
