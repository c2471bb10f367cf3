// Deterministic cross-layer session tracing on the simulated clock.
//
// One Tracer records everything one run does as a single stream of nested
// spans and instant events, keyed by the monotonically assigned Flicker
// session id and timestamped in sim-clock nanoseconds. Because every
// timestamp comes from SimClock (never the host), the same seed produces a
// byte-identical export: traces are artifacts a test can diff, not
// screenshots of a lucky run.
//
// The span tree of one attestation round reads top-down through the stack:
//
//   attest.handle_challenge            (app/attest layer)
//     flicker.session #3               (core; the assigned session id)
//       platform.stage                 (flicker-module sysfs writes)
//       platform.suspend_skinit        (AP parking + SKINIT)
//         hw.skinit
//           TPM_HW_SkinitReset         (tpm; locality-4 pseudo-command)
//       slb.run
//         slb.stub_hash
//         slb.pal_execute
//         TPM_ORD_Extend ...           (closing extends)
//       platform.resume
//     tqd.quote
//       TPM_ORD_Quote                  (the 972 ms the paper measures)
//
// Instrumentation sites use ScopedSpan / Instant, which no-op (one
// thread-local pointer load + branch) while no tracer is installed; sites
// whose records carry formatted args (the TPM transport, the lossy wire)
// check GlobalTracer() themselves so the untraced path formats nothing.
// Installing a tracer never advances the simulated clock, so Table 1/2/4
// and Fig. 9 outputs are bit-identical with tracing on or off.
//
// Export format: Chrome trace_event JSON ("X" complete events + "i"
// instants), loadable in chrome://tracing or https://ui.perfetto.dev. The
// Flicker session id is mapped to the Chrome "tid" so Perfetto lays
// sessions out as separate tracks.

#ifndef FLICKER_SRC_OBS_TRACE_H_
#define FLICKER_SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/hw/clock.h"

namespace flicker {
namespace obs {

// The shared trace epoch: sim-clock nanoseconds since platform construction.
// Every trace timestamp in the tree - spans, instants, the `tpm` command
// spans and the `net` wire records - reports in this unit and epoch.
// SimClock itself keeps nanoseconds, so this is the clock's native reading;
// there is no µs→ns upscale hiding sub-microsecond charges.
inline uint64_t NowNs(const SimClock* clock) { return clock->NowNanos(); }

struct SpanArg {
  std::string key;
  std::string value;
};

struct SpanRecord {
  uint64_t id = 0;         // 1-based creation order.
  uint64_t parent_id = 0;  // 0 = root.
  uint64_t pid = 1;        // Chrome "process": 1 standalone, machine id in a fleet.
  uint64_t session_id = 0; // Flicker session id; 0 = outside any session.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;     // == start for zero-cost spans; set at EndSpan.
  bool open = false;       // True until EndSpan.
  const char* category = "";
  std::string name;
  std::vector<SpanArg> args;
};

struct InstantRecord {
  uint64_t ts_ns = 0;
  uint64_t pid = 1;        // Chrome "process": 1 standalone, machine id in a fleet.
  uint64_t session_id = 0;
  const char* category = "";
  std::string name;
  std::vector<SpanArg> args;
};

class Tracer {
 public:
  explicit Tracer(const SimClock* clock) : clock_(clock) {}

  // ---- Span API (single-threaded stack discipline) ----
  uint64_t BeginSpan(const char* category, std::string name);
  void EndSpan(uint64_t id);
  void AddSpanArg(uint64_t id, std::string key, std::string value);
  // An already-measured interval (e.g. the transport knows a command's
  // charged latency only after dispatch); parented under the innermost open
  // span like any other child.
  uint64_t EmitComplete(const char* category, std::string name, uint64_t start_ns,
                        uint64_t end_ns, std::vector<SpanArg> args = {});
  void Instant(const char* category, std::string name, std::vector<SpanArg> args = {});

  // ---- Flicker session annotation ----
  //
  // The platform assigns session ids monotonically; the tracer only tags
  // the spans recorded while a session is current. Nested sessions are not
  // a thing Flicker has, but SetSession returns the previous id so scoped
  // helpers restore correctly anyway.
  uint64_t SetSession(uint64_t session_id);
  uint64_t current_session() const { return current_session_; }

  // ---- Fleet process annotation ----
  //
  // In a fleet simulation every machine maps to its own Chrome "pid" so one
  // Perfetto load lays the whole fleet out as parallel process tracks.
  // Standalone runs keep the historical pid 1. Like SetSession, returns the
  // previous pid so scoped helpers restore correctly.
  uint64_t SetProcess(uint64_t pid);
  uint64_t current_process() const { return current_pid_; }

  // ---- Per-task recording ----
  //
  // An empty tracer on the same clock, process and session, for one task
  // that runs on another thread. Append() later adds its records after this
  // tracer's own, renumbering span ids as if they had been recorded here:
  // its root spans hang under this tracer's innermost open span. Appending
  // forked tracers in the order a serial run would have recorded them
  // yields that run's spans and export byte for byte.
  Tracer Fork() const;
  void Append(Tracer&& forked);

  const SimClock* clock() const { return clock_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<InstantRecord>& instants() const { return instants_; }
  size_t open_depth() const { return stack_.size(); }

  // Chrome trace_event JSON, deterministic: events ordered by (start, id),
  // fixed float formatting, no host state. Loadable in chrome://tracing and
  // Perfetto.
  std::string ExportChromeTrace() const;

 private:
  const SimClock* clock_;
  std::vector<SpanRecord> spans_;
  std::vector<InstantRecord> instants_;
  std::vector<uint64_t> stack_;  // Open span ids, innermost last.
  uint64_t current_session_ = 0;
  uint64_t current_pid_ = 1;
};

// ---- Global installation ----
//
// Instrumentation sites reach the tracer through one pointer per thread, so
// no constructor signature in hw/tpm/net/core had to change. Null (the
// default, and the state of every new thread) disables tracing. A Tracer
// is not synchronized: only the thread that installed it may record into
// it. Work fanned out to other threads (the fleet build's pool) installs a
// Fork() per task on the thread running it, and the owner Append()s the
// forks after joining them.
Tracer* GlobalTracer();
void InstallGlobalTracer(Tracer* tracer);  // Pass nullptr to uninstall.

// Installs `tracer` (possibly null) as this thread's tracer for exactly the
// scope's lifetime, then puts the previous one back.
class ScopedInstall {
 public:
  explicit ScopedInstall(Tracer* tracer) : previous_(GlobalTracer()) {
    InstallGlobalTracer(tracer);
  }
  ScopedInstall(const ScopedInstall&) = delete;
  ScopedInstall& operator=(const ScopedInstall&) = delete;
  ~ScopedInstall() { InstallGlobalTracer(previous_); }

 private:
  Tracer* previous_;
};

// A tracer installed as the global one for exactly its own lifetime; the
// previously installed tracer (usually none) comes back on destruction.
class ScopedTracer : public Tracer {
 public:
  explicit ScopedTracer(const SimClock* clock) : Tracer(clock), previous_(GlobalTracer()) {
    InstallGlobalTracer(this);
  }
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;
  ~ScopedTracer() { InstallGlobalTracer(previous_); }

 private:
  Tracer* previous_;
};

// RAII span against the global tracer; a no-op when none is installed.
class ScopedSpan {
 public:
  ScopedSpan(const char* category, const char* name) : ScopedSpan(category, std::string(name)) {}
  ScopedSpan(const char* category, std::string name) {
    Tracer* tracer = GlobalTracer();
    if (tracer != nullptr) {
      tracer_ = tracer;
      id_ = tracer->BeginSpan(category, std::move(name));
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->EndSpan(id_);
    }
  }

  void Arg(const char* key, const std::string& value) {
    if (tracer_ != nullptr) {
      tracer_->AddSpanArg(id_, key, value);
    }
  }
  void Arg(const char* key, uint64_t value) {
    if (tracer_ != nullptr) {
      tracer_->AddSpanArg(id_, key, std::to_string(value));
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  uint64_t id_ = 0;
};

// RAII Flicker-session annotation scope.
class ScopedSession {
 public:
  explicit ScopedSession(uint64_t session_id) {
    Tracer* tracer = GlobalTracer();
    if (tracer != nullptr) {
      tracer_ = tracer;
      previous_ = tracer->SetSession(session_id);
    }
  }
  ScopedSession(const ScopedSession&) = delete;
  ScopedSession& operator=(const ScopedSession&) = delete;
  ~ScopedSession() {
    if (tracer_ != nullptr) {
      tracer_->SetSession(previous_);
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  uint64_t previous_ = 0;
};

// RAII fleet-machine (Chrome pid) annotation scope.
class ScopedProcess {
 public:
  explicit ScopedProcess(uint64_t pid) {
    Tracer* tracer = GlobalTracer();
    if (tracer != nullptr) {
      tracer_ = tracer;
      previous_ = tracer->SetProcess(pid);
    }
  }
  ScopedProcess(const ScopedProcess&) = delete;
  ScopedProcess& operator=(const ScopedProcess&) = delete;
  ~ScopedProcess() {
    if (tracer_ != nullptr) {
      tracer_->SetProcess(previous_);
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  uint64_t previous_ = 1;
};

inline void Instant(const char* category, const char* name, std::vector<SpanArg> args = {}) {
  Tracer* tracer = GlobalTracer();
  if (tracer != nullptr) {
    tracer->Instant(category, name, std::move(args));
  }
}

}  // namespace obs
}  // namespace flicker

#endif  // FLICKER_SRC_OBS_TRACE_H_
