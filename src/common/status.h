// Lightweight error handling for the Flicker tree.
//
// The simulator models a platform where most failures are protocol-level
// (bad authorization, PCR mismatch, privilege violation) rather than
// exceptional host conditions, so we use explicit Status/Result values
// instead of exceptions.

#ifndef FLICKER_SRC_COMMON_STATUS_H_
#define FLICKER_SRC_COMMON_STATUS_H_

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace flicker {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    // malformed input (bad sizes, bad hex, bad header)
  kFailedPrecondition, // operation issued in the wrong platform state
  kPermissionDenied,   // privilege/ring/authorization failure
  kNotFound,           // missing key handle, NV index, sysfs entry, ...
  kIntegrityFailure,   // MAC/signature/PCR-binding check failed
  kReplayDetected,     // stale sealed blob or stale nonce
  kResourceExhausted,  // out of SLB space, NV space, counter overflow
  kUnavailable,        // transient transport failure; retry may succeed
  kInternal,           // simulator invariant broke (bug)
  kTpmFailed,          // TPM in failure mode; only Startup/GetTestResult work
  kRollbackDetected,   // persistent state older than the hardware counter says it must be
  kOverloaded,         // server shed the request under load; retry after backoff
};

// The highest code; wire decoders map anything above it to an error. Keep it
// on the last enumerator when adding a code.
inline constexpr StatusCode kLastStatusCode = StatusCode::kOverloaded;

// Human-readable name for a code ("kIntegrityFailure" -> "integrity failure").
const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<code name>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Value-or-error. `value()` asserts on error; callers must check `ok()`.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}                       // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {                // NOLINT(google-explicit-constructor)
    assert(!status_.ok() && "Result constructed from OK status without a value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const {
    DieIfError();
    return *value_;
  }
  T& value() {
    DieIfError();
    return *value_;
  }
  T&& take() {
    DieIfError();
    return std::move(*value_);
  }

 private:
  // Accessing the value of an error Result is always a hard programming
  // error; fail loudly even in optimized builds.
  void DieIfError() const {
    if (!ok()) {
      std::fprintf(stderr, "Result::value() on error: %s\n", status_.ToString().c_str());
      std::abort();
    }
  }

  Status status_;
  std::optional<T> value_;
};

// Convenience constructors mirroring absl::*Error.
Status InvalidArgumentError(std::string message);
Status FailedPreconditionError(std::string message);
Status PermissionDeniedError(std::string message);
Status NotFoundError(std::string message);
Status IntegrityFailureError(std::string message);
Status ReplayDetectedError(std::string message);
Status ResourceExhaustedError(std::string message);
Status UnavailableError(std::string message);
Status InternalError(std::string message);
Status TpmFailedError(std::string message);
Status RollbackDetectedError(std::string message);
Status OverloadedError(std::string message);

#define FLICKER_RETURN_IF_ERROR(expr)       \
  do {                                      \
    ::flicker::Status _st = (expr);         \
    if (!_st.ok()) {                        \
      return _st;                           \
    }                                       \
  } while (0)

}  // namespace flicker

#endif  // FLICKER_SRC_COMMON_STATUS_H_
