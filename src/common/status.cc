#include "src/common/status.h"

namespace flicker {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid argument";
    case StatusCode::kFailedPrecondition:
      return "failed precondition";
    case StatusCode::kPermissionDenied:
      return "permission denied";
    case StatusCode::kNotFound:
      return "not found";
    case StatusCode::kIntegrityFailure:
      return "integrity failure";
    case StatusCode::kReplayDetected:
      return "replay detected";
    case StatusCode::kResourceExhausted:
      return "resource exhausted";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kTpmFailed:
      return "tpm failed";
    case StatusCode::kRollbackDetected:
      return "rollback detected";
    case StatusCode::kOverloaded:
      return "overloaded";
  }
  return "unknown";
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
Status PermissionDeniedError(std::string message) {
  return Status(StatusCode::kPermissionDenied, std::move(message));
}
Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
Status IntegrityFailureError(std::string message) {
  return Status(StatusCode::kIntegrityFailure, std::move(message));
}
Status ReplayDetectedError(std::string message) {
  return Status(StatusCode::kReplayDetected, std::move(message));
}
Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}
Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}
Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}
Status TpmFailedError(std::string message) {
  return Status(StatusCode::kTpmFailed, std::move(message));
}
Status RollbackDetectedError(std::string message) {
  return Status(StatusCode::kRollbackDetected, std::move(message));
}

}  // namespace flicker
