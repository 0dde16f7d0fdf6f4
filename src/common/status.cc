#include "common/status.h"

namespace genbase {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kOutOfMemory:
      return "OutOfMemory";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace genbase
