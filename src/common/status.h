#ifndef GENBASE_COMMON_STATUS_H_
#define GENBASE_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace genbase {

/// \brief Error categories used across the library.
///
/// The set mirrors what the benchmark driver needs to distinguish: resource
/// exhaustion and deadline expiry are reported as the paper's "infinite"
/// results, everything else is a hard error.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfMemory,
  kDeadlineExceeded,
  kCancelled,
  kNotSupported,
  kIOError,
  kNotFound,
  kInternal,
};

/// \brief Returns a short human-readable name for a status code.
const char* StatusCodeName(StatusCode code);

/// \brief Arrow/RocksDB-style status object. Library functions never throw;
/// they return Status (or Result<T>).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfMemory(std::string msg) {
    return Status(StatusCode::kOutOfMemory, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsOutOfMemory() const { return code_ == StatusCode::kOutOfMemory; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }

  /// True for the failure classes the benchmark reports as INF (the paper's
  /// horizontal lines): memory exhaustion and timeout.
  bool IsResourceFailure() const {
    return IsOutOfMemory() || IsDeadlineExceeded();
  }

  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// \brief Value-or-Status, modeled on arrow::Result.
template <typename T>
class Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): mirroring arrow::Result.
  Result(T value) : value_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Status status) : value_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(value_); }
  const Status& status() const {
    static const Status kOkStatus = Status::OK();
    if (ok()) return kOkStatus;
    return std::get<Status>(value_);
  }

  const T& ValueOrDie() const& { return std::get<T>(value_); }
  T& ValueOrDie() & { return std::get<T>(value_); }
  T&& ValueOrDie() && { return std::get<T>(std::move(value_)); }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

 private:
  std::variant<T, Status> value_;
};

}  // namespace genbase

/// Propagates a non-OK Status from an expression.
#define GENBASE_RETURN_NOT_OK(expr)              \
  do {                                           \
    ::genbase::Status _st = (expr);              \
    if (!_st.ok()) return _st;                   \
  } while (0)

/// Assigns the value of a Result expression or propagates its Status.
#define GENBASE_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                  \
  if (!tmp.ok()) return tmp.status();                  \
  lhs = std::move(tmp).ValueOrDie();

#define GENBASE_ASSIGN_OR_RETURN_CONCAT(x, y) x##y
#define GENBASE_ASSIGN_OR_RETURN_NAME(x, y) \
  GENBASE_ASSIGN_OR_RETURN_CONCAT(x, y)

#define GENBASE_ASSIGN_OR_RETURN(lhs, rexpr)                                  \
  GENBASE_ASSIGN_OR_RETURN_IMPL(                                              \
      GENBASE_ASSIGN_OR_RETURN_NAME(_result_, __LINE__), lhs, rexpr)

#endif  // GENBASE_COMMON_STATUS_H_
