#ifndef GENBASE_COMMON_MEMORY_TRACKER_H_
#define GENBASE_COMMON_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>

#include "common/status.h"

namespace genbase::obs {
class Gauge;
}  // namespace genbase::obs

namespace genbase {

/// \brief Byte-accounting with a budget. Each engine run owns a tracker sized
/// to the memory model of the system it emulates; exceeding the budget turns
/// into Status::OutOfMemory, which the benchmark driver reports as INF —
/// exactly the paper's "temporary space allocation failed" outcome.
///
/// Labelled trackers additionally export `memory_tracker_used_bytes`,
/// `memory_tracker_peak_bytes` and `memory_tracker_budget_bytes` gauges
/// (labels: tracker=<label>, instance=<unique>) so memory pressure shows up
/// in METRICS_* snapshots next to the serving counters. Unlabelled trackers
/// stay metrics-free — tests construct thousands of them.
class MemoryTracker {
 public:
  static constexpr int64_t kUnlimited =
      std::numeric_limits<int64_t>::max();

  explicit MemoryTracker(int64_t budget_bytes = kUnlimited,
                         std::string label = "");

  /// Attempts to reserve bytes against the budget.
  Status Reserve(int64_t bytes);

  /// Releases a previous reservation.
  void Release(int64_t bytes);

  int64_t used() const { return used_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  /// Monotone sum of every successful reservation — never decremented, so
  /// before/after deltas measure allocation activity inside a window even
  /// when everything was released again (the profiler's per-request
  /// alloc_delta_bytes).
  int64_t reserved_total() const {
    return reserved_total_.load(std::memory_order_relaxed);
  }
  int64_t budget() const { return budget_; }
  const std::string& label() const { return label_; }

  void Reset() {
    used_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  void PublishGauges(int64_t used_now);

  std::atomic<int64_t> used_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<int64_t> reserved_total_{0};
  int64_t budget_;
  std::string label_;
  obs::Gauge* used_gauge_ = nullptr;  ///< Non-null only for labelled trackers.
  obs::Gauge* peak_gauge_ = nullptr;
};

/// \brief RAII reservation; releases on destruction. Use via Acquire().
class ScopedReservation {
 public:
  ScopedReservation() : tracker_(nullptr), bytes_(0) {}
  ScopedReservation(ScopedReservation&& other) noexcept
      : tracker_(other.tracker_), bytes_(other.bytes_) {
    other.tracker_ = nullptr;
    other.bytes_ = 0;
  }
  ScopedReservation& operator=(ScopedReservation&& other) noexcept {
    ReleaseNow();
    tracker_ = other.tracker_;
    bytes_ = other.bytes_;
    other.tracker_ = nullptr;
    other.bytes_ = 0;
    return *this;
  }
  ScopedReservation(const ScopedReservation&) = delete;
  ScopedReservation& operator=(const ScopedReservation&) = delete;
  ~ScopedReservation() { ReleaseNow(); }

  /// Reserves `bytes` from `tracker` (nullptr tracker = no-op success).
  static Result<ScopedReservation> Acquire(MemoryTracker* tracker,
                                           int64_t bytes);

  int64_t bytes() const { return bytes_; }

  void ReleaseNow() {
    if (tracker_ != nullptr && bytes_ > 0) tracker_->Release(bytes_);
    tracker_ = nullptr;
    bytes_ = 0;
  }

 private:
  ScopedReservation(MemoryTracker* tracker, int64_t bytes)
      : tracker_(tracker), bytes_(bytes) {}

  MemoryTracker* tracker_;
  int64_t bytes_;
};

/// \brief A reservation that grows in steps, from any thread, and releases
/// everything on destruction: for state that is charged when it is built
/// and again each time it grows.
class GrowingReservation {
 public:
  /// A null tracker charges nothing but still counts bytes().
  explicit GrowingReservation(MemoryTracker* tracker) : tracker_(tracker) {}
  GrowingReservation(const GrowingReservation&) = delete;
  GrowingReservation& operator=(const GrowingReservation&) = delete;
  ~GrowingReservation() {
    if (tracker_ != nullptr) tracker_->Release(bytes());
  }

  /// Reserves `bytes` more; on failure nothing is reserved.
  Status Grow(int64_t bytes) {
    if (tracker_ != nullptr) {
      Status st = tracker_->Reserve(bytes);
      if (!st.ok()) return st;
    }
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    return Status::OK();
  }

  int64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  MemoryTracker* tracker_;
  std::atomic<int64_t> bytes_{0};
};

}  // namespace genbase

#endif  // GENBASE_COMMON_MEMORY_TRACKER_H_
