#ifndef GENBASE_COMMON_EXEC_CONTEXT_H_
#define GENBASE_COMMON_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "common/memory_tracker.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace genbase {

/// \brief Benchmark phases the paper breaks out (Figures 2 and 4).
/// Glue is the paper's "copy/reformat data between systems" cost; it is
/// reported inside data management totals unless broken out.
enum class Phase { kDataManagement = 0, kAnalytics = 1, kGlue = 2 };
inline constexpr int kNumPhases = 3;

const char* PhaseName(Phase phase);

class ScopedPhase;

/// \brief Accumulates measured wall seconds plus modeled virtual seconds per
/// phase. Virtual seconds cover costs the host machine cannot physically
/// incur (simulated network links, coprocessor transfer/compute); they are
/// folded into totals so bench output reflects the modeled deployment.
class PhaseClock {
 public:
  void AddMeasured(Phase phase, double seconds) {
    measured_[static_cast<int>(phase)] += seconds;
  }
  void AddVirtual(Phase phase, double seconds) {
    virtual_[static_cast<int>(phase)] += seconds;
  }

  double measured(Phase phase) const {
    return measured_[static_cast<int>(phase)];
  }
  double modeled(Phase phase) const {
    return virtual_[static_cast<int>(phase)];
  }
  double total(Phase phase) const {
    return measured(phase) + modeled(phase);
  }
  double grand_total() const {
    double t = 0;
    for (int i = 0; i < kNumPhases; ++i) t += measured_[i] + virtual_[i];
    return t;
  }

  void Reset() {
    for (int i = 0; i < kNumPhases; ++i) measured_[i] = virtual_[i] = 0.0;
  }

 private:
  double measured_[kNumPhases] = {0, 0, 0};
  double virtual_[kNumPhases] = {0, 0, 0};
};

/// \brief Per-query execution context threaded through every operator and
/// analytics kernel: deadline, cancellation, memory budget, thread budget,
/// and phase accounting.
class ExecContext {
 public:
  ExecContext() = default;

  /// Sets an absolute deadline `seconds` from now. The paper used a 2-hour
  /// cutoff; the bench driver uses a scaled default (GENBASE_TIMEOUT).
  void SetDeadlineAfter(double seconds) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds));
  }
  void ClearDeadline() { deadline_.reset(); }

  /// Returns the context to a fresh state so one context can be reused
  /// across operations (the workload runner keeps one per client thread).
  /// Engine-installed pointers (memory, pool) are left in place; the next
  /// PrepareContext overwrites them anyway.
  void ResetForRun() {
    deadline_.reset();
    cancelled_.store(false, std::memory_order_relaxed);
    clock_.Reset();
  }

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Cooperative check, called inside operator/iteration loops. Cheap enough
  /// to call every few thousand tuples.
  Status CheckBudgets() const {
    if (cancelled()) return Status::Cancelled("query cancelled");
    if (deadline_.has_value() &&
        std::chrono::steady_clock::now() > *deadline_) {
      return Status::DeadlineExceeded("query exceeded time budget");
    }
    return Status::OK();
  }

  MemoryTracker* memory() const { return memory_; }
  void set_memory(MemoryTracker* tracker) { memory_ = tracker; }

  ThreadPool* pool() const { return pool_; }
  void set_pool(ThreadPool* pool) { pool_ = pool; }
  int num_threads() const {
    return pool_ == nullptr ? 1 : std::max(1, pool_->num_threads());
  }

  PhaseClock& clock() { return clock_; }
  const PhaseClock& clock() const { return clock_; }

 private:
  friend class ScopedPhase;

  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::atomic<bool> cancelled_{false};
  MemoryTracker* memory_ = nullptr;
  ThreadPool* pool_ = nullptr;
  PhaseClock clock_;
  ScopedPhase* innermost_phase_ = nullptr;  ///< Open scope being charged.
};

/// \brief RAII phase timer: measures wall time of a scope into the context's
/// phase clock. Scopes on one context nest exclusively: opening a scope
/// pauses the enclosing one until it closes, so each second is charged to
/// exactly one phase and the phases sum to at most the outer wall time.
/// Scopes on one context must open and close on one thread, innermost
/// first (RAII order).
class ScopedPhase {
 public:
  ScopedPhase(ExecContext* ctx, Phase phase) : ctx_(ctx), phase_(phase) {
    if (ctx_ == nullptr) return;
    outer_ = ctx_->innermost_phase_;
    ctx_->innermost_phase_ = this;
    if (outer_ != nullptr) {
      outer_->Charge();
      timer_.Restart();  // After the outer scope stopped: no double charge.
    }
  }
  ~ScopedPhase() {
    if (ctx_ == nullptr) return;
    Charge();
    ctx_->innermost_phase_ = outer_;
    if (outer_ != nullptr) outer_->timer_.Restart();
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  /// Books the time since the last (re)start to this scope's phase.
  void Charge() { ctx_->clock().AddMeasured(phase_, timer_.Seconds()); }

  ExecContext* ctx_;
  Phase phase_;
  ScopedPhase* outer_ = nullptr;
  WallTimer timer_;
};

}  // namespace genbase

#endif  // GENBASE_COMMON_EXEC_CONTEXT_H_
