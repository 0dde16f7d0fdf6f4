#ifndef GENBASE_SERVING_FAULTS_H_
#define GENBASE_SERVING_FAULTS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace genbase::serving {

/// \brief Deterministic fault injection for the serving stack.
///
/// A FaultInjector replays a *fault script*: a seeded, phase-structured
/// schedule of shard crashes/recoveries, latency-spike windows, transient
/// execute-error windows, and armed reload failures. Time is the stack's own
/// operation sequence (one tick per Serve), never the wall clock, so the same
/// script + seed produces the same fault event log on every run — the
/// property bench/fig9_faults gates on.
///
/// Hot-path contract: every injection hook call in src/serving/ must sit
/// behind `injector != nullptr && injector->enabled()` (the repo lint rule
/// fault-hook-guard enforces this), so a stack built without a script pays
/// one pointer compare per Serve and nothing else.
///
/// Script text format (see README "Fault tolerance"):
///
///     # comment
///     seed 42
///     phase fault              # sections; op indices restart at 0 per phase
///     @10 crash 1              # shard 1 refuses traffic from op 10 on
///     @200 recover 1
///     @10..300 latency 2 0.004 # +4ms modeled latency on shard 2 in window
///     @0..400 error * 0.3      # each execute attempt fails w.p. 0.3 ('*' =
///                              # any shard; a shard index narrows it)
///     @5 reload-fail 0         # arm: shard 0's next reload attempt fails
///
/// The driver moves between phases explicitly (AdvancePhase), typically one
/// phase per measured workload run, so scripts compose with the workload
/// runner's warmup/measure structure without counting its internal ops.

enum class FaultKind {
  kCrash = 0,
  kRecover,
  kLatencySpike,
  kTransientError,
  kReloadFailure,
  kNumFaultKinds,
};

const char* FaultKindName(FaultKind kind);

/// One scheduled action within a phase. Window kinds (latency, error) span
/// [at_op, until_op); point kinds (crash, recover, reload-fail) fire once at
/// at_op.
struct FaultAction {
  uint64_t at_op = 0;
  uint64_t until_op = 0;  ///< Exclusive window end; 0 for point actions.
  FaultKind kind = FaultKind::kCrash;
  int shard = -1;     ///< Target shard; -1 = any shard (error windows only).
  double param = 0.0; ///< Latency seconds / error probability.
};

struct FaultPhase {
  std::string name;
  std::vector<FaultAction> actions;
};

/// Parsed fault script: a seed plus ordered phases of actions.
struct FaultScript {
  uint64_t seed = 0;
  std::vector<FaultPhase> phases;

  static genbase::Result<FaultScript> Parse(std::string_view text);
};

/// Growth of the retry backoff base per attempt (exponential backoff).
inline constexpr double kRetryBackoffMultiplier = 2.0;

/// \brief Bounded retry knobs for the serving stack's miss path. Pure data;
/// the backoff math lives in the free functions below so its determinism,
/// cap, and deadline-budget properties are testable without a stack or a
/// clock.
struct RetryPolicy {
  /// Total execute attempts per op (1 = retries disabled, the default).
  int max_attempts = 1;
  double initial_backoff_s = 0.001;
  double max_backoff_s = 0.050;
};

/// Backoff before retry number `attempt` (1-based: the wait between attempt
/// N and attempt N+1 passes attempt=N). Exponential in `attempt` (base
/// x kRetryBackoffMultiplier per step), capped at max_backoff_s, with
/// deterministic jitter in [0.5, 1.0] x the capped base derived from
/// (seed, op, attempt) — a pure function, identical across runs.
double RetryBackoffSeconds(const RetryPolicy& policy, uint64_t seed,
                           uint64_t op, int attempt);

/// The stack's single retry decision point: returns true and sets
/// `*backoff_s` when retry `attempt` is within both the attempt budget and
/// the remaining deadline budget (`remaining_s`, +inf when the op has no
/// deadline); returns false otherwise. Because the stack sleeps exactly
/// `*backoff_s` only when this returns true, total retry wall-time can never
/// exceed the request deadline — the property tests/serving_test checks.
bool ScheduleRetry(const RetryPolicy& policy, uint64_t seed, uint64_t op,
                   int attempt, double remaining_s, double* backoff_s);

/// \brief Replays one FaultScript against a live stack. Thread-safe: the
/// per-op tick is an atomic increment plus one relaxed threshold compare;
/// scheduled state flips happen under an internal mutex exactly once, at the
/// first tick at/after their scheduled op.
class FaultInjector {
 public:
  static genbase::Result<std::unique_ptr<FaultInjector>> Create(
      const FaultScript& script);

  /// True when the script holds any action at all. Hooks below must only be
  /// reached behind this check (see the class comment).
  bool enabled() const { return enabled_; }

  /// Per-Serve tick: advances the op sequence, applies any scheduled
  /// actions that just came due, and returns this op's 1-based sequence
  /// number (the `op` fed to deterministic error draws and retry jitter).
  uint64_t OnServe();

  /// Moves to the next phase of the script: deactivates window faults,
  /// restarts the op sequence at 0, and logs a phase marker. Crash state
  /// persists across phases (a crashed shard stays down until a `recover`).
  /// Returns false when the script has no further phase (the injector then
  /// idles with whatever persistent state the last phase left).
  bool AdvancePhase();

  /// Injected-state queries (hot path; relaxed atomics, no locks).
  bool ShardCrashed(int shard) const;
  double ShardLatencySeconds(int shard) const;

  /// Deterministic transient-error draw for one execute attempt. Logs an
  /// event and counts the injection when it fires. Pure in (seed, op,
  /// attempt, shard) given the active windows.
  bool DrawTransientError(int shard, uint64_t op, int attempt);

  /// Consumes an armed reload failure for `shard` (true at most once per
  /// `reload-fail` action).
  bool ConsumeReloadFailure(int shard);

  /// Canonical fault event log: phase markers plus one line per applied
  /// action / fired draw, in application order. Byte-identical across runs
  /// of the same script + seed under a single-threaded driver; under
  /// concurrency the *set* of scheduled-action lines is still identical.
  std::string EventLog() const;

  /// Total injections by kind (cumulative), mirroring the
  /// serving_fault_injected_total{kind} registry counters.
  int64_t injected(FaultKind kind) const;
  int64_t injected_total() const;

  /// The `instance` label of this injector's registry counters.
  const std::string& metric_instance() const { return instance_; }

  uint64_t seed() const { return script_.seed; }

 private:
  /// A point event compiled from the script: window actions expand into an
  /// activate/deactivate pair.
  struct Event {
    uint64_t at_op = 0;
    FaultKind kind = FaultKind::kCrash;
    int shard = -1;
    double param = 0.0;
    bool window_end = false;  ///< Deactivation half of a window action.
  };

  explicit FaultInjector(FaultScript script);

  void CompilePhaseLocked(size_t phase_index);
  void ApplyDueLocked(uint64_t op);
  void LogLocked(std::string line);

  /// Mutable injected state per shard, sized for the largest shard index
  /// the script names (queries beyond that are trivially "no fault").
  struct ShardState {
    std::atomic<bool> crashed{false};
    std::atomic<double> latency_s{0.0};
    std::atomic<double> error_p{0.0};
  };

  const FaultScript script_;
  const bool enabled_;
  const std::string instance_;

  std::atomic<uint64_t> op_counter_{0};
  /// Op index of the next unapplied event (relaxed-read fast path; ~UINT64
  /// when the current phase has no events left).
  std::atomic<uint64_t> next_event_at_{~uint64_t{0}};
  std::atomic<double> any_shard_error_p_{0.0};

  mutable std::mutex mu_;
  size_t phase_index_ = 0;          ///< Guarded by mu_.
  std::vector<Event> events_;       ///< Current phase, sorted; mu_.
  size_t next_event_ = 0;           ///< Guarded by mu_.
  std::vector<bool> reload_armed_;  ///< Per shard; guarded by mu_.
  std::vector<std::string> log_;    ///< Guarded by mu_.

  std::vector<std::unique_ptr<ShardState>> shard_state_;

  obs::Counter* injected_by_kind_[static_cast<int>(
      FaultKind::kNumFaultKinds)] = {};
};

}  // namespace genbase::serving

#endif  // GENBASE_SERVING_FAULTS_H_
