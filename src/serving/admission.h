#ifndef GENBASE_SERVING_ADMISSION_H_
#define GENBASE_SERVING_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "obs/metrics.h"

namespace genbase::serving {

// --- adaptive-mode constants ----------------------------------------------
/// A class is heavy when its service EWMA exceeds this factor times the
/// cheapest observed class's EWMA.
inline constexpr double kHeavyServiceFactor = 4.0;
/// Share of the current limit heavy-class ops may occupy (floor 1 slot).
inline constexpr double kHeavyShare = 0.5;
/// EWMA smoothing for service times and queue waits.
inline constexpr double kEwmaAlpha = 0.2;
/// Winsorized service-EWMA update: one completion may contribute a sample
/// of at most this factor x the current estimate. A scheduler stall on an
/// oversubscribed host yields a wall-clock service sample tens of times the
/// true mean; unclamped, a single such outlier moves a cheap class's EWMA
/// across the kHeavyServiceFactor threshold (alpha 0.2 against a 4x bar)
/// and a brown-out then sheds traffic that was never heavy. Persistent
/// slowness still crosses the cap in a few completions (the estimate
/// compounds by up to this factor each update).
inline constexpr double kServiceOutlierCap = 4.0;
/// Brown-out engagement threshold: graceful degradation turns on only when
/// the published capacity factor (see SetCapacityFactor) drops below this
/// fraction — the heavy-class slot cap then loses its one-slot floor and
/// heavy arrivals that cannot start immediately are shed instead of
/// queued. Mild degradation above the threshold (one slow shard in a large
/// fleet, 31.5/32 = 0.984) only shrinks the cap proportionally; heavy
/// traffic still queues normally, so there is no shed-on-arrival cliff the
/// moment the factor dips under 1.0. Engages once the fleet has lost >= 10%
/// serving capacity.
inline constexpr double kBrownoutShedFactor = 0.9;
/// Classification hysteresis: a class is treated as heavy only after this
/// many consecutive *samples* observed above the kHeavyServiceFactor
/// threshold. The streak judges fresh samples, not the class EWMA: an EWMA
/// inflated by one stall burst stays above the threshold for several
/// completions while it decays, which would hand the streak exactly the
/// consecutive hits hysteresis exists to demand. With samples, the first
/// normal-speed completion resets the streak; a genuinely heavy class
/// accumulates it within its first few completions.
inline constexpr int kHeavyStreak = 3;

/// \brief Admission policy. Defaults leave admission disabled (everything
/// admitted instantly), so a stack can be configured as a pure cache/router.
///
/// Two modes:
///  * Static: `max_inflight` > 0 fixes the concurrency limit.
///  * Adaptive (`adaptive` = true): the limit is derived at runtime from
///    observed service times by a target-delay controller — it tracks the
///    slot count at which the measured backlog drains within
///    `target_queue_delay_s` (see AdaptiveNextLimit) — and per-query-class
///    service-time EWMAs classify operations as cheap or heavy. Heavy
///    classes (observed mean service > kHeavyServiceFactor x the cheapest
///    class) may hold at most kHeavyShare of the execution slots, so a
///    burst of biclustering runs can saturate its share while cheap lookups
///    still find a slot instead of being shed behind it.
struct AdmissionOptions {
  /// Static mode: operations allowed to execute concurrently. <= 0 disables
  /// admission control unless `adaptive` is set.
  int max_inflight = 0;
  /// Operations allowed to wait for an execution slot. An arrival finding
  /// the queue full is shed immediately (load shedding, not queueing). In
  /// adaptive mode, <= 0 means "2x the current limit" so queue depth scales
  /// with the controller instead of needing its own tuning.
  int max_queue = 0;
  /// Deadline-based shedding: an operation that cannot *start* executing
  /// within this many seconds of its scheduled arrival is shed, because by
  /// then its client has given up. <= 0 means wait indefinitely.
  double max_queue_delay_s = 0.0;

  /// --- adaptive target-delay controller ----------------------------------
  bool adaptive = false;
  /// Expected slot-wait the controller steers toward: the limit tracks
  /// ceil(observed backlog x observed mean service / this target), so
  /// concurrency is derived from measured service times instead of being
  /// hand-tuned per engine.
  double target_queue_delay_s = 0.05;
  int min_inflight = 1;
  int max_inflight_cap = 64;
  /// Completed operations between limit adjustments.
  int adjust_interval = 16;
};

enum class AdmissionOutcome {
  kAdmitted,
  kShedQueueFull,  ///< Rejected on arrival: queue at capacity.
  kShedTimeout,    ///< Gave up waiting: start deadline passed in queue.
};

const char* AdmissionOutcomeName(AdmissionOutcome outcome);

/// Pure adjustment step of the adaptive controller, exposed so its
/// convergence can be tested without timing. Little's law: a backlog of
/// `queue_len_ewma` ops with mean service `mean_service_s` drains through c
/// slots in ~queue * service / c seconds, so the limit that holds the
/// expected slot-wait at the target is ceil(queue * service / target). The
/// step moves at most a quarter of the current limit toward that point
/// (smoothing against EWMA noise) and clamps to [min_inflight,
/// max_inflight_cap].
///
/// `shed_pressure` — queue-full sheds observed since the last adjustment —
/// is the demand signal the delay math cannot see: the adaptive queue
/// bound scales with the limit (2x), so the observable backlog is capped
/// at 2 * limit and, for services much faster than the target delay, the
/// Little's-law term alone would pin a small limit forever while arrivals
/// are shed. Shed pressure vetoes shrinking and probes the limit up by
/// one instead; when the delay term itself calls for growth, growth
/// proceeds as usual.
int AdaptiveNextLimit(const AdmissionOptions& options, int current_limit,
                      double mean_service_s, double queue_len_ewma,
                      int64_t shed_pressure = 0);

/// \brief Bounded admission queue in front of the shard engines: at most
/// `limit` operations execute at once (fixed or adaptive, see
/// AdmissionOptions), at most the queue bound wait, and waiters give up at
/// their start deadline. Shedding on arrival (queue full) and in queue
/// (deadline) are counted separately so a report can say *why* goodput fell
/// short of offered load.
///
/// Mutex + condvar rather than atomics: admissions happen at operation
/// granularity (milliseconds+), never in a hot loop.
class AdmissionController {
 public:
  /// `instance` labels this controller's serving_admission_* registry
  /// instruments.
  AdmissionController(AdmissionOptions options, const std::string& instance);

  /// Blocks until an execution slot is granted, the queue rejects the
  /// arrival, or `start_deadline` passes. `waited_s` (optional) receives
  /// the time spent queued. `class_id` groups operations for the adaptive
  /// service-time model (the serving stack passes the query id); callers of
  /// the static mode can ignore it. `admitted_heavy` (optional) reports
  /// whether the op was counted against the heavy-class slot share — pass
  /// it back to Release so the share is credited correctly even if the
  /// class's classification changes while the op runs. Callers must
  /// Release() after kAdmitted only.
  AdmissionOutcome Admit(
      std::optional<std::chrono::steady_clock::time_point> start_deadline,
      double* waited_s = nullptr, int class_id = 0,
      bool* admitted_heavy = nullptr);

  /// Returns an execution slot and wakes waiters. `service_s` (>= 0) feeds
  /// the class's service-time EWMA; pass a negative value when the op did
  /// not really execute. `was_heavy` must echo Admit's `admitted_heavy`.
  void Release(int class_id = 0, double service_s = -1.0,
               bool was_heavy = false);

  bool enabled() const {
    return options_.max_inflight > 0 || options_.adaptive;
  }
  const AdmissionOptions& options() const { return options_; }

  /// Brown-out wiring: the serving stack pushes the router's serving
  /// capacity fraction (healthy=1, degraded=0.5, down=0 per shard, averaged)
  /// here. Below 1.0 the heavy-class slot cap shrinks proportionally;
  /// below kBrownoutShedFactor the cap additionally loses its one-slot
  /// floor and heavy arrivals that cannot start are shed immediately
  /// instead of queueing — heavy classes pay for the lost capacity first,
  /// so cheap Q1 traffic keeps its SLO through the brown-out. 1.0 (the
  /// default) is byte-for-byte the pre-fault behavior. Clamped to [0, 1];
  /// cheap (a relaxed atomic exchange) so the stack may call it every
  /// serve.
  void SetCapacityFactor(double factor);

  /// Current concurrency limit (fixed in static mode; the controller's live
  /// value in adaptive mode).
  int current_limit() const;
  /// Whether `class_id` currently classifies as heavy.
  bool IsHeavyClass(int class_id) const;
  /// Observed service-time EWMA for `class_id` (0 if never completed).
  double ClassServiceEwma(int class_id) const;

 private:
  struct ClassStat {
    double service_ewma_s = 0.0;
    int64_t completions = 0;
    /// Consecutive winsorized samples above the heavy threshold (see
    /// kHeavyStreak).
    int heavy_streak = 0;
  };

  bool IsHeavyLocked(int class_id) const;
  /// One fresh sample judged against the cheapest other class's EWMA —
  /// the streak's input, not the classification itself.
  bool SampleRatioHeavyLocked(int class_id, double sample_s) const;
  bool CanStartLocked(bool heavy) const;
  int HeavyCapLocked() const;
  int MaxQueueLocked() const;
  /// Registry shed counter for `class_id` (serving_admission_shed_total with
  /// a class label), resolved lazily on first shed of that class.
  obs::Counter* ShedCounterLocked(int class_id);

  const AdmissionOptions options_;
  const std::string instance_;  ///< Registry instance label value.

  mutable std::mutex mu_;
  std::condition_variable slot_free_;
  int limit_;
  int inflight_ = 0;
  int heavy_inflight_ = 0;
  int waiting_ = 0;
  double service_ewma_s_ = 0.0;  ///< Mean service across classes.
  int64_t service_samples_ = 0;
  double queue_ewma_ = 0.0;      ///< Mean queue depth seen by arrivals.
  int completions_since_adjust_ = 0;
  int64_t sheds_since_adjust_ = 0;  ///< Queue-full sheds (demand signal).
  std::map<int, ClassStat> classes_;
  /// Serving-capacity fraction from the router (see SetCapacityFactor).
  /// Atomic so the stack can publish it without taking mu_; readers under
  /// mu_ see a value at most one serve stale, which only shifts *when* a
  /// brown-out engages by one op.
  std::atomic<double> capacity_factor_{1.0};

  /// Registry instruments (serving_admission_* with this instance's label),
  /// updated under mu_. shed_brownout_ attributes a subset of
  /// shed_queue_full_: heavy arrivals shed because a brown-out shrank the
  /// heavy slot cap. peak_queue_gauge_ is a high-water mark and
  /// limit_gauge_ the live concurrency limit.
  obs::Counter* admitted_;
  obs::Counter* shed_queue_full_;
  obs::Counter* shed_timeout_;
  obs::Counter* shed_brownout_;
  obs::Gauge* peak_queue_gauge_;
  obs::Gauge* limit_gauge_;
  std::map<int, obs::Counter*> shed_by_class_;
};

}  // namespace genbase::serving

#endif  // GENBASE_SERVING_ADMISSION_H_
