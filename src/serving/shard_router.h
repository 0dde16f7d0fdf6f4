#ifndef GENBASE_SERVING_SHARD_ROUTER_H_
#define GENBASE_SERVING_SHARD_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/datasets.h"
#include "core/driver.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "serving/faults.h"

namespace genbase::serving {

/// \brief Per-shard serving health, as routing sees it. Healthy shards get
/// plain join-shortest-queue traffic; degraded shards (latency-spike window
/// or a half-open circuit breaker) are deprioritized but still probed; down
/// shards (injected crash, failed reload, open breaker) are routed around
/// entirely while any alternative exists. Published as the
/// serving_shard_health gauge.
enum class ShardHealth {
  kHealthy = 0,
  kDegraded = 1,
  kDown = 2,
};

const char* ShardHealthName(ShardHealth health);

/// \brief Fans operations across N data-parallel engine shards.
///
/// Each shard is an independent engine instance with its own loaded copy of
/// the dataset and its own thread pool — the process-per-shard layout of a
/// scaled-out analytics service, so ops proceed in parallel with no shared
/// mutable state between shards. Routing is join-shortest-queue: an op goes
/// to the shard with the fewest outstanding ops (ties to the lowest id,
/// which keeps a 1-shard router byte-identical to the direct engine path).
///
/// Because every shard holds the full dataset, any shard's answer equals the
/// single-instance answer — the router never merges partial results, and
/// per-op verification against core/reference stays exact. Row-partitioned placement, where a query
/// fans out over data slices (core/datasets dims partitioned via
/// cluster::PartitionRows) and partial results merge through distributed
/// kernels, is what cluster::ClusterEngine models; pairing it with this
/// serving path is named in ROADMAP as the next scaling step.
class ShardRouter {
 public:
  using EngineFactory = std::function<std::unique_ptr<core::Engine>()>;

  /// Builds `shards` engine instances via `factory` and loads `data` into
  /// each. Fails if any shard fails to load. `instance` labels the router's
  /// serving_shard_* registry instruments (one series per shard).
  static genbase::Result<std::unique_ptr<ShardRouter>> Create(
      int shards, const EngineFactory& factory, const core::GenBaseData& data,
      const std::string& instance);

  int shards() const { return static_cast<int>(shards_.size()); }
  std::string engine_name() const { return shards_[0]->engine->name(); }

  /// Attaches a fault injector (non-owning; must outlive the router and be
  /// set before serving starts). Null (the default) keeps every injection
  /// hook unreachable — the zero-cost no-op configuration.
  void SetFaultInjector(FaultInjector* faults) { faults_ = faults; }

  /// Claims a shard for one op (increments its outstanding count); the
  /// matching RunOnShard releases it. Because every shard holds a full copy
  /// of the dataset, the fleet is a replica group and routing is
  /// failure-aware join-shortest-queue: down shards (crashed / failed
  /// reload / open breaker) are skipped while any alternative serves,
  /// degraded shards (latency spike, half-open breaker) are deprioritized
  /// but still probed, and ties go to the lowest id (a 1-shard healthy
  /// router stays byte-identical to the direct engine path). `exclude`
  /// (>= 0) asks for a different shard than a failed attempt used, honored
  /// whenever any other shard is available. If every shard is
  /// down, the least-loaded one is returned anyway — RunOnShard then fails
  /// fast instead of this call deadlocking. Only when every shard is
  /// draining (single-shard mid-reload) does this block.
  int AcquireShard(int exclude = -1);

  /// Executes one operation on shard `s` through core::RunCellWithContext
  /// (the timed, timeout-enforcing path), updates that shard's counters and
  /// breaker state, and releases it. `data_epoch` (optional) receives the
  /// generation of the dataset this shard holds (see dataset_epoch) —
  /// stable across the run, because reloads drain a shard before touching
  /// its data. `fault_op`/`attempt` feed the injector's deterministic
  /// transient-error draw (ignored with no injector attached). A crashed
  /// shard or one whose last reload failed answers an Internal error
  /// without touching the engine — failing fast is what lets the retry
  /// layer move the op to a replica.
  core::CellResult RunOnShard(int s, core::QueryId query,
                              core::DatasetSize size,
                              const core::DriverOptions& options,
                              ExecContext* ctx, uint64_t* data_epoch = nullptr,
                              uint64_t fault_op = 0, int attempt = 1);

  /// Rolling reload: one shard at a time is marked draining (AcquireShard
  /// routes around it), waited idle, and reloaded with `data` — the rest of
  /// the fleet keeps serving. An op therefore never observes a dataset swap
  /// mid-query; during the reload window different shards may serve
  /// different generations, which is inherent to rolling reloads and is
  /// what the serving stack's epoch-keyed cache exists to keep honest.
  /// Serialized against itself by the caller (ServingStack).
  genbase::Status ReloadShards(const core::GenBaseData& data);

  /// The fleet's dataset generation: the minimum *successfully loaded*
  /// generation across serving shards, i.e. the one every routable shard is
  /// guaranteed to have reached. Deliberately not the raw
  /// core::Engine::dataset_epoch — that counter advances on failed loads
  /// too, so comparing it across shards after a mid-roll failure would
  /// leave the fleet permanently desynchronized; per-shard generations only
  /// advance on success, so a failed roll heals on the next successful
  /// ReloadShards. Shards marked down by a failed reload are excluded from
  /// the minimum (they are routed around, so their stale generation must
  /// not pin the fleet's epoch) until a successful reload restores them.
  uint64_t dataset_epoch() const;

  /// Serving-capacity fraction for brown-out wiring: mean over shards of
  /// healthy=1, degraded=0.5, down=0, refreshed on every acquire and on
  /// health transitions. Relaxed read, safe from any thread.
  double capacity_fraction() const {
    return capacity_fraction_.load(std::memory_order_relaxed);
  }

  /// Republishes the capacity fraction and the serving_shard_health gauges.
  /// Routing does this on every acquire, result and reload; the serving
  /// stack also calls it after an injector tick, which can crash, recover
  /// or slow a shard without any op being routed (a cache hit).
  void RefreshHealth();

  /// Error-rate circuit breaker: this many consecutive non-timeout errors
  /// open a shard's breaker (health -> down); after kBreakerCooldownOps
  /// acquires fleet-wide the breaker goes half-open (health -> degraded)
  /// and the next result on that shard closes it (success) or re-opens it
  /// (error). Values chosen so the breaker reacts within one stampede burst
  /// but a single flaky op never benches a shard.
  static constexpr int kBreakerErrorThreshold = 3;
  static constexpr uint64_t kBreakerCooldownOps = 64;

 private:
  struct Shard {
    std::unique_ptr<core::Engine> engine;
    int outstanding = 0;       ///< Guarded by router mu_.
    bool draining = false;     ///< Guarded by router mu_.
    uint64_t generation = 0;   ///< Successfully loaded gen; guarded by mu_.
    /// Organic routing health (breaker / reload state; the injector's crash
    /// state overlays this at read time). Guarded by mu_.
    ShardHealth health = ShardHealth::kHealthy;
    bool reload_failed = false;      ///< Last reload failed; guarded by mu_.
    int consecutive_errors = 0;      ///< Breaker input; guarded by mu_.
    uint64_t breaker_open_until = 0; ///< acquire_seq_ tick; 0 = not open.
    /// Registry instruments (serving_shard_* with instance + shard labels),
    /// updated under router mu_. busy_s is a gauge that accumulates the
    /// per-op total (measured + modeled) seconds.
    obs::Counter* ops = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* infs = nullptr;
    obs::Gauge* busy_s = nullptr;
    obs::Counter* breaker_opens = nullptr;
    obs::Gauge* health_gauge = nullptr;
  };

  ShardRouter() = default;

  /// Effective health: the organic state overlaid with the injector's crash
  /// flag. Requires mu_.
  ShardHealth EffectiveHealthLocked(int s) const;
  /// Breaker bookkeeping for one completed attempt on shard s. Requires mu_.
  void NoteResultLocked(int s, bool error);
  /// Recomputes capacity_fraction_ and health gauges. Requires mu_.
  void RecomputeCapacityLocked();

  mutable std::mutex mu_;
  std::condition_variable shard_state_;  ///< Drain-idle + undrain wakeups.
  std::vector<std::unique_ptr<Shard>> shards_;
  uint64_t generation_ = 0;    ///< Last fleet-wide successful gen; mu_.
  uint64_t acquire_seq_ = 0;   ///< Breaker cooldown clock; guarded by mu_.
  std::atomic<double> capacity_fraction_{1.0};
  FaultInjector* faults_ = nullptr;  ///< Non-owning; set before serving.
};

}  // namespace genbase::serving

#endif  // GENBASE_SERVING_SHARD_ROUTER_H_
