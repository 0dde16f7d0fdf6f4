#ifndef GENBASE_SERVING_SERVING_STACK_H_
#define GENBASE_SERVING_SERVING_STACK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/sim_cluster.h"
#include "common/single_flight.h"
#include "common/status.h"
#include "core/datasets.h"
#include "core/driver.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/admission.h"
#include "serving/faults.h"
#include "serving/result_cache.h"
#include "serving/shard_router.h"

namespace genbase::serving {

/// \brief Configuration of one serving stack instance.
struct ServingOptions {
  int shards = 1;

  bool cache_enabled = true;
  int64_t cache_max_entries = 256;
  int64_t cache_max_bytes = 64LL << 20;

  /// Coalesce concurrent cache misses on one key into a single engine
  /// execution (stampede control). Only meaningful with the cache enabled —
  /// followers are served through the leader's published result exactly as
  /// a hit would be.
  bool single_flight = true;

  /// Defaults keep admission disabled (nothing is shed).
  AdmissionOptions admission;

  /// Bounded retries (exponential backoff, deterministic jitter) on the
  /// miss path. The default disables them. The retry budget is the op's
  /// single start deadline — computed once per Serve and shared with the
  /// single-flight fallback path, so retries and follower fallbacks drain
  /// one clock.
  RetryPolicy retry;

  /// Fault injector replayed against this stack (non-owning; must outlive
  /// it). Null — the default — keeps every injection hook unreachable.
  FaultInjector* fault_injector = nullptr;
};

/// \brief Outcome of one Serve() call. Exactly one of these holds: the op
/// was shed (cell carries the shed status, no result), or it was served
/// (from cache, a coalesced flight, or a shard) and `cell` is a normal
/// driver cell.
struct ServeResult {
  core::CellResult cell;
  AdmissionOutcome admission = AdmissionOutcome::kAdmitted;
  bool shed = false;
  bool cache_hit = false;
  /// Served from another op's in-flight computation (single-flight
  /// follower). Reported with cache_hit set: it is a serving-tier answer.
  bool coalesced = false;
  int shard = -1;  ///< Executing shard; -1 for hits and sheds.
  /// Seconds by request stage, filled for every op (sampled or not). The
  /// time queued (admission or flight wait) is stages.Queued(), and cache +
  /// dispatch + execute == cell.total_s (verify is added by the workload
  /// runner), so per-stage histograms always sum consistently with
  /// end-to-end latency.
  obs::StageSeconds stages;
  /// The stale-hit tripwire fired on this op's lookup (it was healed by a
  /// recompute — see Serve — but the runner tail-keeps the trace).
  bool stale_tripwire = false;
  /// Extra execute attempts this op needed after failures (0 = first try
  /// served). The runner tail-keeps any op that retried.
  int retries = 0;
};

/// \brief The serving layer: result cache, then single-flight coalescing,
/// then admission control, then the shard router, in front of one or more
/// loaded engines. Serve() is shaped like core::RunCellWithContext — the
/// workload runner drives either path interchangeably.
///
/// Layer order is the production one: cache hits are answered before
/// admission (a hit costs microseconds plus the modeled network round trip,
/// so shedding it would throw away nearly free goodput), concurrent misses
/// on one key collapse into a single execution, and only the leaders of
/// those flights compete for the bounded execution slots.
///
/// Dataset churn: every cache key carries the dataset epoch
/// (core::Engine::dataset_epoch), so ReloadDataset — a rolling, drain-based
/// shard reload — invalidates the previous generation by construction
/// instead of clearing the cache under in-flight inserts.
class ServingStack {
 public:
  /// Builds and loads `options.shards` engine instances. The stack owns its
  /// shards; `data` is only borrowed for loading.
  static genbase::Result<std::unique_ptr<ServingStack>> Create(
      const ServingOptions& options, const ShardRouter::EngineFactory& factory,
      const core::GenBaseData& data);

  const ServingOptions& options() const { return options_; }
  std::string engine_name() const { return router_->engine_name(); }
  int shards() const { return router_->shards(); }

  /// Serves one operation. `scheduled_arrival`, when set (open-loop
  /// workloads), anchors deadline-based shedding: the op must *start*
  /// executing within admission.max_queue_delay_s of its scheduled arrival,
  /// not of whenever a dispatch thread got around to issuing it. The same
  /// deadline bounds a single-flight follower's wait.
  ServeResult Serve(core::QueryId query, core::DatasetSize size,
                    const core::DriverOptions& options, ExecContext* ctx,
                    std::optional<std::chrono::steady_clock::time_point>
                        scheduled_arrival = std::nullopt);

  /// Swaps every shard to `data` (rolling drain-and-reload; serving
  /// continues on the other shards throughout) and advances the stack's
  /// epoch so all previous-generation cache entries become unreachable,
  /// then reclaims them. Safe to call while Serve() runs concurrently;
  /// concurrent ReloadDataset calls serialize.
  genbase::Status ReloadDataset(const core::GenBaseData& data);

  /// The dataset generation new serves are keyed under.
  uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// The `instance` label values of this stack's registry instruments: the
  /// one its cache, admission controller, router and flight/retry counters
  /// share, plus the attached fault injector's. Open an obs::MetricsWindow
  /// over these to read what the stack counted.
  std::vector<std::string> metric_instances() const;

 private:
  using Flights = SingleFlight<CacheKey, core::QueryResult, CacheKeyHash>;

  ServingStack(const ServingOptions& options, const std::string& instance,
               std::unique_ptr<ShardRouter> router);

  /// The miss path, filling `served`: admission, shard execution (with
  /// bounded retries), network model and cache insert. `start_deadline` is
  /// computed once per op in Serve: a follower that falls back here after a
  /// failed flight must not get a fresh budget, and the retry loop spends
  /// the same budget (see tests/serving_test FollowerFallbackKeepsDeadline).
  /// `op_id` is the op's sequence number — the injector's when one is
  /// attached, the stack's own otherwise — seeding deterministic fault
  /// draws and backoff jitter.
  void ExecuteMiss(ServeResult* served, const CacheKey& key,
                   core::QueryId query, core::DatasetSize size,
                   const core::DriverOptions& options, ExecContext* ctx,
                   std::optional<std::chrono::steady_clock::time_point>
                       start_deadline,
                   uint64_t op_id);

  std::optional<std::chrono::steady_clock::time_point> StartDeadline(
      std::optional<std::chrono::steady_clock::time_point> scheduled_arrival)
      const;

  /// Fills `served` for an op answered at the serving tier (cache hit or
  /// coalesced flight result): `spent_s` real seconds plus the modeled
  /// network round trip, no engine work.
  void ServedFromTier(ServeResult* served, core::QueryId query,
                      core::DatasetSize size, core::QueryResult result,
                      double spent_s, const core::DriverOptions& options,
                      bool coalesced);

  /// Fills `served` for a shed op (admission or flight-wait deadline); the
  /// wait is already in the op's queue or flight stage.
  void Shed(ServeResult* served, core::QueryId query, core::DatasetSize size,
            AdmissionOutcome outcome, const std::string& detail);

  ServingOptions options_;
  ResultCache cache_;
  /// Concurrent misses on one key: one leader executes, followers wait for
  /// its servable result. Keys carry the dataset epoch, so a flight never
  /// hands a follower another generation's result.
  Flights flights_;
  AdmissionController admission_;
  std::unique_ptr<ShardRouter> router_;
  /// The cluster/ interconnect model (SimConfig GbE), charged for every
  /// served op's client-to-server round trip: request dispatch plus result
  /// return. This is virtual time, folded into per-op totals the same way
  /// every other modeled cost is, and it gives cache hits a realistic
  /// network-bound floor instead of a free 0s.
  cluster::NetworkModel net_;

  std::atomic<uint64_t> epoch_;
  std::mutex reload_mu_;  ///< Serializes ReloadDataset calls.
  /// Per-Serve sequence for retry jitter when no injector supplies op ids.
  std::atomic<uint64_t> op_seq_{0};

  /// Registry instance label value shared by every component above.
  const std::string instance_;
  /// Registry counters with this instance's label. stale_hits_ counts
  /// serves whose cached entry came from another epoch than the op's:
  /// epoch keying makes that impossible, so it is a tripwire that fig8
  /// gates on staying zero.
  obs::Counter* stale_hits_;
  obs::Counter* reloads_;
  obs::Counter* flight_leaders_;
  obs::Counter* flight_coalesced_;
  obs::Counter* flight_coalesced_served_;
  obs::Counter* flight_follower_fallbacks_;
  obs::Counter* flight_shed_wait_timeout_;
  obs::Counter* retries_;
  obs::Counter* retry_successes_;
  obs::Counter* retry_deadline_giveups_;
};

}  // namespace genbase::serving

#endif  // GENBASE_SERVING_SERVING_STACK_H_
