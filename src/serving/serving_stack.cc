#include "serving/serving_stack.h"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "common/timer.h"
#include "core/config.h"
#include "obs/profiler.h"

namespace genbase::serving {

namespace {

/// Modeled wire size of one request: query id + parameter struct + framing.
constexpr int64_t kRequestBytes = 256;

/// Folds serving-tier glue into a cell the same way the engines fold their
/// own costs: glue time, reported inside DM totals, counted against the
/// op's budget. `modeled_s` is virtual time (network model, injected
/// spikes, a failed attempt's modeled share) and also lands in the cell's
/// modeled seconds; `measured_s` is real time the op spent (a failed
/// attempt's measured share, backoff sleeps) and does not.
void ChargeGlue(core::CellResult* cell, double measured_s, double modeled_s,
                double timeout_seconds) {
  const double seconds = measured_s + modeled_s;
  cell->glue_s += seconds;
  cell->dm_s += seconds;
  cell->modeled_s += modeled_s;
  cell->total_s += seconds;
  if (!cell->infinite && cell->status.ok() &&
      cell->total_s > timeout_seconds) {
    cell->infinite = true;
    cell->status = genbase::Status::DeadlineExceeded(
        "modeled total exceeds time budget");
  }
}

/// A cell the serving tier may hand out (cache it, publish it to a flight):
/// a supported query that finished without error inside its budget.
bool Servable(const core::CellResult& cell) {
  return cell.supported && cell.status.ok() && !cell.infinite;
}

}  // namespace

ServingStack::ServingStack(const ServingOptions& options,
                           const std::string& instance,
                           std::unique_ptr<ShardRouter> router)
    : options_(options),
      cache_(options.cache_max_entries, options.cache_max_bytes, instance),
      admission_(options.admission, instance),
      router_(std::move(router)),
      epoch_(router_->dataset_epoch()),
      instance_(instance) {
  const auto& c = core::SimConfig::Get();
  net_ = cluster::NetworkModel{c.net_bandwidth_bytes_per_s, c.net_latency_s};
  auto& reg = obs::MetricsRegistry::Global();
  const obs::Labels labels{{"instance", instance}};
  stale_hits_ = reg.GetCounter("serving_stack_stale_hits_total", labels);
  reloads_ = reg.GetCounter("serving_stack_reloads_total", labels);
  flight_leaders_ = reg.GetCounter("serving_flight_leaders_total", labels);
  flight_coalesced_ = reg.GetCounter("serving_flight_coalesced_total", labels);
  flight_coalesced_served_ =
      reg.GetCounter("serving_flight_coalesced_served_total", labels);
  flight_follower_fallbacks_ =
      reg.GetCounter("serving_flight_follower_fallbacks_total", labels);
  flight_shed_wait_timeout_ =
      reg.GetCounter("serving_flight_shed_wait_timeout_total", labels);
  retries_ = reg.GetCounter("serving_retries_total", labels);
  retry_successes_ = reg.GetCounter("serving_retry_successes_total", labels);
  retry_deadline_giveups_ =
      reg.GetCounter("serving_retry_deadline_giveups_total", labels);
}

genbase::Result<std::unique_ptr<ServingStack>> ServingStack::Create(
    const ServingOptions& options, const ShardRouter::EngineFactory& factory,
    const core::GenBaseData& data) {
  const std::string instance = obs::MetricsRegistry::NextInstanceId("stack");
  GENBASE_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardRouter> router,
      ShardRouter::Create(options.shards, factory, data, instance));
  if (options.fault_injector != nullptr) {
    router->SetFaultInjector(options.fault_injector);
  }
  return std::unique_ptr<ServingStack>(
      // lint:allow(raw-new-delete): make_unique cannot reach the private ctor; owned immediately
      new ServingStack(options, instance, std::move(router)));
}

std::vector<std::string> ServingStack::metric_instances() const {
  std::vector<std::string> instances{instance_};
  if (options_.fault_injector != nullptr) {
    instances.push_back(options_.fault_injector->metric_instance());
  }
  return instances;
}

genbase::Status ServingStack::ReloadDataset(const core::GenBaseData& data) {
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  GENBASE_RETURN_NOT_OK(router_->ReloadShards(data));
  // Publish the new generation only once every shard serves it: lookups
  // keyed with the new epoch must never land on a shard still holding the
  // old data. Ops that read the old epoch before this store stay keyed old
  // — their results are unreachable after the invalidation below at worst,
  // never wrongly served.
  const uint64_t epoch = router_->dataset_epoch();
  epoch_.store(epoch, std::memory_order_release);
  reloads_->Inc();
  cache_.InvalidateEpochsBelow(epoch);
  return genbase::Status::OK();
}

std::optional<std::chrono::steady_clock::time_point>
ServingStack::StartDeadline(
    std::optional<std::chrono::steady_clock::time_point> scheduled_arrival)
    const {
  if (!admission_.enabled() || admission_.options().max_queue_delay_s <= 0) {
    return std::nullopt;
  }
  const auto budget =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              admission_.options().max_queue_delay_s));
  return scheduled_arrival.value_or(std::chrono::steady_clock::now()) + budget;
}

void ServingStack::ServedFromTier(ServeResult* served, core::QueryId query,
                                  core::DatasetSize size,
                                  core::QueryResult result, double spent_s,
                                  const core::DriverOptions& options,
                                  bool coalesced) {
  served->cache_hit = true;
  served->coalesced = coalesced;
  core::CellResult& cell = served->cell;
  cell.engine = router_->engine_name();
  cell.query = query;
  cell.size = size;
  cell.result = std::move(result);
  cell.total_s = spent_s;
  cell.dm_s = cell.total_s;
  ChargeGlue(&cell, /*measured_s=*/0.0,
             net_.TransferSeconds(kRequestBytes) +
                 net_.TransferSeconds(ApproxResultBytes(cell.result)),
             options.timeout_seconds);
  // Stage accounting: the real lookup time is the cache stage, the modeled
  // round trip is the dispatch stage — together they are the whole cell.
  served->stages[obs::RequestStage::kCache] = spent_s;
  served->stages[obs::RequestStage::kDispatch] = cell.total_s - spent_s;
}

void ServingStack::Shed(ServeResult* served, core::QueryId query,
                        core::DatasetSize size, AdmissionOutcome outcome,
                        const std::string& detail) {
  served->shed = true;
  served->admission = outcome;
  core::CellResult& cell = served->cell;
  cell.engine = router_->engine_name();
  cell.query = query;
  cell.size = size;
  cell.status = genbase::Status::Cancelled("shed " + detail + " (" +
                                           AdmissionOutcomeName(outcome) +
                                           ")");
}

ServeResult ServingStack::Serve(
    core::QueryId query, core::DatasetSize size,
    const core::DriverOptions& options, ExecContext* ctx,
    std::optional<std::chrono::steady_clock::time_point> scheduled_arrival) {
  // Op sequence number: the injector's tick when a fault script is attached
  // (its schedules and deterministic draws are keyed to it), the stack's own
  // counter otherwise (retry jitter stays per-op deterministic either way).
  uint64_t op_id = op_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  FaultInjector* const faults = options_.fault_injector;
  if (faults != nullptr && faults->enabled()) {
    op_id = faults->OnServe();
    // The tick may have crashed, recovered or slowed a shard; republish
    // health now so the gauge and the brown-out below see it even when this
    // op never reaches the router (a cache hit).
    router_->RefreshHealth();
  }
  // Brown-out wiring: publish the router's serving-capacity fraction to
  // admission so a degraded fleet sheds heavy classes first. A relaxed
  // atomic read + exchange; no-ops at full health.
  if (admission_.enabled()) {
    admission_.SetCapacityFactor(router_->capacity_fraction());
  }
  const CacheKey key{query, FingerprintParams(options.params), size,
                     epoch_.load(std::memory_order_acquire)};
  // One budget per op, anchored at its (scheduled) arrival: a follower
  // that outlives a failed flight keeps the same deadline through its own
  // admission attempt instead of starting a fresh one.
  const std::optional<std::chrono::steady_clock::time_point> start_deadline =
      StartDeadline(scheduled_arrival);

  // The op's one result: every branch below fills it in place, so stages a
  // branch records (a miss's cache CPU, a fallback's flight wait) and the
  // stale tripwire carry through to whichever branch serves the op.
  ServeResult served;
  bool hit = false;
  if (options_.cache_enabled) {
    obs::StageScope cache_stage(obs::RequestStage::kCache, &served.stages);
    WallTimer lookup_timer;
    core::QueryResult cached;
    uint64_t entry_epoch = 0;
    if (cache_.Lookup(key, &cached, &entry_epoch)) {
      // Stale-hit tripwire: the entry's insert-time epoch (carried apart
      // from the map key) must match the epoch this op entered with. Epoch
      // keying makes a mismatch impossible unless the machinery breaks;
      // fig8 gates its exit code on the counter staying zero. If it ever
      // trips, count it AND fall through to the miss path — the invariant
      // is that a stale result is never served, so the detector must heal
      // (one recompute) rather than hand out old-generation data.
      hit = entry_epoch == key.epoch;
      if (hit) {
        // Hit: answered at the serving tier. The op costs the lookup
        // (real) plus the modeled request/response round trip — no engine
        // work.
        cache_stage.SetDetail("hit");
        ServedFromTier(&served, query, size, std::move(cached),
                       lookup_timer.Seconds(), options, /*coalesced=*/false);
      } else {
        stale_hits_->Inc();
        served.stale_tripwire = true;
        cache_stage.SetDetail("stale-tripwire");
      }
    }
  }
  // Returned only once the cache stage has closed and added its CPU.
  if (hit) return served;

  if (options_.cache_enabled && options_.single_flight) {
    auto ticket = flights_.Join(key);
    if (ticket.leader()) {
      flight_leaders_->Inc();
      // Double-check before executing: a previous flight on this key may
      // have published between this op's miss and its join, in which case
      // the work is already cached and re-running it would be exactly the
      // stampede this layer exists to prevent. Peek (uncounted) so the op
      // is not double-counted in the hit-ratio stats.
      core::QueryResult cached;
      if (cache_.Peek(key, &cached)) {
        ticket.Publish(cached);
        ServedFromTier(&served, query, size, std::move(cached), 0.0, options,
                       /*coalesced=*/false);
        return served;
      }
      ExecuteMiss(&served, key, query, size, options, ctx, start_deadline,
                  op_id);
      // Followers may be served the result even when the epoch guard
      // skipped the cache insert: they joined the same key (same epoch
      // view), so the hand-off is exactly as correct as the leader's own
      // answer. An unservable result (error, INF, shed) is not published:
      // the ticket closes as a failure and the followers fend for
      // themselves.
      if (Servable(served.cell)) ticket.Publish(served.cell.result);
      return served;
    }
    // Follower: the identical computation is already running — wait for its
    // result instead of stampeding the engines. Bounded by the same start
    // deadline admission would apply: past it, the op's client is gone. The
    // wait is queueing, recorded in the flight stage like an admission-queue
    // wait (the runner folds it into latency and the queue-delay histogram)
    // — not in the cell's own seconds, which would double-count it.
    flight_coalesced_->Inc();
    core::QueryResult flown;
    Flights::WaitResult wait;
    {
      obs::StageScope flight_stage(obs::RequestStage::kFlight, &served.stages);
      WallTimer wait_timer;
      wait = ticket.Wait(start_deadline, &flown);
      served.stages[obs::RequestStage::kFlight] = wait_timer.Seconds();
    }
    switch (wait) {
      case Flights::WaitResult::kServed:
        flight_coalesced_served_->Inc();
        ServedFromTier(&served, query, size, std::move(flown),
                       /*spent_s=*/0.0, options, /*coalesced=*/true);
        return served;
      case Flights::WaitResult::kTimeout:
        flight_shed_wait_timeout_->Inc();
        Shed(&served, query, size, AdmissionOutcome::kShedTimeout,
             "waiting on coalesced flight");
        return served;
      case Flights::WaitResult::kLeaderFailed:
        // The leader had nothing servable (error/INF/shed). Execute solo,
        // keeping the flight wait: failures are op-specific (a timeout
        // there does not mean one here), and re-joining a flight could
        // chain waits unboundedly.
        flight_follower_fallbacks_->Inc();
        break;
    }
  }

  ExecuteMiss(&served, key, query, size, options, ctx, start_deadline, op_id);
  return served;
}

void ServingStack::ExecuteMiss(
    ServeResult* served, const CacheKey& key, core::QueryId query,
    core::DatasetSize size, const core::DriverOptions& options,
    ExecContext* ctx,
    std::optional<std::chrono::steady_clock::time_point> start_deadline,
    uint64_t op_id) {
  bool admitted_heavy = false;
  {
    obs::StageScope queue_stage(obs::RequestStage::kQueue, &served->stages);
    served->admission = admission_.Admit(
        start_deadline, &served->stages[obs::RequestStage::kQueue],
        static_cast<int>(query), &admitted_heavy);
  }
  if (served->admission != AdmissionOutcome::kAdmitted) {
    Shed(served, query, size, served->admission, "by admission control");
    return;
  }

  core::CellResult& cell = served->cell;
  FaultInjector* const faults = options_.fault_injector;
  const RetryPolicy& retry = options_.retry;
  const uint64_t jitter_seed = faults != nullptr ? faults->seed() : 0;
  // Seconds left on the op's single start-deadline budget — the same clock
  // the follower fallback and admission wait already spent from. +inf with
  // no deadline configured.
  const auto remaining_budget_s = [&start_deadline] {
    if (!start_deadline.has_value()) {
      return std::numeric_limits<double>::infinity();
    }
    return std::chrono::duration<double>(*start_deadline -
                                         std::chrono::steady_clock::now())
        .count();
  };

  uint64_t data_epoch = 0;
  // What the op paid beyond its final answer, charged onto the final cell
  // so latency accounting never loses it: each failed attempt's cell split
  // into its measured and modeled shares, plus the real backoff sleeps.
  double overhead_measured_s = 0.0;
  double overhead_modeled_s = 0.0;
  for (int attempt = 1;; ++attempt) {
    // One execute attempt on one shard: dispatch stage (acquire), execute
    // stage (engine run + phase child spans), injected latency spike
    // charged as modeled glue. served->shard is -1 on the first attempt and
    // the failed attempt's shard on a retry, which AcquireShard routes away
    // from.
    {
      // The modeled network round trip added below is the dispatch stage's
      // wall time; the shard acquire is its only real CPU.
      obs::StageScope dispatch_stage(obs::RequestStage::kDispatch,
                                     &served->stages);
      served->shard = router_->AcquireShard(served->shard);
      if (dispatch_stage.active()) {
        dispatch_stage.SetDetail(std::string(attempt == 1 ? "" : "retry ") +
                                 "shard " + std::to_string(served->shard));
      }
    }
    {
      obs::StageScope exec_stage(obs::RequestStage::kExecute,
                                 &served->stages);
      data_epoch = 0;
      cell = router_->RunOnShard(served->shard, query, size, options, ctx,
                                 &data_epoch, op_id, attempt);
      exec_stage.EmitPhases(cell.dm_s, cell.analytics_s, cell.glue_s);
    }
    if (faults != nullptr && faults->enabled()) {
      // Slow-shard brown-out: the injected spike is virtual time, folded in
      // exactly like the network model so totals and deadlines see it.
      const double spike_s = faults->ShardLatencySeconds(served->shard);
      if (spike_s > 0.0 && cell.status.ok()) {
        ChargeGlue(&cell, /*measured_s=*/0.0, spike_s,
                   options.timeout_seconds);
      }
    }
    // Retry transient failures only: unsupported queries fail identically
    // everywhere and INF (timeout/OOM) already consumed the op's budget.
    const bool retryable =
        cell.supported && !cell.infinite && !cell.status.ok();
    if (!retryable) break;
    double backoff_s = 0.0;
    if (!ScheduleRetry(retry, jitter_seed, op_id, attempt,
                       remaining_budget_s(), &backoff_s)) {
      // Attempts remained but the deadline budget was spent: give up rather
      // than retry past the client's patience.
      if (attempt < retry.max_attempts) retry_deadline_giveups_->Inc();
      break;
    }
    overhead_modeled_s += cell.modeled_s;
    overhead_measured_s += cell.total_s - cell.modeled_s;
    if (backoff_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
      overhead_measured_s += backoff_s;
    }
    retries_->Inc();
    ++served->retries;
  }

  // Real slot-holding seconds feed the adaptive service-time model; the
  // modeled share never occupied an execution slot. (The retry overhead is
  // charged below, after this read, so it stays out of the service EWMA —
  // it is queueing-shaped cost, not service time.)
  admission_.Release(static_cast<int>(query),
                     std::max(0.0, cell.total_s - cell.modeled_s),
                     admitted_heavy);

  const double exec_stage_s = cell.total_s;
  if (served->retries > 0) {
    ChargeGlue(&cell, overhead_measured_s, overhead_modeled_s,
               options.timeout_seconds);
  }
  const int64_t reply_bytes =
      cell.status.ok() ? ApproxResultBytes(cell.result) : kRequestBytes;
  ChargeGlue(&cell, /*measured_s=*/0.0,
             net_.TransferSeconds(kRequestBytes) +
                 net_.TransferSeconds(reply_bytes),
             options.timeout_seconds);
  // Stage accounting: retry overhead plus the modeled round trip are the
  // dispatch stage; the served attempt's cell (engine work, real +
  // modeled) is the execute stage.
  served->stages[obs::RequestStage::kDispatch] = cell.total_s - exec_stage_s;
  served->stages[obs::RequestStage::kExecute] = exec_stage_s;
  const bool servable = Servable(cell);
  // A retry success is an op that failed at least once yet is ultimately
  // served — judged on the final cell, after the overhead and network
  // charges, so an op they pushed past its deadline never counts as a
  // success.
  if (served->retries > 0 && servable) retry_successes_->Inc();
  if (options_.cache_enabled && servable && data_epoch == key.epoch &&
      key.epoch == epoch_.load(std::memory_order_acquire)) {
    // Two epoch guards close the reload races. data_epoch == key.epoch: an
    // op keyed under the old generation that executed on an
    // already-reloaded shard (or vice versa mid-roll) must not publish its
    // result under a key other ops resolve. key.epoch == current: an op
    // that outlived a whole reload must not insert an already-invalidated
    // generation back into the cache — the entry would be unreachable, yet
    // squat at the MRU end evicting live entries under pressure. (A reload
    // landing between this check and the insert still leaves such an
    // entry; that window is microseconds and costs memory, not
    // correctness.)
    cache_.Insert(key, cell.result);
  }
}

}  // namespace genbase::serving
