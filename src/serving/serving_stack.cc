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

/// Folds modeled network seconds into a cell the same way the engines fold
/// their own virtual costs: glue time, reported inside DM totals, counted
/// against the op's budget.
void ChargeModeledGlue(core::CellResult* cell, double seconds,
                       double timeout_seconds) {
  cell->glue_s += seconds;
  cell->dm_s += seconds;
  cell->modeled_s += seconds;
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
                           std::unique_ptr<ShardRouter> router)
    : options_(options),
      cache_(options.cache_max_entries, options.cache_max_bytes),
      admission_(options.admission),
      router_(std::move(router)),
      epoch_(router_->dataset_epoch()) {
  const auto& c = core::SimConfig::Get();
  net_ = cluster::NetworkModel{c.net_bandwidth_bytes_per_s, c.net_latency_s};
  auto& reg = obs::MetricsRegistry::Global();
  const obs::Labels labels{
      {"instance", obs::MetricsRegistry::NextInstanceId("stack")}};
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
  hedges_ = reg.GetCounter("serving_hedges_total", labels);
  hedge_wins_ = reg.GetCounter("serving_hedge_wins_total", labels);
}

genbase::Result<std::unique_ptr<ServingStack>> ServingStack::Create(
    const ServingOptions& options, const ShardRouter::EngineFactory& factory,
    const core::GenBaseData& data) {
  GENBASE_ASSIGN_OR_RETURN(std::unique_ptr<ShardRouter> router,
                           ShardRouter::Create(options.shards, factory, data));
  if (options.fault_injector != nullptr) {
    router->SetFaultInjector(options.fault_injector);
  }
  return std::unique_ptr<ServingStack>(
      // lint:allow(raw-new-delete): make_unique cannot reach the private ctor; owned immediately
      new ServingStack(options, std::move(router)));
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

ServeResult ServingStack::ServedFromTier(core::QueryId query,
                                         core::DatasetSize size,
                                         core::QueryResult result,
                                         double spent_s,
                                         const core::DriverOptions& options,
                                         bool coalesced) {
  ServeResult served;
  served.cache_hit = true;
  served.coalesced = coalesced;
  core::CellResult& cell = served.cell;
  cell.engine = router_->engine_name();
  cell.query = query;
  cell.size = size;
  cell.result = std::move(result);
  cell.total_s = spent_s;
  cell.dm_s = cell.total_s;
  if (options_.model_network) {
    ChargeModeledGlue(&cell,
                      net_.TransferSeconds(kRequestBytes) +
                          net_.TransferSeconds(ApproxResultBytes(cell.result)),
                      options.timeout_seconds);
  }
  // Stage accounting: the real lookup time is the cache stage, the modeled
  // round trip is the dispatch stage — together they are the whole cell.
  served.stages[obs::RequestStage::kCache] = spent_s;
  served.stages[obs::RequestStage::kDispatch] = cell.total_s - spent_s;
  return served;
}

ServeResult ServingStack::Shed(core::QueryId query, core::DatasetSize size,
                               AdmissionOutcome outcome,
                               const std::string& detail, double waited_s) {
  ServeResult result;
  result.shed = true;
  result.admission = outcome;
  result.admission_wait_s = waited_s;
  core::CellResult& cell = result.cell;
  cell.engine = router_->engine_name();
  cell.query = query;
  cell.size = size;
  cell.status = genbase::Status::Cancelled("shed " + detail + " (" +
                                           AdmissionOutcomeName(outcome) +
                                           ")");
  return result;
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

  bool stale_tripwire = false;
  if (options_.cache_enabled) {
    obs::ScopedSpan cache_span("cache");
    const double cache_cpu_begin = obs::Profiler::CpuBegin();
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
      if (entry_epoch == key.epoch) {
        // Hit: answered at the serving tier. The op costs the lookup
        // (real) plus the modeled request/response round trip — no engine
        // work.
        cache_span.SetDetail("hit");
        ServeResult served = ServedFromTier(query, size, std::move(cached),
                                            lookup_timer.Seconds(), options,
                                            /*coalesced=*/false);
        served.stages.Cpu(obs::RequestStage::kCache) =
            obs::Profiler::CpuDelta(cache_cpu_begin);
        return served;
      }
      stale_hits_->Inc();
      stale_tripwire = true;
      cache_span.SetDetail("stale-tripwire");
    }
  }

  // Flight wait a follower carries into a solo fallback (leader failed):
  // real queueing this op experienced, folded into its admission_wait_s and
  // flight stage below rather than dropped.
  double fallback_wait_s = 0.0;
  double fallback_cpu_s = 0.0;
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
        ServeResult result = ServedFromTier(query, size, std::move(cached),
                                            0.0, options,
                                            /*coalesced=*/false);
        result.stale_tripwire = stale_tripwire;
        return result;
      }
      ServeResult result =
          ExecuteMiss(key, query, size, options, ctx, start_deadline, op_id);
      // Followers may be served the result even when the epoch guard
      // skipped the cache insert: they joined the same key (same epoch
      // view), so the hand-off is exactly as correct as the leader's own
      // answer. An unservable result (error, INF, shed) is not published:
      // the ticket closes as a failure and the followers fend for
      // themselves.
      if (Servable(result.cell)) ticket.Publish(result.cell.result);
      result.stale_tripwire = stale_tripwire;
      return result;
    }
    // Follower: the identical computation is already running — wait for its
    // result instead of stampeding the engines. Bounded by the same start
    // deadline admission would apply: past it, the op's client is gone.
    flight_coalesced_->Inc();
    obs::ScopedSpan flight_span("flight");
    const double flight_cpu_begin = obs::Profiler::CpuBegin();
    WallTimer wait_timer;
    core::QueryResult flown;
    const auto wait = ticket.Wait(start_deadline, &flown);
    const double flight_cpu_s = obs::Profiler::CpuDelta(flight_cpu_begin);
    switch (wait) {
      case Flights::WaitResult::kServed: {
        flight_coalesced_served_->Inc();
        // The flight wait is queueing, reported in admission_wait_s like an
        // admission-queue wait (the runner folds it into latency and the
        // queue-delay histogram) — not in the cell's own seconds, which
        // would double-count it.
        ServeResult result = ServedFromTier(query, size, std::move(flown),
                                            /*spent_s=*/0.0, options,
                                            /*coalesced=*/true);
        result.admission_wait_s = wait_timer.Seconds();
        result.stages[obs::RequestStage::kFlight] = result.admission_wait_s;
        result.stages.Cpu(obs::RequestStage::kFlight) = flight_cpu_s;
        result.stale_tripwire = stale_tripwire;
        return result;
      }
      case Flights::WaitResult::kTimeout: {
        flight_shed_wait_timeout_->Inc();
        ServeResult result =
            Shed(query, size, AdmissionOutcome::kShedTimeout,
                 "waiting on coalesced flight", wait_timer.Seconds());
        result.stages[obs::RequestStage::kFlight] = result.admission_wait_s;
        result.stages.Cpu(obs::RequestStage::kFlight) = flight_cpu_s;
        result.stale_tripwire = stale_tripwire;
        return result;
      }
      case Flights::WaitResult::kLeaderFailed:
        // The leader had nothing servable (error/INF/shed). Execute solo:
        // failures are op-specific (a timeout there does not mean one
        // here), and re-joining a flight could chain waits unboundedly.
        flight_follower_fallbacks_->Inc();
        fallback_wait_s = wait_timer.Seconds();
        fallback_cpu_s = flight_cpu_s;
        break;
    }
  }

  ServeResult result =
      ExecuteMiss(key, query, size, options, ctx, start_deadline, op_id);
  result.stale_tripwire = stale_tripwire;
  result.admission_wait_s += fallback_wait_s;
  result.stages[obs::RequestStage::kFlight] += fallback_wait_s;
  result.stages.Cpu(obs::RequestStage::kFlight) += fallback_cpu_s;
  return result;
}

ServeResult ServingStack::ExecuteMiss(
    const CacheKey& key, core::QueryId query, core::DatasetSize size,
    const core::DriverOptions& options, ExecContext* ctx,
    std::optional<std::chrono::steady_clock::time_point> start_deadline,
    uint64_t op_id) {
  ServeResult result;
  bool admitted_heavy = false;
  double admission_wait_s = 0.0;
  double queue_cpu_s = 0.0;
  {
    obs::ScopedSpan queue_span("queue");
    const double queue_cpu_begin = obs::Profiler::CpuBegin();
    result.admission =
        admission_.Admit(start_deadline, &admission_wait_s,
                         static_cast<int>(query), &admitted_heavy);
    queue_cpu_s = obs::Profiler::CpuDelta(queue_cpu_begin);
  }
  if (result.admission != AdmissionOutcome::kAdmitted) {
    result = Shed(query, size, result.admission, "by admission control",
                  admission_wait_s);
    result.stages[obs::RequestStage::kQueue] = admission_wait_s;
    result.stages.Cpu(obs::RequestStage::kQueue) = queue_cpu_s;
    return result;
  }
  result.admission_wait_s = admission_wait_s;
  result.stages[obs::RequestStage::kQueue] = admission_wait_s;
  result.stages.Cpu(obs::RequestStage::kQueue) = queue_cpu_s;

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
  // Injected-spike snapshot for the most recent attempt, captured inside
  // run_attempt at execution time. The hedge decision reads this snapshot
  // rather than the injector's live state: a spike window that opens or
  // closes between the attempt and the hedge check must not change what
  // counts as a slow attempt, or hedge counters drift across replays of
  // the same fault seed.
  double attempt_spike_s = 0.0;
  // One execute attempt on one shard: dispatch span (acquire), execute span
  // (engine run + PhaseClock child spans), injected latency spike charged
  // as modeled glue. `exclude` routes the attempt away from a shard a
  // previous attempt failed on (or, for a hedge, the primary's shard).
  const auto run_attempt = [&](int exclude, int attempt, const char* label,
                               int* shard_out, uint64_t* epoch_out) {
    attempt_spike_s = 0.0;
    {
      obs::ScopedSpan dispatch_span("dispatch");
      const double dispatch_cpu_begin = obs::Profiler::CpuBegin();
      *shard_out = router_->AcquireShard(exclude);
      // The modeled network round trip added below is the dispatch stage's
      // wall time; the shard acquire is its only real CPU.
      result.stages.Cpu(obs::RequestStage::kDispatch) +=
          obs::Profiler::CpuDelta(dispatch_cpu_begin);
      if (dispatch_span.active()) {
        dispatch_span.SetDetail(std::string(label) + "shard " +
                                std::to_string(*shard_out));
      }
    }
    core::CellResult cell;
    {
      obs::ScopedSpan exec_span("execute");
      obs::ScopedExecutePerf exec_perf;
      const double exec_cpu_begin = obs::Profiler::CpuBegin();
      const double exec_start =
          exec_span.active() ? obs::Tracer::Global().NowSeconds() : 0.0;
      cell = router_->RunOnShard(*shard_out, query, size, options, ctx,
                                 epoch_out, op_id, attempt);
      result.stages.Cpu(obs::RequestStage::kExecute) +=
          obs::Profiler::CpuDelta(exec_cpu_begin);
      if (exec_span.active()) {
        // Bridge the PhaseClock breakdown as child spans: a sequential
        // data-management / analytics / glue layout under the execute span.
        // The clock records phase *sums*, not intervals, so the children are
        // an attribution view (their order is synthetic), but their widths
        // are the paper's Figure 2/4 split for exactly this op.
        double t = exec_start;
        const double dm = std::max(0.0, cell.dm_s - cell.glue_s);
        obs::EmitChildSpan("data_management", t, dm);
        t += dm;
        obs::EmitChildSpan("analytics", t, cell.analytics_s);
        t += cell.analytics_s;
        obs::EmitChildSpan("glue", t, cell.glue_s);
      }
    }
    if (faults != nullptr && faults->enabled()) {
      // Slow-shard brown-out: the injected spike is virtual time, folded in
      // exactly like the network model so totals and deadlines see it.
      attempt_spike_s = faults->ShardLatencySeconds(*shard_out);
      if (attempt_spike_s > 0.0 && cell.status.ok()) {
        ChargeModeledGlue(&cell, attempt_spike_s, options.timeout_seconds);
      }
    }
    return cell;
  };

  uint64_t data_epoch = 0;
  // Failed attempts' cell time, backoff sleeps, and losing hedge attempts:
  // real cost this op paid beyond its final answer, charged onto the final
  // cell as modeled glue so latency accounting never loses it.
  double overhead_s = 0.0;
  int attempt = 1;
  int previous_shard = -1;
  bool any_attempt_failed = false;
  for (;;) {
    data_epoch = 0;
    result.cell = run_attempt(previous_shard, attempt,
                              attempt == 1 ? "" : "retry ", &result.shard,
                              &data_epoch);
    // Retry transient failures only: unsupported queries fail identically
    // everywhere and INF (timeout/OOM) already consumed the op's budget.
    const bool retryable = result.cell.supported && !result.cell.infinite &&
                           !result.cell.status.ok();
    if (!retryable) break;
    double backoff_s = 0.0;
    if (!ScheduleRetry(retry, jitter_seed, op_id, attempt,
                       remaining_budget_s(), &backoff_s)) {
      // Attempts remained but the deadline budget was spent: give up rather
      // than retry past the client's patience.
      if (attempt < retry.max_attempts) retry_deadline_giveups_->Inc();
      break;
    }
    any_attempt_failed = true;
    overhead_s += result.cell.total_s;
    if (backoff_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
      overhead_s += backoff_s;
    }
    retries_->Inc();
    ++result.retries;
    previous_shard = result.shard;
    ++attempt;
  }
  // Interim verdict only — retry_successes_ is counted below from the
  // final verdict, after the retry/hedge overhead and network charges have
  // had their chance to flip the cell to DeadlineExceeded.
  const bool interim_servable = Servable(result.cell);

  // Hedged request: cheap classes only, and only when the served attempt
  // came back slow — over the class's service EWMA threshold, or from a
  // shard inside an injected latency-spike window (over threshold by
  // construction). Sequential backup-request style: one extra attempt on a
  // different shard, faster cell wins, loser's time becomes overhead.
  if (retry.hedge_cheap && interim_servable && router_->shards() > 1 &&
      !admitted_heavy && admission_.enabled() &&
      remaining_budget_s() > 0.0) {
    const double class_ewma_s =
        admission_.ClassServiceEwma(static_cast<int>(query));
    const double real_s =
        std::max(0.0, result.cell.total_s - result.cell.modeled_s);
    const bool slow =
        attempt_spike_s > 0.0 ||
        (class_ewma_s > 0.0 &&
         real_s > retry.hedge_threshold_factor * class_ewma_s);
    if (slow) {
      hedges_->Inc();
      result.hedged = true;
      ++attempt;
      int hedge_shard = -1;
      uint64_t hedge_epoch = 0;
      const core::CellResult hedge_cell = run_attempt(
          result.shard, attempt, "hedge ", &hedge_shard, &hedge_epoch);
      if (Servable(hedge_cell) && hedge_cell.total_s < result.cell.total_s) {
        hedge_wins_->Inc();
        overhead_s += result.cell.total_s;
        result.cell = hedge_cell;
        result.shard = hedge_shard;
        data_epoch = hedge_epoch;
      } else {
        overhead_s += hedge_cell.total_s;
      }
    }
  }

  // Real slot-holding seconds feed the adaptive service-time model; the
  // modeled share never occupied an execution slot. (The retry/hedge
  // overhead is charged below, after this read, so it stays out of the
  // service EWMA — it is queueing-shaped cost, not service time.)
  admission_.Release(static_cast<int>(query),
                     std::max(0.0, result.cell.total_s -
                                       result.cell.modeled_s),
                     admitted_heavy);

  const double exec_stage_s = result.cell.total_s;
  if (overhead_s > 0.0) {
    ChargeModeledGlue(&result.cell, overhead_s, options.timeout_seconds);
  }
  if (options_.model_network) {
    const int64_t reply_bytes = result.cell.status.ok()
                                    ? ApproxResultBytes(result.cell.result)
                                    : kRequestBytes;
    ChargeModeledGlue(&result.cell,
                      net_.TransferSeconds(kRequestBytes) +
                          net_.TransferSeconds(reply_bytes),
                      options.timeout_seconds);
  }
  // Stage accounting: retry/hedge overhead plus the modeled round trip are
  // the dispatch stage; the served attempt's cell (engine work, real +
  // modeled) is the execute stage.
  result.stages[obs::RequestStage::kDispatch] =
      result.cell.total_s - exec_stage_s;
  result.stages[obs::RequestStage::kExecute] = exec_stage_s;
  const bool servable = Servable(result.cell);
  // A retry success is an op that failed at least once yet is ultimately
  // served — judged on the final cell, so an op the overhead charges pushed
  // past its deadline never counts as a success.
  if (any_attempt_failed && servable) retry_successes_->Inc();
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
    cache_.Insert(key, result.cell.result);
  }
  return result;
}

ServingCounters ServingStack::counters() const {
  ServingCounters c;
  c.cache = cache_.stats();
  c.admission = admission_.stats();
  c.shards = router_->stats();
  c.flight.leaders = flight_leaders_->Value();
  c.flight.coalesced = flight_coalesced_->Value();
  c.flight.coalesced_served = flight_coalesced_served_->Value();
  c.flight.follower_fallbacks = flight_follower_fallbacks_->Value();
  c.flight.shed_wait_timeout = flight_shed_wait_timeout_->Value();
  c.stale_hits = stale_hits_->Value();
  c.reloads = reloads_->Value();
  c.retry.retries = retries_->Value();
  c.retry.retry_successes = retry_successes_->Value();
  c.retry.retry_deadline_giveups = retry_deadline_giveups_->Value();
  c.retry.hedges = hedges_->Value();
  c.retry.hedge_wins = hedge_wins_->Value();
  if (options_.fault_injector != nullptr) {
    const FaultInjector& f = *options_.fault_injector;
    c.faults.crashes = f.injected(FaultKind::kCrash);
    c.faults.recoveries = f.injected(FaultKind::kRecover);
    c.faults.latency_spikes = f.injected(FaultKind::kLatencySpike);
    c.faults.transient_errors = f.injected(FaultKind::kTransientError);
    c.faults.reload_failures = f.injected(FaultKind::kReloadFailure);
  }
  return c;
}

}  // namespace genbase::serving
