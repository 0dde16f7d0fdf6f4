#include "serving/shard_router.h"

#include <algorithm>
#include <utility>

namespace genbase::serving {

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kDegraded:
      return "degraded";
    case ShardHealth::kDown:
      return "down";
    default:
      return "unknown";
  }
}

genbase::Result<std::unique_ptr<ShardRouter>> ShardRouter::Create(
    int shards, const EngineFactory& factory, const core::GenBaseData& data,
    const std::string& instance) {
  if (shards < 1) {
    return genbase::Status::InvalidArgument(
        "shard router: shard count must be >= 1");
  }
  // lint:allow(raw-new-delete): make_unique cannot reach the private ctor; owned immediately
  auto router = std::unique_ptr<ShardRouter>(new ShardRouter());
  router->shards_.reserve(static_cast<size_t>(shards));
  auto& reg = obs::MetricsRegistry::Global();
  for (int s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->engine = factory();
    if (shard->engine == nullptr) {
      return genbase::Status::InvalidArgument(
          "shard router: engine factory returned null");
    }
    GENBASE_RETURN_NOT_OK(shard->engine->LoadDataset(data));
    shard->generation = 1;
    const obs::Labels labels{{"instance", instance},
                             {"shard", std::to_string(s)}};
    shard->ops = reg.GetCounter("serving_shard_ops_total", labels);
    shard->errors = reg.GetCounter("serving_shard_errors_total", labels);
    shard->infs = reg.GetCounter("serving_shard_infs_total", labels);
    shard->busy_s = reg.GetGauge("serving_shard_busy_seconds", labels);
    shard->breaker_opens =
        reg.GetCounter("serving_shard_breaker_opens_total", labels);
    shard->health_gauge = reg.GetGauge("serving_shard_health", labels);
    router->shards_.push_back(std::move(shard));
  }
  router->generation_ = 1;
  return router;
}

ShardHealth ShardRouter::EffectiveHealthLocked(int s) const {
  const ShardHealth organic = shards_[static_cast<size_t>(s)]->health;
  if (faults_ != nullptr && faults_->enabled()) {
    if (faults_->ShardCrashed(s)) return ShardHealth::kDown;
    // A shard inside an injected latency-spike window is the slow-shard
    // brown-out: still correct, so never down, but degraded for routing and
    // for the capacity fraction the admission brown-out keys off.
    if (organic == ShardHealth::kHealthy &&
        faults_->ShardLatencySeconds(s) > 0.0) {
      return ShardHealth::kDegraded;
    }
  }
  return organic;
}

void ShardRouter::RecomputeCapacityLocked() {
  double weight = 0.0;
  for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
    const ShardHealth health = EffectiveHealthLocked(s);
    shards_[static_cast<size_t>(s)]->health_gauge->Set(
        static_cast<double>(static_cast<int>(health)));
    if (health == ShardHealth::kHealthy) {
      weight += 1.0;
    } else if (health == ShardHealth::kDegraded) {
      weight += 0.5;
    }
  }
  capacity_fraction_.store(weight / static_cast<double>(shards_.size()),
                           std::memory_order_relaxed);
}

void ShardRouter::RefreshHealth() {
  std::lock_guard<std::mutex> lock(mu_);
  RecomputeCapacityLocked();
}

int ShardRouter::AcquireShard(int exclude) {
  std::unique_lock<std::mutex> lock(mu_);
  ++acquire_seq_;
  for (;;) {
    // Half-open transition: a breaker past its cooldown lets traffic probe
    // the shard again at degraded priority.
    for (auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      if (shard.health == ShardHealth::kDown && !shard.reload_failed &&
          shard.breaker_open_until != 0 &&
          acquire_seq_ >= shard.breaker_open_until) {
        shard.health = ShardHealth::kDegraded;
        shard.breaker_open_until = 0;
      }
    }
    RecomputeCapacityLocked();
    // Selection: failure-aware JSQ over serving shards first (degraded
    // shards compete with a doubled-queue penalty so they get a trickle,
    // not their share), then — only if every shard is down — plain JSQ over
    // the down ones so the op fails fast in RunOnShard instead of hanging.
    const auto select = [&](bool honor_exclude) {
      int best = -1;
      int64_t best_key = 0;
      int fallback = -1;
      for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
        Shard& shard = *shards_[static_cast<size_t>(s)];
        if (shard.draining) continue;
        if (honor_exclude && s == exclude) continue;
        const ShardHealth health = EffectiveHealthLocked(s);
        if (health == ShardHealth::kDown) {
          if (fallback < 0 ||
              shard.outstanding <
                  shards_[static_cast<size_t>(fallback)]->outstanding) {
            fallback = s;
          }
          continue;
        }
        const int64_t key =
            health == ShardHealth::kDegraded
                ? 2 * static_cast<int64_t>(shard.outstanding) + 1
                : static_cast<int64_t>(shard.outstanding);
        if (best < 0 || key < best_key) {
          best = s;
          best_key = key;
        }
      }
      return best >= 0 ? best : fallback;
    };
    int chosen = select(/*honor_exclude=*/exclude >= 0);
    if (chosen < 0 && exclude >= 0) chosen = select(/*honor_exclude=*/false);
    if (chosen >= 0) {
      ++shards_[static_cast<size_t>(chosen)]->outstanding;
      return chosen;
    }
    // Every shard draining: only reachable with a single shard mid-reload
    // (reloads drain one shard at a time). Wait it out rather than fail —
    // the reload is bounded by a dataset load.
    shard_state_.wait(lock);
  }
}

void ShardRouter::NoteResultLocked(int s, bool error) {
  Shard& shard = *shards_[static_cast<size_t>(s)];
  if (error) {
    if (++shard.consecutive_errors >= kBreakerErrorThreshold &&
        shard.health != ShardHealth::kDown) {
      shard.health = ShardHealth::kDown;
      shard.breaker_open_until = acquire_seq_ + kBreakerCooldownOps;
      shard.breaker_opens->Inc();
    }
    return;
  }
  shard.consecutive_errors = 0;
  // A success on a degraded (half-open) or breaker-down shard closes the
  // breaker. Reload-failed shards only heal through a successful reload.
  if (!shard.reload_failed && shard.health != ShardHealth::kHealthy) {
    shard.health = ShardHealth::kHealthy;
    shard.breaker_open_until = 0;
  }
}

core::CellResult ShardRouter::RunOnShard(int s, core::QueryId query,
                                         core::DatasetSize size,
                                         const core::DriverOptions& options,
                                         ExecContext* ctx,
                                         uint64_t* data_epoch,
                                         uint64_t fault_op, int attempt) {
  Shard& shard = *shards_[static_cast<size_t>(s)];
  // Fail fast without touching the engine when the shard cannot serve: a
  // crashed shard (injected) models a dead process, a reload-failed shard
  // holds data we cannot trust. The Internal status is retryable, so the
  // stack's retry layer moves the op to a replica.
  genbase::Status injected = genbase::Status::OK();
  if (faults_ != nullptr && faults_->enabled()) {
    if (faults_->ShardCrashed(s)) {
      injected = genbase::Status::Internal("shard " + std::to_string(s) +
                                           " down (injected crash)");
    } else if (faults_->DrawTransientError(s, fault_op, attempt)) {
      injected = genbase::Status::Internal("injected transient error on shard " +
                                           std::to_string(s));
    }
  }
  if (injected.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (shard.reload_failed) {
      injected = genbase::Status::Internal("shard " + std::to_string(s) +
                                           " down (failed reload)");
    }
  }
  if (!injected.ok()) {
    core::CellResult cell;
    cell.engine = shard.engine->name();
    cell.query = query;
    cell.size = size;
    cell.status = std::move(injected);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (data_epoch != nullptr) *data_epoch = shard.generation;
      --shard.outstanding;
      shard.ops->Inc();
      shard.errors->Inc();
      NoteResultLocked(s, /*error=*/true);
      RecomputeCapacityLocked();
    }
    shard_state_.notify_all();
    return cell;
  }
  // Stable for the whole run: the shard was acquired non-draining, and
  // ReloadShards waits for outstanding == 0 before swapping its dataset.
  // The engine's own epoch counter is the runtime tripwire for that
  // invariant — it moves on *any* load/unload, so if it changes across
  // this run the dataset was swapped under the op and the result must not
  // be cached under any generation.
  const uint64_t engine_epoch_before = shard.engine->dataset_epoch();
  if (data_epoch != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    *data_epoch = shard.generation;
  }
  const core::CellResult cell =
      core::RunCellWithContext(shard.engine.get(), query, size, options, ctx);
  if (data_epoch != nullptr &&
      shard.engine->dataset_epoch() != engine_epoch_before) {
    *data_epoch = ~uint64_t{0};  // Poisoned: matches no cache-key epoch.
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --shard.outstanding;
    shard.ops->Inc();
    shard.busy_s->Add(cell.total_s);
    if (cell.infinite) {
      shard.infs->Inc();
      // Timeouts measure load, not shard damage — they feed neither the
      // error counter nor the breaker.
    } else if (!cell.supported || !cell.status.ok()) {
      shard.errors->Inc();
      NoteResultLocked(s, /*error=*/true);
    } else {
      NoteResultLocked(s, /*error=*/false);
    }
    RecomputeCapacityLocked();
  }
  // A drainer may be waiting for this shard to go idle.
  shard_state_.notify_all();
  return cell;
}

genbase::Status ShardRouter::ReloadShards(const core::GenBaseData& data) {
  // The generation the roll is moving the fleet to. generation_ only
  // advances when the whole roll succeeds, so a retry after a mid-roll
  // failure targets the same generation again — already-reloaded shards
  // simply re-ingest and the fleet converges instead of drifting.
  uint64_t target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    target = generation_ + 1;
  }
  for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
    Shard& shard = *shards_[static_cast<size_t>(s)];
    {
      std::unique_lock<std::mutex> lock(mu_);
      shard.draining = true;
      shard_state_.wait(lock, [&shard] { return shard.outstanding == 0; });
    }
    // Load outside the router lock: sibling shards keep serving while this
    // one ingests. No op can land here — AcquireShard skips draining shards.
    genbase::Status status = genbase::Status::OK();
    bool injected_failure = false;
    if (faults_ != nullptr && faults_->enabled()) {
      injected_failure = faults_->ConsumeReloadFailure(s);
    }
    if (injected_failure) {
      status = genbase::Status::Internal("injected reload failure on shard " +
                                         std::to_string(s));
    } else {
      status = shard.engine->LoadDataset(data);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (status.ok()) {
        shard.generation = target;
        // A successful load is the strongest health signal there is: it
        // clears a failed-reload quarantine and any breaker state.
        shard.reload_failed = false;
        shard.consecutive_errors = 0;
        shard.breaker_open_until = 0;
        shard.health = ShardHealth::kHealthy;
      } else {
        // The shard's data can no longer be trusted (the load may have
        // partially applied). Mark it down so routing moves its traffic to
        // the replicas; the next successful ReloadShards heals it.
        shard.reload_failed = true;
        shard.health = ShardHealth::kDown;
        shard.breaker_open_until = 0;
      }
      shard.draining = false;
      RecomputeCapacityLocked();
    }
    shard_state_.notify_all();
    // A failed load stops the roll: the failed shard is quarantined (down,
    // routed around) rather than left answering errors, and the caller must
    // know rather than discover a half-reloaded fleet through mismatched
    // results.
    GENBASE_RETURN_NOT_OK(status);
  }
  std::lock_guard<std::mutex> lock(mu_);
  generation_ = target;
  return genbase::Status::OK();
}

uint64_t ShardRouter::dataset_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  bool have_serving = false;
  uint64_t min_serving = 0;
  uint64_t min_all = shards_[0]->generation;
  for (const auto& shard : shards_) {
    min_all = std::min(min_all, shard->generation);
    if (shard->reload_failed) continue;
    min_serving = have_serving ? std::min(min_serving, shard->generation)
                               : shard->generation;
    have_serving = true;
  }
  return have_serving ? min_serving : min_all;
}

}  // namespace genbase::serving
