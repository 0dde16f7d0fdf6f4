#include "serving/result_cache.h"

#include "common/rng.h"

namespace genbase::serving {

// Tripwire: FingerprintParams must mix EVERY field of QueryParams — a field
// it misses would make two different parameter sets share a cache key and
// silently poison served results. sizeof cannot catch a same-size type swap,
// but any added/removed/resized field changes it, which is the drift that
// actually happens. If this fires, extend the mix list below, then update
// the expected size. (LP64: 6 x int64/double + 2 x int32 + 2 x double = 72.)
static_assert(sizeof(core::QueryParams) == 72,
              "QueryParams changed: update FingerprintParams' mix list and "
              "this tripwire together");

uint64_t FingerprintParams(const core::QueryParams& params) {
  uint64_t h = SeedFromTag("serving/params");
  h = HashMix(h, static_cast<uint64_t>(params.function_threshold));
  h = HashMix(h, static_cast<uint64_t>(params.disease_id));
  h = HashMix(h, params.covariance_quantile);
  h = HashMix(h, static_cast<uint64_t>(params.max_age));
  h = HashMix(h, static_cast<uint64_t>(params.gender));
  h = HashMix(h, params.bicluster_delta_fraction);
  h = HashMix(h, static_cast<uint64_t>(params.bicluster_count));
  h = HashMix(h, static_cast<uint64_t>(params.svd_rank));
  h = HashMix(h, params.sample_fraction);
  h = HashMix(h, params.significance);
  return h;
}

size_t CacheKeyHash::operator()(const CacheKey& k) const {
  uint64_t h = HashMix(k.params_fingerprint,
                       static_cast<uint64_t>(k.query) * 131 +
                           static_cast<uint64_t>(k.size));
  h = HashMix(h, k.epoch);
  return static_cast<size_t>(h);
}

// Tripwire: ApproxResultBytes must count every dynamically sized member of
// QueryResult, or max_bytes eviction and the modeled reply transfer both
// undercount. Audit of the five summaries as of this size:
//   regression: coef_head vector        -> counted below
//   covariance: flat (counts/checksums) -> inside sizeof(QueryResult)
//   bicluster:  biclusters vector       -> counted below
//   svd:        singular_values vector  -> counted below
//   stats:      flat (counts/z-sum)     -> inside sizeof(QueryResult)
// Any new member changes sizeof(QueryResult); if it fires, re-audit the
// list, add any new dynamic storage, then update the expected size.
static_assert(sizeof(core::QueryResult) == 248,
              "QueryResult changed: re-audit ApproxResultBytes' dynamic "
              "members and update this tripwire");

int64_t ApproxResultBytes(const core::QueryResult& result) {
  int64_t bytes = static_cast<int64_t>(sizeof(core::QueryResult));
  bytes += static_cast<int64_t>(result.regression.coef_head.capacity() *
                                sizeof(double));
  bytes += static_cast<int64_t>(result.svd.singular_values.capacity() *
                                sizeof(double));
  bytes += static_cast<int64_t>(
      result.bicluster.biclusters.capacity() *
      sizeof(core::BiclusterSummary::Entry));
  return bytes;
}

ResultCache::ResultCache(int64_t max_entries, int64_t max_bytes,
                         const std::string& instance)
    : max_entries_(max_entries), max_bytes_(max_bytes) {
  auto& reg = obs::MetricsRegistry::Global();
  const obs::Labels labels{{"instance", instance}};
  hits_ = reg.GetCounter("serving_cache_hits_total", labels);
  misses_ = reg.GetCounter("serving_cache_misses_total", labels);
  insertions_ = reg.GetCounter("serving_cache_insertions_total", labels);
  evictions_ = reg.GetCounter("serving_cache_evictions_total", labels);
  invalidated_ = reg.GetCounter("serving_cache_invalidated_total", labels);
  rejected_oversize_ =
      reg.GetCounter("serving_cache_rejected_oversize_total", labels);
  entries_gauge_ = reg.GetGauge("serving_cache_entries", labels);
  bytes_gauge_ = reg.GetGauge("serving_cache_bytes", labels);
}

bool ResultCache::Lookup(const CacheKey& key, core::QueryResult* out,
                         uint64_t* entry_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_->Inc();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  if (out != nullptr) *out = it->second->value;
  if (entry_epoch != nullptr) *entry_epoch = it->second->epoch;
  hits_->Inc();
  return true;
}

bool ResultCache::Peek(const CacheKey& key, core::QueryResult* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  if (out != nullptr) *out = it->second->value;
  return true;
}

void ResultCache::Insert(const CacheKey& key, const core::QueryResult& value) {
  const int64_t bytes = ApproxResultBytes(value);
  std::lock_guard<std::mutex> lock(mu_);
  if (max_entries_ <= 0) return;  // Capacity-disabled cache, not oversize.
  if (bytes > max_bytes_) {
    // Not silently: an oversize result the cache can never hold is a
    // configuration signal (max_bytes too small for the workload's replies),
    // and without the counter insertions/evictions/entries still reconcile,
    // so the drop would be invisible in any report.
    rejected_oversize_->Inc();
    return;
  }
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh in place (identical keys imply identical results, but a
    // re-insert after Clear-free races is harmless).
    bytes_ += bytes - it->second->bytes;
    it->second->value = value;
    it->second->bytes = bytes;
    it->second->epoch = key.epoch;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, value, bytes, key.epoch});
    index_[key] = lru_.begin();
    bytes_ += bytes;
    insertions_->Inc();
  }
  EvictWhileOverLocked();
  UpdateGaugesLocked();
}

void ResultCache::EvictWhileOverLocked() {
  while (!lru_.empty() && (static_cast<int64_t>(lru_.size()) > max_entries_ ||
                           bytes_ > max_bytes_)) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    evictions_->Inc();
  }
}

void ResultCache::UpdateGaugesLocked() {
  entries_gauge_->Set(static_cast<double>(lru_.size()));
  bytes_gauge_->Set(static_cast<double>(bytes_));
}

int64_t ResultCache::InvalidateEpochsBelow(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t removed = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.epoch < epoch) {
      bytes_ -= it->bytes;
      index_.erase(it->key);
      it = lru_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  invalidated_->Inc(removed);
  UpdateGaugesLocked();
  return removed;
}

}  // namespace genbase::serving
