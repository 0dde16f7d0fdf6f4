#ifndef GENBASE_SERVING_RESULT_CACHE_H_
#define GENBASE_SERVING_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/datasets.h"
#include "core/queries.h"
#include "obs/metrics.h"

namespace genbase::serving {

/// \brief Order-insensitive 64-bit fingerprint of a full QueryParams value.
/// Two parameter sets collide only if every field is bit-identical (modulo
/// hash collisions); the serving cache uses it so "same query, same knobs"
/// is decided without storing the parameter struct per entry.
uint64_t FingerprintParams(const core::QueryParams& params);

/// \brief Identity of a cacheable operation: what was asked (query), with
/// which knobs (params fingerprint), of which dataset (size, epoch).
/// Engines are deterministic given these, so equal keys imply equal
/// results. The epoch is the fleet's dataset generation
/// (ShardRouter::dataset_epoch — successful loads only, underpinned by
/// core::Engine::dataset_epoch as the per-engine change signal): a reload
/// advances it, so pre-reload entries can never answer post-reload lookups
/// — staleness is impossible by key construction, not by a cleanup races
/// might miss.
struct CacheKey {
  core::QueryId query = core::QueryId::kRegression;
  uint64_t params_fingerprint = 0;
  core::DatasetSize size = core::DatasetSize::kSmall;
  uint64_t epoch = 0;

  bool operator==(const CacheKey& o) const {
    return query == o.query && params_fingerprint == o.params_fingerprint &&
           size == o.size && epoch == o.epoch;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const;
};

/// Approximate heap footprint of one cached result (the summary structs are
/// small; only their vectors matter).
int64_t ApproxResultBytes(const core::QueryResult& result);

/// \brief Thread-safe memoizing LRU cache over query results — the serving
/// layer's answer to identical operations in a mix recomputing from scratch.
/// Bounded by entry count and by approximate bytes; inserting past either
/// bound evicts from the cold end. A single mutex guards the structure:
/// operations behind it are O(1) and the cached work itself is milliseconds
/// to seconds, so lock contention is never the bottleneck.
///
/// Counts go to the registry as serving_cache_* instruments labelled
/// `instance`. Every entry that enters the cache leaves through exactly one
/// of evictions (LRU/byte pressure) or invalidated (Clear / epoch
/// invalidation), so `entries == insertions - evictions - invalidated`
/// always reconciles; oversize rejects never became entries.
class ResultCache {
 public:
  ResultCache(int64_t max_entries, int64_t max_bytes,
              const std::string& instance);

  /// On hit, copies the cached result into `out` (if non-null), refreshes
  /// recency, and counts a hit; on miss counts a miss. `entry_epoch` (if
  /// non-null) receives the entry's insert-time epoch — a deliberately
  /// redundant copy kept apart from the key so callers can cross-check that
  /// epoch keying actually held (the serving stack's stale-hit tripwire).
  bool Lookup(const CacheKey& key, core::QueryResult* out,
              uint64_t* entry_epoch = nullptr);

  /// Lookup without side effects: no hit/miss counting, no recency refresh.
  /// The serving stack's single-flight leader uses it to double-check the
  /// cache after winning a flight — a previous leader may have published
  /// between this op's (counted) miss and its flight join, and re-probing
  /// through Lookup would double-count the op in the hit-ratio stats.
  bool Peek(const CacheKey& key, core::QueryResult* out) const;

  /// Inserts (or refreshes) `key`, then evicts least-recently-used entries
  /// until both bounds hold again. An entry larger than max_bytes on its own
  /// is not cached (counted as rejected_oversize).
  void Insert(const CacheKey& key, const core::QueryResult& value);

  /// Removes every entry whose key epoch is below `epoch` (counted as
  /// invalidated, not evicted) and returns how many were removed. The
  /// serving stack calls this after a dataset reload: old-epoch entries are
  /// already unreachable — lookups carry the new epoch — so this is memory
  /// reclamation plus accounting, not a correctness gate.
  int64_t InvalidateEpochsBelow(uint64_t epoch);

 private:
  struct Entry {
    CacheKey key;
    core::QueryResult value;
    int64_t bytes = 0;
    /// Insert-time epoch, duplicated from key.epoch on purpose: Lookup
    /// hands it back through a path independent of map-key equality, so the
    /// stale-hit tripwire above the cache tests the keying rather than
    /// restating it.
    uint64_t epoch = 0;
  };

  void EvictWhileOverLocked();
  void UpdateGaugesLocked();

  const int64_t max_entries_;
  const int64_t max_bytes_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< Front = most recently used.
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash> index_;
  int64_t bytes_ = 0;

  /// Registry instruments (serving_cache_* with this instance's label),
  /// updated under mu_ together with the structure they describe.
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* insertions_;
  obs::Counter* evictions_;
  obs::Counter* invalidated_;
  obs::Counter* rejected_oversize_;
  obs::Gauge* entries_gauge_;
  obs::Gauge* bytes_gauge_;
};

}  // namespace genbase::serving

#endif  // GENBASE_SERVING_RESULT_CACHE_H_
