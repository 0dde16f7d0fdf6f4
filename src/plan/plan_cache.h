#ifndef GENBASE_PLAN_PLAN_CACHE_H_
#define GENBASE_PLAN_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/rng.h"
#include "common/single_flight.h"
#include "common/status.h"
#include "core/queries.h"
#include "plan/compiled_plan.h"

namespace genbase::plan {

/// \brief Identity of a compiled plan: which query, which shape params
/// (ShapeFingerprint: only the fields the statics and buffer shapes read),
/// and which dataset epoch the statics were built against. Any of the three
/// changing means the plan is unusable — shape params alter filters, joins
/// and buffer sizes, a new epoch means new tables. Params outside the shape
/// are bound per execution and share the plan.
struct PlanKey {
  core::QueryId query = core::QueryId::kRegression;
  uint64_t shape_fingerprint = 0;
  uint64_t epoch = 0;

  bool operator==(const PlanKey& o) const {
    return query == o.query && shape_fingerprint == o.shape_fingerprint &&
           epoch == o.epoch;
  }
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const {
    const uint64_t h =
        HashMix(static_cast<uint64_t>(k.query), k.shape_fingerprint);
    return static_cast<size_t>(HashMix(h, k.epoch));
  }
};

/// \brief Single-flight compiled-plan cache. The first thread to request a
/// key compiles; concurrent requesters for the same key wait on its flight
/// and then share the compiled plan (one compile per key, ever). A failed
/// compile is not cached: its waiters retry it.
///
/// The cache holds plans of one dataset epoch: the newest it has been asked
/// for. A request for a newer epoch evicts every older plan first (one scan
/// per epoch advance, not per request); a straggler still asking for an
/// older epoch gets a fresh uncached compile, so an old epoch's plans (and
/// the tables they pin) never re-enter the cache. Neither does a compile
/// that an epoch advance or Clear() evicted while it ran: it is returned
/// to its callers but not cached.
class PlanCache {
 public:
  using Compiler =
      std::function<genbase::Result<std::shared_ptr<CompiledPlan>>()>;

  /// Returns the cached plan for `key`, compiling it via `compile` if
  /// absent. `*cache_hit` is false only for a thread that ran the compile.
  genbase::Result<std::shared_ptr<CompiledPlan>> GetOrCompile(
      const PlanKey& key, const Compiler& compile, bool* cache_hit);

  void Clear();

  int64_t size() const;

 private:
  using Flights =
      SingleFlight<PlanKey, std::shared_ptr<CompiledPlan>, PlanKeyHash>;

  mutable std::mutex mu_;
  /// Finished plans; every key has epoch_.
  std::unordered_map<PlanKey, std::shared_ptr<CompiledPlan>, PlanKeyHash>
      plans_;
  uint64_t epoch_ = 0;
  /// Bumped by every eviction (epoch advance or Clear). A compile that saw
  /// a different count when it joined returns its plan uncached.
  uint64_t evictions_ = 0;
  /// Joined only under mu_, and a leader caches before it publishes, so a
  /// requester finds either the plan or its open flight.
  Flights flights_;
};

}  // namespace genbase::plan

#endif  // GENBASE_PLAN_PLAN_CACHE_H_
