#ifndef GENBASE_PLAN_PLAN_CACHE_H_
#define GENBASE_PLAN_PLAN_CACHE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

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
    uint64_t h = static_cast<uint64_t>(k.query) * 0x9e3779b97f4a7c15ULL;
    h ^= k.shape_fingerprint + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= k.epoch + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

/// \brief Single-flight compiled-plan cache. The first thread to request a
/// key compiles; concurrent requesters for the same key block on the slot
/// until the leader finishes and then share the compiled plan (one compile
/// per key, ever). A failed compile releases the slot so the next
/// requester retries instead of caching the error forever.
///
/// The cache holds plans of one dataset epoch: the newest it has been asked
/// for. A request for a newer epoch evicts every older plan first (one scan
/// per epoch advance, not per request); a straggler still asking for an
/// older epoch gets a fresh uncached compile, so an old epoch's plans (and
/// the tables they pin) never re-enter the cache.
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
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<CompiledPlan> plan;  ///< Null if the compile failed.
  };

  mutable std::mutex mu_;
  std::unordered_map<PlanKey, std::shared_ptr<Slot>, PlanKeyHash> slots_;
  uint64_t epoch_ = 0;  ///< Every slot's key has this epoch.
};

}  // namespace genbase::plan

#endif  // GENBASE_PLAN_PLAN_CACHE_H_
