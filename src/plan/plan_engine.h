#ifndef GENBASE_PLAN_PLAN_ENGINE_H_
#define GENBASE_PLAN_PLAN_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>

#include "core/engine.h"
#include "engine/engine_util.h"
#include "plan/plan_builder.h"
#include "plan/plan_cache.h"

namespace genbase::plan {

/// \brief The planned column store: identical storage and kernels to
/// ColumnStoreEngine's in-database path, but every query compiles once per
/// (query, shape params, dataset epoch) into a static plan — operator DAG,
/// deterministic schedule, arena memory plan — and then executes, with the
/// remaining params bound per run, with zero per-run planning, allocation
/// or hashing beyond one arena grab. Results are bitwise identical to the
/// legacy path (property-tested); what changes is where the time and memory
/// go, which the plan_* metrics expose.
class PlanEngine : public core::Engine {
 public:
  PlanEngine();

  std::string name() const override { return "Planned column store"; }

  void PrepareContext(ExecContext* ctx) override;

  genbase::Result<core::QueryResult> RunQuery(core::QueryId query,
                                              const core::QueryParams& params,
                                              ExecContext* ctx) override;

  /// Compiles (or fetches) the plan for `query` without executing it; test
  /// and bench hook for inspecting schedules and allocation plans. The plan
  /// is shared by every params of the same shape (ShapeFingerprint).
  genbase::Result<std::shared_ptr<CompiledPlan>> CompileForTest(
      core::QueryId query, const core::QueryParams& params, ExecContext* ctx);

  MemoryTracker* tracker() { return &tracker_; }
  int64_t cached_plans() const { return cache_.size(); }

 protected:
  genbase::Status DoLoadDataset(const core::GenBaseData& data) override;
  void DoUnloadDataset() override;

 private:
  /// Snapshot of {tables, epoch} taken together under the lock, so a plan
  /// is always keyed by the epoch matching the tables it was built on.
  struct TablesSnapshot {
    std::shared_ptr<const engine::ColumnarTables> tables;
    uint64_t epoch = 0;
  };
  TablesSnapshot Snapshot() const;

  genbase::Result<std::shared_ptr<CompiledPlan>> GetPlan(
      core::QueryId query, const core::QueryParams& params,
      const TablesSnapshot& snap, ExecContext* ctx, bool* cache_hit);

  MemoryTracker tracker_;
  mutable std::mutex tables_mu_;
  std::shared_ptr<const engine::ColumnarTables> tables_;
  uint64_t tables_epoch_ = 0;
  PlanCache cache_;
};

/// Factory for the serving/bench registries.
std::unique_ptr<core::Engine> CreatePlanStore();

}  // namespace genbase::plan

#endif  // GENBASE_PLAN_PLAN_ENGINE_H_
