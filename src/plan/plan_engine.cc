#include "plan/plan_engine.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan_stats.h"

namespace genbase::plan {

PlanEngine::PlanEngine()
    : tracker_(MemoryTracker::kUnlimited, "PlanStore") {}

genbase::Status PlanEngine::DoLoadDataset(const core::GenBaseData& data) {
  DoUnloadDataset();
  auto tables = std::make_shared<engine::ColumnarTables>();
  GENBASE_RETURN_NOT_OK(
      engine::LoadColumnarTables(data, &tracker_, tables.get()));
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    tables_ = std::move(tables);
    // Read the epoch AFTER the swap, inside the lock: LoadDataset bumps the
    // epoch before calling us, so any snapshot pairing these tables with
    // this epoch is consistent (a concurrent reload re-enters here and
    // overwrites both together).
    tables_epoch_ = dataset_epoch();
  }
  return genbase::Status::OK();
}

void PlanEngine::DoUnloadDataset() {
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    tables_.reset();
    tables_epoch_ = 0;
  }
  // No tracker_.Reset(): in-flight executions may still pin the previous
  // tables via their plans' shared_ptr; their reservations release when the
  // last plan reference drops, keeping the accounting balanced.
  cache_.Clear();
}

void PlanEngine::PrepareContext(ExecContext* ctx) {
  ctx->set_memory(&tracker_);
  ctx->set_pool(nullptr);
}

PlanEngine::TablesSnapshot PlanEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  return {tables_, tables_epoch_};
}

genbase::Result<std::shared_ptr<CompiledPlan>> PlanEngine::GetPlan(
    core::QueryId query, const core::QueryParams& params,
    const TablesSnapshot& snap, ExecContext* ctx, bool* cache_hit) {
  PlanKey key;
  key.query = query;
  key.shape_fingerprint = ShapeFingerprint(query, params);
  key.epoch = snap.epoch;
  auto result = cache_.GetOrCompile(
      key,
      [this, &snap, query, &params, ctx]()
          -> genbase::Result<std::shared_ptr<CompiledPlan>> {
        // Compile counts as data management: it subsumes the filter, join
        // and mapping work the legacy path pays there on every run. Folded
        // ops inside it charge their own phases (scans DM, the rest
        // analytics), and nested phase scopes are exclusive.
        ScopedPhase dm(ctx, Phase::kDataManagement);
        obs::ScopedSpan span("plan.compile");
        span.SetDetail(core::QueryName(query));
        WallTimer timer;
        GENBASE_ASSIGN_OR_RETURN(
            std::shared_ptr<CompiledPlan> plan,
            CompileQuery(snap.tables, query, params, &tracker_, ctx));
        plan->set_compile_ns(
            static_cast<int64_t>(timer.Seconds() * 1e9));
        PlanMetrics& m = PlanMetrics::Get();
        m.compiles->Inc();
        m.compile_ns->Inc(plan->compile_ns());
        const auto& regions = plan->layout().region_bytes;
        m.peak_bytes->SetMax(static_cast<double>(
            *std::max_element(regions.begin(), regions.end())));
        return plan;
      },
      cache_hit);
  if (result.ok() && cache_hit != nullptr && *cache_hit) {
    PlanMetrics::Get().cache_hits->Inc();
  }
  return result;
}

genbase::Result<core::QueryResult> PlanEngine::RunQuery(
    core::QueryId query, const core::QueryParams& params, ExecContext* ctx) {
  const TablesSnapshot snap = Snapshot();
  if (snap.tables == nullptr) {
    return genbase::Status::Internal("PlanEngine: dataset not loaded");
  }
  bool cache_hit = false;
  GENBASE_ASSIGN_OR_RETURN(std::shared_ptr<CompiledPlan> plan,
                           GetPlan(query, params, snap, ctx, &cache_hit));
  return plan->Execute(params, ctx);
}

genbase::Result<std::shared_ptr<CompiledPlan>> PlanEngine::CompileForTest(
    core::QueryId query, const core::QueryParams& params, ExecContext* ctx) {
  const TablesSnapshot snap = Snapshot();
  if (snap.tables == nullptr) {
    return genbase::Status::Internal("PlanEngine: dataset not loaded");
  }
  bool cache_hit = false;
  return GetPlan(query, params, snap, ctx, &cache_hit);
}

std::unique_ptr<core::Engine> CreatePlanStore() {
  return std::make_unique<PlanEngine>();
}

}  // namespace genbase::plan
