#include "engine/columnstore_engine.h"

#include "core/config.h"

namespace genbase::engine {

ColumnStoreEngine::ColumnStoreEngine(ColumnStoreAnalytics analytics)
    : analytics_(analytics),
      tracker_(MemoryTracker::kUnlimited, "ColumnStore") {}

genbase::Status ColumnStoreEngine::DoLoadDataset(
    const core::GenBaseData& data) {
  DoUnloadDataset();
  auto tables = std::make_unique<ColumnarTables>();
  GENBASE_RETURN_NOT_OK(LoadColumnarTables(data, &tracker_, tables.get()));
  tables_ = std::move(tables);
  return genbase::Status::OK();
}

void ColumnStoreEngine::DoUnloadDataset() {
  tables_.reset();
  tracker_.Reset();
}

void ColumnStoreEngine::PrepareContext(ExecContext* ctx) {
  ctx->set_memory(&tracker_);
  // DM is vectorized but the analytics run in (single-threaded) R, either
  // external or in-process; the pool is not used by the R kernels.
  ctx->set_pool(nullptr);
}

genbase::Result<core::QueryResult> ColumnStoreEngine::RunQuery(
    core::QueryId query, const core::QueryParams& params, ExecContext* ctx) {
  if (tables_ == nullptr) return genbase::Status::Internal("not loaded");
  QueryInputs inputs;
  {
    ScopedPhase dm(ctx, Phase::kDataManagement);
    GENBASE_ASSIGN_OR_RETURN(
        inputs, PrepareInputsColumnar(*tables_, query, params, ctx));
  }
  const auto& config = core::SimConfig::Get();

  if (analytics_ == ColumnStoreAnalytics::kExternalR) {
    ScopedPhase glue(ctx, Phase::kGlue);
    if (inputs.x.size() > 0) {
      GENBASE_ASSIGN_OR_RETURN(
          inputs.x, CsvRoundTripMatrix(linalg::MatrixView(inputs.x), ctx));
    }
    if (!inputs.y.empty()) {
      GENBASE_ASSIGN_OR_RETURN(inputs.y, CsvRoundTripVector(inputs.y, ctx));
    }
    if (!inputs.scores.empty()) {
      GENBASE_ASSIGN_OR_RETURN(inputs.scores,
                               CsvRoundTripVector(inputs.scores, ctx));
    }
    return RunStandardAnalytics(query, std::move(inputs), params,
                                linalg::KernelQuality::kTuned, ctx);
  }

  // UDF mode: in-process transfer (chunked, per-invocation overhead), then
  // R kernels in-database. Iterative algorithms re-enter the UDF interface
  // per pass — the pass hook charges that.
  if (inputs.x.size() > 0) {
    ScopedPhase glue(ctx, Phase::kGlue);
    GENBASE_ASSIGN_OR_RETURN(
        inputs.x, UdfTransferMatrix(linalg::MatrixView(inputs.x), ctx));
  }
  if (!inputs.scores.empty() && ctx != nullptr) {
    ctx->clock().AddVirtual(Phase::kGlue, config.udf_invocation_overhead_s);
  }
  std::function<genbase::Status()> pass_hook;
  if (ctx != nullptr) {
    pass_hook = [ctx, &config]() -> genbase::Status {
      ctx->clock().AddVirtual(Phase::kGlue,
                              config.udf_invocation_overhead_s);
      return genbase::Status::OK();
    };
  }
  return RunStandardAnalytics(query, std::move(inputs), params,
                              linalg::KernelQuality::kTuned, ctx,
                              std::move(pass_hook));
}

}  // namespace genbase::engine
