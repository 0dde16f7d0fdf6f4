#include "engine/scidb_engine.h"

#include "linalg/covariance.h"

namespace genbase::engine {

SciDbEngine::SciDbEngine() : tracker_(MemoryTracker::kUnlimited, "SciDB") {}

genbase::Status SciDbEngine::DoLoadDataset(const core::GenBaseData& data) {
  DoUnloadDataset();
  GENBASE_ASSIGN_OR_RETURN(
      expression_,
      LoadExpressionArray(data.microarray, 0, data.microarray.num_rows(),
                          /*first_patient=*/0, data.dims.patients,
                          data.dims.genes, name(), &tracker_));
  auto meta = std::make_unique<ColumnarTables>();
  GENBASE_RETURN_NOT_OK(LoadColumnarTables(data, &tracker_, meta.get()));
  // The dense array replaces the relational microarray; drop the triples.
  meta->microarray = storage::ColumnTable(core::MicroarraySchema());
  meta_ = std::move(meta);
  loaded_ = true;
  return genbase::Status::OK();
}

void SciDbEngine::DoUnloadDataset() {
  expression_ = storage::ChunkedArray2D();
  meta_.reset();
  tracker_.Reset();
  loaded_ = false;
}

void SciDbEngine::PrepareContext(ExecContext* ctx) {
  ctx->set_memory(&tracker_);
  ctx->set_pool(DefaultPool());  // Multithreaded native execution.
}

genbase::Result<QueryInputs> SciDbEngine::PrepareInputs(
    core::QueryId query, const core::QueryParams& params, ExecContext* ctx) {
  ScopedPhase dm(ctx, Phase::kDataManagement);
  GENBASE_ASSIGN_OR_RETURN(
      QueryInputs in,
      SelectArray(expression_, /*first_patient=*/0, *meta_, query, params,
                  ctx));
  if (query == core::QueryId::kCovariance) {
    in.meta = MakeColumnarMetaLookup(meta_->genes);
  }
  if (query == core::QueryId::kStatistics) {
    // Array-native: the sampled rows' per-gene means, gene-dimension
    // aligned; no join required. x goes, so the coprocessor model charges
    // the score vector's transfer.
    in.scores = linalg::ColumnMeans(linalg::MatrixView(in.x));
    in.sample_count = in.x.rows();
    in.x = linalg::Matrix();
    in.memberships =
        BuildMembershipsColumnar(meta_->ontology, meta_->dims.go_terms);
  }
  return in;
}

genbase::Result<core::QueryResult> SciDbEngine::RunQuery(
    core::QueryId query, const core::QueryParams& params, ExecContext* ctx) {
  if (!loaded_) return genbase::Status::Internal("no dataset loaded");
  GENBASE_ASSIGN_OR_RETURN(QueryInputs inputs,
                           PrepareInputs(query, params, ctx));
  if (offload_ == nullptr) {
    return RunStandardAnalytics(query, std::move(inputs), params,
                                linalg::KernelQuality::kTuned, ctx);
  }
  // Coprocessor path: run analytics on the host (to get the answer and its
  // host cost) in a scratch clock, then report the modeled device time.
  const int64_t input_bytes =
      inputs.x.size() > 0
          ? inputs.x.bytes()
          : static_cast<int64_t>(inputs.scores.size()) * 8;
  ExecContext sub;
  sub.set_memory(ctx->memory());
  sub.set_pool(ctx->pool());
  GENBASE_ASSIGN_OR_RETURN(
      core::QueryResult result,
      RunStandardAnalytics(query, std::move(inputs), params,
                           linalg::KernelQuality::kTuned, &sub));
  const double host_seconds = sub.clock().total(Phase::kAnalytics);
  ctx->clock().AddVirtual(
      Phase::kAnalytics,
      offload_->OffloadSeconds(query, input_bytes, host_seconds));
  return result;
}

}  // namespace genbase::engine
