#include "engine/scidb_engine.h"

#include <algorithm>

#include "core/reference.h"
#include "relational/col_ops.h"

namespace genbase::engine {

namespace {
using core::GeneCols;
using core::MicroarrayCols;
using core::PatientCols;
using relational::FilterColumns;
}  // namespace

SciDbEngine::SciDbEngine() : tracker_(MemoryTracker::kUnlimited, "SciDB") {}

genbase::Status SciDbEngine::DoLoadDataset(const core::GenBaseData& data) {
  DoUnloadDataset();
  GENBASE_ASSIGN_OR_RETURN(
      expression_,
      storage::ChunkedArray2D::Create(data.dims.patients, data.dims.genes,
                                      &tracker_));
  const auto& ma = data.microarray;
  const auto& pid = ma.IntColumn(MicroarrayCols::kPatientId);
  const auto& gid = ma.IntColumn(MicroarrayCols::kGeneId);
  const auto& expr = ma.DoubleColumn(MicroarrayCols::kExpr);
  for (size_t i = 0; i < pid.size(); ++i) {
    // Ids are the array's coordinates: one outside it fails the load.
    if (!expression_.Contains(pid[i], gid[i])) {
      return genbase::Status::InvalidArgument(
          "SciDB: (patient, gene) id (" + std::to_string(pid[i]) + ", " +
          std::to_string(gid[i]) + ") is not an array coordinate");
    }
    expression_.Set(pid[i], gid[i], expr[i]);
  }
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
  QueryInputs in;
  ScopedPhase dm(ctx, Phase::kDataManagement);
  MemoryTracker* tracker = ctx->memory();

  switch (query) {
    case core::QueryId::kRegression:
    case core::QueryId::kSvd: {
      GENBASE_ASSIGN_OR_RETURN(
          std::vector<int64_t> gene_sel,
          FilterColumns(meta_->genes,
                        SelectionFor(query, params, meta_->dims).predicates,
                        ctx));
      // Dimension-aligned: selected positions ARE the array coordinates.
      in.col_ids.reserve(gene_sel.size());
      const auto& gids = meta_->genes.IntColumn(GeneCols::kGeneId);
      for (int64_t i : gene_sel) {
        in.col_ids.push_back(gids[static_cast<size_t>(i)]);
      }
      std::sort(in.col_ids.begin(), in.col_ids.end());
      in.row_ids.resize(static_cast<size_t>(expression_.rows()));
      for (int64_t p = 0; p < expression_.rows(); ++p) in.row_ids[p] = p;
      GENBASE_ASSIGN_OR_RETURN(
          in.x,
          expression_.GatherSubmatrix(in.row_ids, in.col_ids, tracker));
      if (query == core::QueryId::kRegression) {
        in.y = meta_->patients.DoubleColumn(PatientCols::kDrugResponse);
      }
      return in;
    }
    case core::QueryId::kCovariance:
    case core::QueryId::kBiclustering: {
      GENBASE_ASSIGN_OR_RETURN(
          std::vector<int64_t> patient_sel,
          FilterColumns(meta_->patients,
                        SelectionFor(query, params, meta_->dims).predicates,
                        ctx));
      const auto& pids = meta_->patients.IntColumn(PatientCols::kPatientId);
      in.row_ids.reserve(patient_sel.size());
      for (int64_t i : patient_sel) {
        in.row_ids.push_back(pids[static_cast<size_t>(i)]);
      }
      std::sort(in.row_ids.begin(), in.row_ids.end());
      in.col_ids.resize(static_cast<size_t>(expression_.cols()));
      for (int64_t g = 0; g < expression_.cols(); ++g) in.col_ids[g] = g;
      GENBASE_ASSIGN_OR_RETURN(
          in.x,
          expression_.GatherSubmatrix(in.row_ids, in.col_ids, tracker));
      if (query == core::QueryId::kCovariance) {
        in.meta = MakeColumnarMetaLookup(meta_->genes);
      }
      return in;
    }
    case core::QueryId::kStatistics: {
      const int64_t k =
          core::SampleCount(meta_->dims.patients, params.sample_fraction);
      in.sample_count = std::min<int64_t>(k, expression_.rows());
      // Array-native: mean over the first k array rows, gene-dimension
      // aligned; no join required.
      in.scores.assign(static_cast<size_t>(expression_.cols()), 0.0);
      for (int64_t p = 0; p < in.sample_count; ++p) {
        GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
        for (int64_t g = 0; g < expression_.cols(); ++g) {
          in.scores[static_cast<size_t>(g)] += expression_.Get(p, g);
        }
      }
      const double inv = in.sample_count > 0
                             ? 1.0 / static_cast<double>(in.sample_count)
                             : 0.0;
      for (auto& s : in.scores) s *= inv;
      in.memberships = BuildMembershipsColumnar(meta_->ontology,
                                                meta_->dims.go_terms);
      return in;
    }
  }
  return genbase::Status::InvalidArgument("unknown query");
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
