#include "engine/postgres_engine.h"

#include <algorithm>
#include <unordered_map>

#include "core/config.h"
#include "core/reference.h"
#include "relational/restructure.h"
#include "relational/row_ops.h"

namespace genbase::engine {

namespace {

using core::GeneCols;
using core::GoCols;
using core::MicroarrayCols;
using core::PatientCols;
using relational::DenseMapping;
using relational::MakeDenseMapping;
using relational::RowFilter;
using relational::RowHashJoin;
using relational::RowOperator;
using relational::RowPredicate;
using relational::RowProject;
using relational::RowScan;
using storage::RowStore;
using storage::Value;

/// Copies neutral columnar data into a heap table via per-row appends.
genbase::Status LoadRowTable(const storage::ColumnTable& src,
                             RowStore* dst) {
  std::vector<Value> row(static_cast<size_t>(src.schema().num_fields()));
  for (int64_t r = 0; r < src.num_rows(); ++r) {
    for (int c = 0; c < src.schema().num_fields(); ++c) {
      row[static_cast<size_t>(c)] = src.Get(r, c);
    }
    GENBASE_RETURN_NOT_OK(dst->Append(row.data()));
  }
  return genbase::Status::OK();
}

/// Drains `op` into the sorted values of its int column `key`; `each` (if
/// set) also sees every tuple.
genbase::Status CollectIds(
    std::unique_ptr<RowOperator> op, int key,
    const std::function<void(const std::vector<Value>&)>& each,
    ExecContext* ctx, std::vector<int64_t>* ids) {
  GENBASE_RETURN_NOT_OK(op->Open(ctx));
  std::vector<Value> row;
  for (;;) {
    GENBASE_ASSIGN_OR_RETURN(bool more, op->Next(&row));
    if (!more) break;
    ids->push_back(row[static_cast<size_t>(key)].AsInt());
    if (each) each(row);
  }
  std::sort(ids->begin(), ids->end());
  return genbase::Status::OK();
}

/// Drains a Volcano tree of (patient_id, gene_id, expr) tuples into a dense
/// matrix: the per-tuple restructure step.
genbase::Result<linalg::Matrix> RestructureFromOperator(
    RowOperator* op, const DenseMapping& row_map, const DenseMapping& col_map,
    ExecContext* ctx) {
  GENBASE_RETURN_NOT_OK(op->Open(ctx));
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  GENBASE_ASSIGN_OR_RETURN(
      linalg::Matrix m,
      linalg::Matrix::Create(row_map.size(), col_map.size(), tracker));
  std::vector<Value> row;
  for (;;) {
    GENBASE_ASSIGN_OR_RETURN(bool more, op->Next(&row));
    if (!more) break;
    const auto rit = row_map.index.find(row[0].AsInt());
    if (rit == row_map.index.end()) continue;
    const auto cit = col_map.index.find(row[1].AsInt());
    if (cit == col_map.index.end()) continue;
    m(rit->second, cit->second) = row[2].AsDouble();
  }
  return m;
}

}  // namespace

PostgresEngine::PostgresEngine(PostgresAnalytics analytics)
    : analytics_(analytics),
      tracker_(MemoryTracker::kUnlimited, "Postgres") {}

genbase::Status PostgresEngine::DoLoadDataset(const core::GenBaseData& data) {
  DoUnloadDataset();
  auto tables = std::make_unique<Tables>(&tracker_);
  tables->dims = data.dims;
  GENBASE_RETURN_NOT_OK(LoadRowTable(data.microarray, &tables->microarray));
  GENBASE_RETURN_NOT_OK(LoadRowTable(data.patients, &tables->patients));
  GENBASE_RETURN_NOT_OK(LoadRowTable(data.genes, &tables->genes));
  GENBASE_RETURN_NOT_OK(LoadRowTable(data.ontology, &tables->ontology));
  tables_ = std::move(tables);
  return genbase::Status::OK();
}

void PostgresEngine::DoUnloadDataset() {
  tables_.reset();
  tracker_.Reset();
}

void PostgresEngine::PrepareContext(ExecContext* ctx) {
  ctx->set_memory(&tracker_);
  ctx->set_pool(nullptr);  // No intra-query parallelism in Postgres 9.x.
}

genbase::Result<QueryInputs> PostgresEngine::PrepareInputs(
    core::QueryId query, const core::QueryParams& params, ExecContext* ctx) {
  QueryInputs in;
  ScopedPhase dm(ctx, Phase::kDataManagement);
  Tables& t = *tables_;
  const Selection sel = SelectionFor(query, params, t.dims);
  const RowPredicate selected = [&sel](const std::vector<Value>& r) {
    return relational::RowSatisfies(sel.predicates, r);
  };
  const RowStore& side = sel.on_genes ? t.genes : t.patients;
  const int side_key = sel.on_genes ? GeneCols::kGeneId
                                    : PatientCols::kPatientId;
  // SELECT ... FROM side WHERE <selection> JOIN microarray USING (key).
  auto join = std::make_unique<RowHashJoin>(
      std::make_unique<RowProject>(
          std::make_unique<RowFilter>(std::make_unique<RowScan>(&side),
                                      selected),
          std::vector<int>{side_key}),
      std::make_unique<RowScan>(&t.microarray), 0,
      sel.on_genes ? MicroarrayCols::kGeneId : MicroarrayCols::kPatientId);

  if (query == core::QueryId::kStatistics) {
    // Per-tuple aggregation: AVG(expr) GROUP BY gene_id.
    GENBASE_RETURN_NOT_OK(join->Open(ctx));
    std::unordered_map<int64_t, std::pair<double, int64_t>> agg;
    std::vector<Value> row;
    for (;;) {
      GENBASE_ASSIGN_OR_RETURN(bool more, join->Next(&row));
      if (!more) break;
      auto& slot = agg[row[1 + MicroarrayCols::kGeneId].AsInt()];
      slot.first += row[1 + MicroarrayCols::kExpr].AsDouble();
      ++slot.second;
    }
    in.sample_count = std::min<int64_t>(
        core::SampleCount(t.dims.patients, params.sample_fraction),
        t.dims.patients);
    // Scores aligned to the full gene id order.
    std::vector<int64_t> gene_ids;
    GENBASE_RETURN_NOT_OK(
        CollectIds(std::make_unique<RowScan>(&t.genes), GeneCols::kGeneId,
                   nullptr, ctx, &gene_ids));
    in.scores.resize(gene_ids.size(), 0.0);
    for (size_t i = 0; i < gene_ids.size(); ++i) {
      const auto it = agg.find(gene_ids[i]);
      if (it != agg.end() && it->second.second > 0) {
        in.scores[i] =
            it->second.first / static_cast<double>(it->second.second);
      }
    }
    // Memberships by tuple-at-a-time scan of the ontology table.
    in.memberships.assign(static_cast<size_t>(t.dims.go_terms), {});
    RowScan scan(&t.ontology);
    GENBASE_RETURN_NOT_OK(scan.Open(ctx));
    for (;;) {
      GENBASE_ASSIGN_OR_RETURN(bool more, scan.Next(&row));
      if (!more) break;
      if (row[GoCols::kBelongs].AsInt() == 0) continue;
      in.memberships[static_cast<size_t>(row[GoCols::kGoId].AsInt())]
          .push_back(row[GoCols::kGeneId].AsInt());
    }
    for (auto& m : in.memberships) {
      std::sort(m.begin(), m.end());
      m.erase(std::unique(m.begin(), m.end()), m.end());
    }
    return in;
  }

  // Q1-Q4: the selected side's ids and every id of the other side, whose
  // scan also builds Q1's response projection or Q2's metadata index; then
  // restructure the projected join.
  GENBASE_RETURN_NOT_OK(CollectIds(
      std::make_unique<RowFilter>(std::make_unique<RowScan>(&side), selected),
      side_key, nullptr, ctx, sel.on_genes ? &in.col_ids : &in.row_ids));
  std::unordered_map<int64_t, double> response;
  auto meta = std::make_shared<GeneMetaIndex>();
  std::function<void(const std::vector<Value>&)> each_other;
  if (query == core::QueryId::kRegression) {
    each_other = [&response](const std::vector<Value>& r) {
      response[r[PatientCols::kPatientId].AsInt()] =
          r[PatientCols::kDrugResponse].AsDouble();
    };
  } else if (query == core::QueryId::kCovariance) {
    each_other = [&meta](const std::vector<Value>& r) {
      (*meta)[r[GeneCols::kGeneId].AsInt()] = {r[GeneCols::kFunction].AsInt(),
                                               r[GeneCols::kLength].AsInt()};
    };
  }
  GENBASE_RETURN_NOT_OK(
      sel.on_genes
          ? CollectIds(std::make_unique<RowScan>(&t.patients),
                       PatientCols::kPatientId, each_other, ctx, &in.row_ids)
          : CollectIds(std::make_unique<RowScan>(&t.genes),
                       GeneCols::kGeneId, each_other, ctx, &in.col_ids));
  // Join output: [key(build), patient_id, gene_id, expr].
  RowProject projected(std::move(join),
                       {1 + MicroarrayCols::kPatientId,
                        1 + MicroarrayCols::kGeneId,
                        1 + MicroarrayCols::kExpr});
  const DenseMapping row_map = MakeDenseMapping(in.row_ids);
  const DenseMapping col_map = MakeDenseMapping(in.col_ids);
  GENBASE_ASSIGN_OR_RETURN(
      in.x, RestructureFromOperator(&projected, row_map, col_map, ctx));
  if (query == core::QueryId::kRegression) {
    in.y.resize(static_cast<size_t>(row_map.size()));
    for (int64_t i = 0; i < row_map.size(); ++i) {
      in.y[static_cast<size_t>(i)] =
          response[row_map.ids[static_cast<size_t>(i)]];
    }
  }
  if (query == core::QueryId::kCovariance) in.meta = MakeMetaLookup(meta);
  return in;
}

genbase::Result<core::QueryResult> PostgresEngine::RunQuery(
    core::QueryId query, const core::QueryParams& params, ExecContext* ctx) {
  if (tables_ == nullptr) return genbase::Status::Internal("not loaded");
  if (!SupportsQuery(query)) {
    return genbase::Status::NotSupported("Madlib lacks biclustering");
  }
  GENBASE_ASSIGN_OR_RETURN(QueryInputs inputs,
                           PrepareInputs(query, params, ctx));

  if (analytics_ == PostgresAnalytics::kExternalR) {
    // Export everything R consumes through the CSV glue.
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
  }

  const auto& config = core::SimConfig::Get();
  switch (analytics_) {
    case PostgresAnalytics::kExternalR:
      // R: tuned LAPACK-backed kernels, single threaded.
      return RunStandardAnalytics(query, std::move(inputs), params,
                                  linalg::KernelQuality::kTuned, ctx);
    case PostgresAnalytics::kMadlib: {
      if (query == core::QueryId::kRegression ||
          query == core::QueryId::kCovariance) {
        // Native C++ Madlib modules.
        return RunStandardAnalytics(query, std::move(inputs), params,
                                    linalg::KernelQuality::kTuned, ctx);
      }
      // SVD / statistics "in effect simulate matrix computations in SQL and
      // plpython": naive kernels plus a per-cell interpreter surcharge.
      const int64_t m = inputs.x.rows();
      const int64_t n = inputs.x.cols();
      const int64_t stat_cells =
          static_cast<int64_t>(inputs.scores.size()) *
          static_cast<int64_t>(inputs.memberships.size());
      GENBASE_ASSIGN_OR_RETURN(
          core::QueryResult result,
          RunStandardAnalytics(query, std::move(inputs), params,
                               linalg::KernelQuality::kNaive, ctx));
      if (query == core::QueryId::kSvd) {
        const double cells = 2.0 * static_cast<double>(m) *
                             static_cast<double>(n) *
                             static_cast<double>(result.svd.iterations);
        ctx->clock().AddVirtual(Phase::kAnalytics,
                                cells * config.interpreted_cell_overhead_s);
      } else if (query == core::QueryId::kStatistics) {
        ctx->clock().AddVirtual(Phase::kAnalytics,
                                static_cast<double>(stat_cells) *
                                    config.interpreted_cell_overhead_s *
                                    100.0);
      }
      return result;
    }
  }
  return genbase::Status::InvalidArgument("unknown analytics mode");
}

}  // namespace genbase::engine
