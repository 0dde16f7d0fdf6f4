#include "engine/engine_util.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "common/csv.h"
#include "core/config.h"
#include "core/reference.h"
#include "relational/col_ops.h"
#include "relational/restructure.h"

namespace genbase::engine {

genbase::Result<core::QueryResult> RunStandardAnalytics(
    core::QueryId query, QueryInputs inputs, const core::QueryParams& params,
    linalg::KernelQuality quality, ExecContext* ctx,
    std::function<genbase::Status()> bicluster_pass_hook) {
  core::QueryResult out;
  out.query = query;
  ScopedPhase an(ctx, Phase::kAnalytics);
  switch (query) {
    case core::QueryId::kRegression: {
      MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
      GENBASE_ASSIGN_OR_RETURN(
          linalg::Matrix design,
          linalg::Matrix::Create(inputs.x.rows(), inputs.x.cols() + 1,
                                 tracker));
      for (int64_t i = 0; i < inputs.x.rows(); ++i) {
        design(i, 0) = 1.0;
        std::copy(inputs.x.Row(i), inputs.x.Row(i) + inputs.x.cols(),
                  design.Row(i) + 1);
      }
      GENBASE_ASSIGN_OR_RETURN(
          out.regression,
          core::RegressionAnalytics(std::move(design), inputs.y, ctx));
      return out;
    }
    case core::QueryId::kCovariance: {
      GENBASE_ASSIGN_OR_RETURN(
          out.covariance,
          core::CovarianceAnalytics(linalg::MatrixView(inputs.x),
                                    inputs.col_ids, inputs.meta,
                                    params.covariance_quantile, quality,
                                    ctx));
      return out;
    }
    case core::QueryId::kBiclustering: {
      GENBASE_ASSIGN_OR_RETURN(
          out.bicluster,
          core::BiclusterAnalytics(linalg::MatrixView(inputs.x),
                                   params.bicluster_delta_fraction,
                                   params.bicluster_count, ctx,
                                   std::move(bicluster_pass_hook)));
      return out;
    }
    case core::QueryId::kSvd: {
      GENBASE_ASSIGN_OR_RETURN(
          out.svd, core::SvdAnalytics(linalg::MatrixView(inputs.x),
                                      params.svd_rank, quality, ctx));
      return out;
    }
    case core::QueryId::kStatistics: {
      GENBASE_ASSIGN_OR_RETURN(
          out.stats,
          core::StatsAnalytics(inputs.scores, inputs.memberships,
                               params.significance, ctx));
      out.stats.samples = inputs.sample_count;
      return out;
    }
  }
  return genbase::Status::InvalidArgument("unknown query");
}

genbase::Result<linalg::Matrix> CsvRoundTripMatrix(
    const linalg::MatrixView& m, ExecContext* ctx) {
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  // The CSV text transiently holds the whole result (~20 bytes/cell), which
  // is exactly why the paper calls this glue "costly". Charge it.
  GENBASE_ASSIGN_OR_RETURN(
      auto reservation,
      ScopedReservation::Acquire(tracker, m.rows * m.cols * 20));
  std::string text;
  if (m.stride == m.cols) {
    text = CsvCodec::WriteMatrix(m.data, m.rows, m.cols);
  } else {
    text.reserve(static_cast<size_t>(m.rows * m.cols * 20));
    for (int64_t i = 0; i < m.rows; ++i) {
      text += CsvCodec::WriteMatrix(m.data + i * m.stride, 1, m.cols);
    }
  }
  if (ctx != nullptr) GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
  int64_t rows = 0, cols = 0;
  std::vector<double> parsed;
  GENBASE_RETURN_NOT_OK(CsvCodec::ParseMatrix(text, &rows, &cols, &parsed));
  if (rows != m.rows || cols != m.cols) {
    return genbase::Status::Internal("CSV round trip changed shape");
  }
  GENBASE_ASSIGN_OR_RETURN(linalg::Matrix out,
                           linalg::Matrix::Create(rows, cols, tracker));
  std::copy(parsed.begin(), parsed.end(), out.data());
  return out;
}

genbase::Result<std::vector<double>> CsvRoundTripVector(
    const std::vector<double>& v, ExecContext* ctx) {
  const std::string text = CsvCodec::WriteMatrix(
      v.data(), static_cast<int64_t>(v.size()), 1);
  if (ctx != nullptr) GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
  int64_t rows = 0, cols = 0;
  std::vector<double> parsed;
  GENBASE_RETURN_NOT_OK(CsvCodec::ParseMatrix(text, &rows, &cols, &parsed));
  if (rows != static_cast<int64_t>(v.size()) || cols != 1) {
    return genbase::Status::Internal("CSV round trip changed shape");
  }
  return parsed;
}

int64_t UdfInvocations(int64_t rows) {
  return (rows + kUdfChunkRows - 1) / kUdfChunkRows;
}

genbase::Result<linalg::Matrix> UdfTransferMatrix(const linalg::MatrixView& m,
                                                  ExecContext* ctx) {
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  GENBASE_ASSIGN_OR_RETURN(linalg::Matrix out,
                           linalg::Matrix::Create(m.rows, m.cols, tracker));
  const auto& config = core::SimConfig::Get();
  const int64_t chunks = UdfInvocations(m.rows);
  for (int64_t chunk = 0; chunk < chunks; ++chunk) {
    if (ctx != nullptr) {
      GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
      // One UDF invocation per chunk: interpreter entry + marshalling.
      ctx->clock().AddVirtual(Phase::kGlue,
                              config.udf_invocation_overhead_s);
    }
    const int64_t r0 = chunk * kUdfChunkRows;
    const int64_t r1 = std::min(m.rows, r0 + kUdfChunkRows);
    for (int64_t r = r0; r < r1; ++r) {
      std::copy(m.data + r * m.stride, m.data + r * m.stride + m.cols,
                out.Row(r));
    }
  }
  return out;
}

std::vector<std::vector<int64_t>> BuildMembershipsColumnar(
    const storage::ColumnTable& ontology, int64_t num_terms) {
  std::vector<std::vector<int64_t>> memberships(
      static_cast<size_t>(num_terms));
  const auto& gene = ontology.IntColumn(core::GoCols::kGeneId);
  const auto& term = ontology.IntColumn(core::GoCols::kGoId);
  const auto& belongs = ontology.IntColumn(core::GoCols::kBelongs);
  for (size_t i = 0; i < gene.size(); ++i) {
    if (belongs[i] == 0) continue;
    memberships[static_cast<size_t>(term[i])].push_back(gene[i]);
  }
  for (auto& m : memberships) {
    std::sort(m.begin(), m.end());
    m.erase(std::unique(m.begin(), m.end()), m.end());
  }
  return memberships;
}

core::GeneMetaLookup MakeColumnarMetaLookup(
    const storage::ColumnTable& genes) {
  auto index = std::make_shared<std::unordered_map<int64_t, int64_t>>();
  const auto& ids = genes.IntColumn(core::GeneCols::kGeneId);
  index->reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    index->emplace(ids[i], static_cast<int64_t>(i));
  }
  const auto* func = &genes.IntColumn(core::GeneCols::kFunction);
  const auto* len = &genes.IntColumn(core::GeneCols::kLength);
  return [index, func, len](int64_t gene_id, int64_t* function,
                            int64_t* length) -> genbase::Status {
    const auto it = index->find(gene_id);
    if (it == index->end()) {
      return genbase::Status::NotFound("gene id " + std::to_string(gene_id));
    }
    *function = (*func)[static_cast<size_t>(it->second)];
    *length = (*len)[static_cast<size_t>(it->second)];
    return genbase::Status::OK();
  };
}

core::GeneMetaLookup MakeMetaLookup(
    std::shared_ptr<const GeneMetaIndex> index) {
  return [index = std::move(index)](int64_t gene_id, int64_t* function,
                                    int64_t* length) -> genbase::Status {
    const auto it = index->find(gene_id);
    if (it == index->end()) {
      return genbase::Status::NotFound("gene " + std::to_string(gene_id));
    }
    *function = it->second.first;
    *length = it->second.second;
    return genbase::Status::OK();
  };
}

namespace {

genbase::Status CopyColumnTable(const storage::ColumnTable& src,
                                MemoryTracker* tracker,
                                storage::ColumnTable* dst) {
  *dst = storage::ColumnTable(src.schema(), tracker);
  GENBASE_RETURN_NOT_OK(dst->Reserve(src.num_rows()));
  for (int c = 0; c < src.schema().num_fields(); ++c) {
    if (src.schema().field(c).type == storage::DataType::kInt64) {
      dst->MutableIntColumn(c) = src.IntColumn(c);
    } else {
      dst->MutableDoubleColumn(c) = src.DoubleColumn(c);
    }
  }
  return dst->FinishBulkLoad();
}

}  // namespace

genbase::Status LoadColumnarTables(const core::GenBaseData& data,
                                   MemoryTracker* tracker,
                                   ColumnarTables* out) {
  out->dims = data.dims;
  GENBASE_RETURN_NOT_OK(
      CopyColumnTable(data.microarray, tracker, &out->microarray));
  GENBASE_RETURN_NOT_OK(
      CopyColumnTable(data.patients, tracker, &out->patients));
  GENBASE_RETURN_NOT_OK(CopyColumnTable(data.genes, tracker, &out->genes));
  GENBASE_RETURN_NOT_OK(
      CopyColumnTable(data.ontology, tracker, &out->ontology));
  return genbase::Status::OK();
}

namespace {

using core::GeneCols;
using core::MicroarrayCols;
using core::PatientCols;
using core::QueryId;
using relational::ColumnPredicate;
using relational::DenseMapping;
using relational::JoinIndex;
using relational::MakeDenseMapping;
using storage::Value;

std::vector<int64_t> GatherIds(const std::vector<int64_t>& ids,
                               const std::vector<int64_t>& selection) {
  std::vector<int64_t> out;
  out.reserve(selection.size());
  for (int64_t i : selection) out.push_back(ids[static_cast<size_t>(i)]);
  return out;
}

/// Id -> dense index of a DenseMapping for the per-matched-row loops: a
/// direct-address table when the (sorted) ids span a compact range, as the
/// generated tables' dense ids do, else the mapping's hash index. -1 when
/// the id is not mapped.
class IndexLookup {
 public:
  explicit IndexLookup(const DenseMapping& map) : map_(&map) {
    if (map.ids.empty()) return;
    const uint64_t span = static_cast<uint64_t>(map.ids.back()) -
                          static_cast<uint64_t>(map.ids.front());
    if (span >= static_cast<uint64_t>(4 * map.size() + 1024)) return;
    base_ = map.ids.front();
    table_.assign(static_cast<size_t>(span) + 1, -1);
    for (int64_t i = 0; i < map.size(); ++i) {
      table_[static_cast<size_t>(static_cast<uint64_t>(
          map.ids[static_cast<size_t>(i)]) - static_cast<uint64_t>(base_))] =
          i;
    }
  }

  int64_t operator()(int64_t id) const {
    if (table_.empty()) {
      const auto it = map_->index.find(id);
      return it == map_->index.end() ? -1 : it->second;
    }
    const uint64_t off =
        static_cast<uint64_t>(id) - static_cast<uint64_t>(base_);
    return off < table_.size() ? table_[static_cast<size_t>(off)] : -1;
  }

 private:
  const DenseMapping* map_;
  int64_t base_ = 0;
  std::vector<int64_t> table_;
};

}  // namespace

Selection SelectionFor(QueryId query, const core::QueryParams& params,
                       const core::DatasetDims& dims) {
  switch (query) {
    case QueryId::kRegression:
    case QueryId::kSvd:
      return {true,
              {ColumnPredicate::Lt(GeneCols::kFunction,
                                   Value::Int(params.function_threshold))}};
    case QueryId::kCovariance:
      return {false,
              {ColumnPredicate::Eq(PatientCols::kDiseaseId,
                                   Value::Int(params.disease_id))}};
    case QueryId::kBiclustering:
      return {false,
              {ColumnPredicate::Eq(PatientCols::kGender,
                                   Value::Int(params.gender)),
               ColumnPredicate::Lt(PatientCols::kAge,
                                   Value::Int(params.max_age))}};
    case QueryId::kStatistics:
      return {false,
              {ColumnPredicate::Lt(
                  PatientCols::kPatientId,
                  Value::Int(core::SampleCount(dims.patients,
                                               params.sample_fraction)))}};
  }
  return {};
}

genbase::Result<JoinedAccess> BuildJoinedAccess(
    const ColumnarTables& tables, QueryId query,
    const core::QueryParams& params, ExecContext* ctx,
    MemoryTracker* tracker) {
  const Selection sel = SelectionFor(query, params, tables.dims);
  const storage::ColumnTable& side =
      sel.on_genes ? tables.genes : tables.patients;
  GENBASE_ASSIGN_OR_RETURN(
      std::vector<int64_t> selected,
      relational::FilterColumns(side, sel.predicates, ctx));
  const auto& patient_ids = tables.patients.IntColumn(PatientCols::kPatientId);
  const auto& gene_ids = tables.genes.IntColumn(GeneCols::kGeneId);
  JoinedAccess a;
  // The selected dimension maps only its survivors (Q5's sample needs no
  // patient mapping), the other one every id.
  DenseMapping& selected_map = sel.on_genes ? a.col_map : a.row_map;
  DenseMapping& full_map = sel.on_genes ? a.row_map : a.col_map;
  if (query != QueryId::kStatistics) {
    selected_map = MakeDenseMapping(
        GatherIds(sel.on_genes ? gene_ids : patient_ids, selected));
  }
  {
    GENBASE_ASSIGN_OR_RETURN(
        JoinIndex join,
        relational::HashJoinIndicesFiltered(
            side, sel.on_genes ? GeneCols::kGeneId : PatientCols::kPatientId,
            selected, tables.microarray,
            sel.on_genes ? MicroarrayCols::kGeneId
                         : MicroarrayCols::kPatientId,
            ctx, tracker));
    // Keep only the matched microarray rows (the join's left side is never
    // read), without spare capacity: a plan holds them while it compiles.
    join.right.shrink_to_fit();
    a.matched_rows = std::move(join.right);
  }
  full_map = MakeDenseMapping(sel.on_genes ? patient_ids : gene_ids);

  if (query == QueryId::kStatistics) {
    a.sample_count = static_cast<int64_t>(selected.size());
    return a;
  }
  if (query == QueryId::kRegression) {
    a.y.assign(static_cast<size_t>(a.row_map.size()), 0.0);
    const auto& resp = tables.patients.DoubleColumn(PatientCols::kDrugResponse);
    for (size_t i = 0; i < patient_ids.size(); ++i) {
      const auto it = a.row_map.index.find(patient_ids[i]);
      if (it != a.row_map.index.end()) {
        a.y[static_cast<size_t>(it->second)] = resp[i];
      }
    }
  }
  return a;
}

std::vector<std::vector<int64_t>> MemberPositions(const ColumnarTables& tables,
                                                  const JoinedAccess& access) {
  std::vector<std::vector<int64_t>> memberships =
      BuildMembershipsColumnar(tables.ontology, tables.dims.go_terms);
  // Gene ids -> score positions; the map is monotone, so each term's
  // members stay sorted and unique.
  const IndexLookup position_of(access.col_map);
  for (auto& members : memberships) {
    size_t kept = 0;
    for (const int64_t id : members) {
      const int64_t pos = position_of(id);
      if (pos >= 0) members[kept++] = pos;
    }
    members.resize(kept);
  }
  return memberships;
}

genbase::Status ScatterJoined(const ColumnarTables& tables,
                              const JoinedAccess& access, double* data,
                              int64_t num_cols, int64_t col_offset,
                              ExecContext* ctx) {
  const auto& pid = tables.microarray.IntColumn(MicroarrayCols::kPatientId);
  const auto& gid = tables.microarray.IntColumn(MicroarrayCols::kGeneId);
  const auto& expr = tables.microarray.DoubleColumn(MicroarrayCols::kExpr);
  const IndexLookup row_of(access.row_map);
  const IndexLookup col_of(access.col_map);
  for (size_t k = 0; k < access.matched_rows.size(); ++k) {
    if (ctx != nullptr && (k & 262143) == 0) {
      GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    }
    const auto row = static_cast<size_t>(access.matched_rows[k]);
    const int64_t r = row_of(pid[row]);
    if (r < 0) continue;
    const int64_t c = col_of(gid[row]);
    if (c < 0) continue;
    data[r * num_cols + col_offset + c] = expr[row];
  }
  return genbase::Status::OK();
}

genbase::Status AccumulateScores(const ColumnarTables& tables,
                                 const JoinedAccess& access, double* sums,
                                 ExecContext* ctx) {
  const auto& gid = tables.microarray.IntColumn(MicroarrayCols::kGeneId);
  const auto& expr = tables.microarray.DoubleColumn(MicroarrayCols::kExpr);
  const IndexLookup gene_of(access.col_map);
  for (size_t k = 0; k < access.matched_rows.size(); ++k) {
    if (ctx != nullptr && (k & 262143) == 0) {
      GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    }
    const auto row = static_cast<size_t>(access.matched_rows[k]);
    const int64_t g = gene_of(gid[row]);
    if (g >= 0) sums[g] += expr[row];
  }
  return genbase::Status::OK();
}

genbase::Status AggregateScores(const ColumnarTables& tables,
                                const JoinedAccess& access, double* scores,
                                ExecContext* ctx) {
  const int64_t genes = access.col_map.size();
  std::fill_n(scores, static_cast<size_t>(genes), 0.0);
  GENBASE_RETURN_NOT_OK(AccumulateScores(tables, access, scores, ctx));
  const double inv = access.sample_count > 0
                         ? 1.0 / static_cast<double>(access.sample_count)
                         : 0.0;
  for (int64_t g = 0; g < genes; ++g) scores[g] *= inv;
  return genbase::Status::OK();
}

genbase::Result<QueryInputs> PrepareInputsColumnar(
    const ColumnarTables& tables, QueryId query,
    const core::QueryParams& params, ExecContext* ctx) {
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  GENBASE_ASSIGN_OR_RETURN(
      JoinedAccess access,
      BuildJoinedAccess(tables, query, params, ctx, tracker));
  QueryInputs in;
  if (query == QueryId::kStatistics) {
    in.scores.resize(static_cast<size_t>(access.col_map.size()));
    GENBASE_RETURN_NOT_OK(
        AggregateScores(tables, access, in.scores.data(), ctx));
    in.memberships = MemberPositions(tables, access);
    in.sample_count = access.sample_count;
    return in;
  }
  GENBASE_ASSIGN_OR_RETURN(
      in.x, linalg::Matrix::Create(access.row_map.size(),
                                   access.col_map.size(), tracker));
  GENBASE_RETURN_NOT_OK(ScatterJoined(tables, access, in.x.data(),
                                      in.x.cols(), /*col_offset=*/0, ctx));
  in.row_ids = std::move(access.row_map.ids);
  in.col_ids = std::move(access.col_map.ids);
  in.y = std::move(access.y);
  if (query == QueryId::kCovariance) {
    in.meta = MakeColumnarMetaLookup(tables.genes);
  }
  return in;
}

genbase::Result<storage::ChunkedArray2D> LoadExpressionArray(
    const storage::ColumnTable& microarray, int64_t row_begin,
    int64_t row_end, int64_t first_patient, int64_t patients, int64_t genes,
    const std::string& engine, MemoryTracker* tracker) {
  GENBASE_ASSIGN_OR_RETURN(
      storage::ChunkedArray2D a,
      storage::ChunkedArray2D::Create(patients, genes, tracker));
  const auto& pid = microarray.IntColumn(MicroarrayCols::kPatientId);
  const auto& gid = microarray.IntColumn(MicroarrayCols::kGeneId);
  const auto& expr = microarray.DoubleColumn(MicroarrayCols::kExpr);
  for (int64_t i = row_begin; i < row_end; ++i) {
    const auto k = static_cast<size_t>(i);
    // Ids are the array's coordinates: one outside it fails the load.
    if (!a.Contains(pid[k] - first_patient, gid[k])) {
      return genbase::Status::InvalidArgument(
          engine + ": (patient, gene) id (" + std::to_string(pid[k]) + ", " +
          std::to_string(gid[k]) + ") is not an array coordinate");
    }
    a.Set(pid[k] - first_patient, gid[k], expr[k]);
  }
  return a;
}

genbase::Result<QueryInputs> SelectArray(
    const storage::ChunkedArray2D& expression, int64_t first_patient,
    const ColumnarTables& meta, QueryId query,
    const core::QueryParams& params, ExecContext* ctx) {
  const Selection sel = SelectionFor(query, params, meta.dims);
  const storage::ColumnTable& side =
      sel.on_genes ? meta.genes : meta.patients;
  GENBASE_ASSIGN_OR_RETURN(
      std::vector<int64_t> selected,
      relational::FilterColumns(side, sel.predicates, ctx));
  QueryInputs in;
  std::vector<int64_t>& selected_ids = sel.on_genes ? in.col_ids : in.row_ids;
  const int id_column =
      sel.on_genes ? GeneCols::kGeneId : PatientCols::kPatientId;
  selected_ids = GatherIds(side.IntColumn(id_column), selected);
  std::sort(selected_ids.begin(), selected_ids.end());
  // The other dimension is whole: every array row, or every gene.
  std::vector<int64_t>& all_ids = sel.on_genes ? in.row_ids : in.col_ids;
  all_ids.resize(static_cast<size_t>(sel.on_genes ? expression.rows()
                                                  : expression.cols()));
  std::iota(all_ids.begin(), all_ids.end(),
            sel.on_genes ? first_patient : 0);
  if (query == QueryId::kRegression) {
    in.y = meta.patients.DoubleColumn(PatientCols::kDrugResponse);
  }
  std::vector<int64_t> rows(in.row_ids.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = in.row_ids[i] - first_patient;
  }
  // Sorted coordinates: the extremes bound them all.
  if (!rows.empty() && !in.col_ids.empty() &&
      !(expression.Contains(rows.front(), in.col_ids.front()) &&
        expression.Contains(rows.back(), in.col_ids.back()))) {
    return genbase::Status::InvalidArgument(
        "a selected id is not an array coordinate");
  }
  GENBASE_ASSIGN_OR_RETURN(
      in.x, expression.GatherSubmatrix(
                rows, in.col_ids, ctx != nullptr ? ctx->memory() : nullptr));
  return in;
}

}  // namespace genbase::engine
