#include "plan/plan_builder.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/datasets.h"
#include "core/reference.h"
#include "linalg/blas.h"
#include "linalg/covariance.h"
#include "relational/col_ops.h"
#include "relational/restructure.h"
#include "stats/quantile.h"
#include "storage/types.h"

namespace genbase::plan {

namespace {

using core::GeneCols;
using core::MicroarrayCols;
using core::PatientCols;
using core::QueryId;
using core::QueryParams;
using core::QueryResult;
using engine::ColumnarTables;
using relational::ColumnPredicate;
using relational::DenseMapping;
using relational::FilterColumns;
using relational::HashJoinIndicesFiltered;
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

/// Mixes one shape field into a ShapeFingerprint accumulator (SplitMix64,
/// so nearby values land far apart).
uint64_t MixShape(uint64_t h, uint64_t v) {
  return SplitMix64(h ^ (v + 0x9e3779b97f4a7c15ULL));
}

uint64_t MixShape(uint64_t h, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return MixShape(h, bits);
}

/// Keeps only the matched microarray rows of a compile-time join, without
/// spare capacity.
std::vector<int64_t> MatchedRows(JoinIndex join) {
  join.right.shrink_to_fit();
  return std::move(join.right);
}

/// Approximate footprint of one id -> index hash entry (~3 words; the
/// DenseMappings, the gene-metadata lookup).
constexpr int64_t kHashEntryBytes = 24;

/// Approximate resident footprint of the compile-time statics, charged to
/// the engine tracker while the plan compiles (id vectors, matched rows,
/// dense mappings, Q5 memberships).
int64_t StaticsBytes(const PlanStatics& st) {
  int64_t bytes = 0;
  bytes += static_cast<int64_t>(st.matched_rows.size()) * 8;
  bytes += static_cast<int64_t>(st.y.size()) * 8;
  // DenseMapping: sorted ids plus a hash entry per id.
  bytes += static_cast<int64_t>(st.row_map.ids.size() +
                                st.col_map.ids.size()) *
           (8 + kHashEntryBytes);
  for (const auto& m : st.memberships) {
    bytes += static_cast<int64_t>(m.size()) * 8;
  }
  return bytes;
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

/// Zero + scatter of the joined microarray triples into a dense arena
/// matrix at `data` (the planned twin of engine_util's RestructureJoined;
/// `col_offset` shifts gene columns right for Q1's intercept column).
genbase::Status ScatterJoined(const PlanStatics& st, double* data,
                              int64_t num_cols, int64_t col_offset,
                              ExecContext* ctx) {
  const auto& pid =
      st.tables->microarray.IntColumn(MicroarrayCols::kPatientId);
  const auto& gid = st.tables->microarray.IntColumn(MicroarrayCols::kGeneId);
  const auto& expr =
      st.tables->microarray.DoubleColumn(MicroarrayCols::kExpr);
  const IndexLookup row_of(st.row_map);
  const IndexLookup col_of(st.col_map);
  for (size_t k = 0; k < st.matched_rows.size(); ++k) {
    if (ctx != nullptr && (k & 262143) == 0) {
      GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    }
    const auto row = static_cast<size_t>(st.matched_rows[k]);
    const int64_t r = row_of(pid[row]);
    if (r < 0) continue;
    const int64_t c = col_of(gid[row]);
    if (c < 0) continue;
    data[r * num_cols + col_offset + c] = expr[row];
  }
  return genbase::Status::OK();
}

/// Builds the relational statics shared by Q1-Q4 (filter -> hash join ->
/// dense row/col mappings), replicating PrepareInputsColumnar's choices
/// exactly so planned matrices hold the same bits as legacy ones.
genbase::Result<PlanStatics> BuildMatrixStatics(
    std::shared_ptr<const ColumnarTables> tables, QueryId query,
    const QueryParams& params, MemoryTracker* tracker, ExecContext* ctx) {
  PlanStatics st;
  st.tables = std::move(tables);
  const ColumnarTables& t = *st.tables;
  if (query == QueryId::kRegression || query == QueryId::kSvd) {
    GENBASE_ASSIGN_OR_RETURN(
        std::vector<int64_t> gene_sel,
        FilterColumns(t.genes,
                      {ColumnPredicate::Lt(
                          GeneCols::kFunction,
                          Value::Int(params.function_threshold))},
                      ctx));
    st.col_map =
        MakeDenseMapping(GatherIds(t.genes.IntColumn(GeneCols::kGeneId),
                                   gene_sel));
    GENBASE_ASSIGN_OR_RETURN(
        JoinIndex join,
        HashJoinIndicesFiltered(t.genes, GeneCols::kGeneId, gene_sel,
                                t.microarray, MicroarrayCols::kGeneId, ctx,
                                tracker));
    st.matched_rows = MatchedRows(std::move(join));
    st.row_map =
        MakeDenseMapping(t.patients.IntColumn(PatientCols::kPatientId));
    if (query == QueryId::kRegression) {
      st.y.assign(static_cast<size_t>(st.row_map.size()), 0.0);
      const auto& pid = t.patients.IntColumn(PatientCols::kPatientId);
      const auto& resp = t.patients.DoubleColumn(PatientCols::kDrugResponse);
      for (size_t i = 0; i < pid.size(); ++i) {
        const auto it = st.row_map.index.find(pid[i]);
        if (it != st.row_map.index.end()) {
          st.y[static_cast<size_t>(it->second)] = resp[i];
        }
      }
    }
    return st;
  }
  // Q2/Q3: patient-side filter.
  std::vector<ColumnPredicate> preds;
  if (query == QueryId::kCovariance) {
    preds = {ColumnPredicate::Eq(PatientCols::kDiseaseId,
                                 Value::Int(params.disease_id))};
  } else {
    preds = {ColumnPredicate::Eq(PatientCols::kGender,
                                 Value::Int(params.gender)),
             ColumnPredicate::Lt(PatientCols::kAge,
                                 Value::Int(params.max_age))};
  }
  GENBASE_ASSIGN_OR_RETURN(std::vector<int64_t> patient_sel,
                           FilterColumns(t.patients, preds, ctx));
  st.row_map = MakeDenseMapping(
      GatherIds(t.patients.IntColumn(PatientCols::kPatientId), patient_sel));
  GENBASE_ASSIGN_OR_RETURN(
      JoinIndex join,
      HashJoinIndicesFiltered(t.patients, PatientCols::kPatientId,
                              patient_sel, t.microarray,
                              MicroarrayCols::kPatientId, ctx, tracker));
  st.matched_rows = MatchedRows(std::move(join));
  st.col_map = MakeDenseMapping(t.genes.IntColumn(GeneCols::kGeneId));
  if (query == QueryId::kCovariance) {
    st.meta = engine::MakeColumnarMetaLookup(t.genes);
  }
  return st;
}

genbase::Result<PlanStatics> BuildStatsStatics(
    std::shared_ptr<const ColumnarTables> tables, const QueryParams& params,
    MemoryTracker* tracker, ExecContext* ctx) {
  PlanStatics st;
  st.tables = std::move(tables);
  const ColumnarTables& t = *st.tables;
  const int64_t k =
      core::SampleCount(t.dims.patients, params.sample_fraction);
  GENBASE_ASSIGN_OR_RETURN(
      std::vector<int64_t> patient_sel,
      FilterColumns(t.patients,
                    {ColumnPredicate::Lt(PatientCols::kPatientId,
                                         Value::Int(k))},
                    ctx));
  st.sample_count = static_cast<int64_t>(patient_sel.size());
  GENBASE_ASSIGN_OR_RETURN(
      JoinIndex join,
      HashJoinIndicesFiltered(t.patients, PatientCols::kPatientId,
                              patient_sel, t.microarray,
                              MicroarrayCols::kPatientId, ctx, tracker));
  st.matched_rows = MatchedRows(std::move(join));
  // The per-gene aggregate target mapping (gene id -> dense index).
  st.col_map = MakeDenseMapping(t.genes.IntColumn(GeneCols::kGeneId));
  st.memberships =
      engine::BuildMembershipsColumnar(t.ontology, t.dims.go_terms);
  return st;
}

/// Tag for OpDef::reads_params in the builders below.
constexpr bool kReadsParams = true;

/// A query's operator DAG plus one closure per op (indexed by op id), and
/// the bytes its execute-op closures capture from the statics.
struct GraphParts {
  PlanGraph graph;
  std::vector<OpFn> ops;
  int64_t retained_static_bytes = 0;

  void Add(OpDef def, OpFn run) {
    graph.AddOp(std::move(def));
    ops.push_back(std::move(run));
  }
};

/// Zero-fills a rows x cols arena matrix and scatters the joined triples.
OpFn ScanMatrix(int v_x, int64_t rows, int64_t cols) {
  return [v_x, rows, cols](ExecFrame* f, ExecContext* ctx,
                           QueryResult*) -> genbase::Status {
    double* d = f->Data(v_x);
    std::fill_n(d, static_cast<size_t>(rows * cols), 0.0);
    return ScatterJoined(f->statics(), d, cols, /*col_offset=*/0, ctx);
  };
}

GraphParts BuildRegressionGraph(const PlanStatics& st) {
  GraphParts p;
  const int64_t rows = st.row_map.size();
  const int64_t cd = st.col_map.size() + 1;  // Intercept column first.
  const int v_design = p.graph.AddValue("design", {rows, cd});
  p.Add({OpKind::kScan, "scan_design", {}, {v_design}},
        [v_design, rows, cd](ExecFrame* f, ExecContext* ctx,
                             QueryResult*) -> genbase::Status {
          double* d = f->Data(v_design);
          std::fill_n(d, static_cast<size_t>(rows * cd), 0.0);
          for (int64_t i = 0; i < rows; ++i) d[i * cd] = 1.0;
          return ScatterJoined(f->statics(), d, cd, /*col_offset=*/1, ctx);
        });
  p.Add({OpKind::kGemm, "least_squares", {v_design}, {}},
        [v_design](ExecFrame* f, ExecContext* ctx,
                   QueryResult* out) -> genbase::Status {
          GENBASE_ASSIGN_OR_RETURN(
              out->regression,
              core::RegressionAnalytics(f->View(v_design), f->statics().y,
                                        ctx));
          return genbase::Status::OK();
        });
  return p;
}

genbase::Result<GraphParts> BuildCovarianceGraph(const PlanStatics& st) {
  GraphParts p;
  const int64_t rows = st.row_map.size();
  const int64_t cols = st.col_map.size();
  if (rows < 2) {
    return genbase::Status::InvalidArgument(
        "covariance needs at least 2 samples");
  }
  const int64_t num_pairs = cols * (cols - 1) / 2;
  const int v_x = p.graph.AddValue("x", {rows, cols});
  const int v_means = p.graph.AddValue("means", {cols, 1});
  const int v_cov = p.graph.AddValue("cov", {cols, cols});
  const int v_upper = p.graph.AddValue("upper", {num_pairs, 1});
  const int v_thr = p.graph.AddValue("threshold", {1, 1});
  p.Add({OpKind::kScan, "scan_matrix", {}, {v_x}},
        ScanMatrix(v_x, rows, cols));
  p.Add({OpKind::kColumnMeans, "column_means", {v_x}, {v_means}},
        [v_x, v_means](ExecFrame* f, ExecContext*,
                       QueryResult*) -> genbase::Status {
          linalg::ColumnMeansInto(f->View(v_x), f->Data(v_means));
          return genbase::Status::OK();
        });
  p.Add({OpKind::kSyrkCentered, "syrk_centered", {v_x, v_means}, {v_cov}},
        [v_x, v_means, v_cov, rows, cols](ExecFrame* f, ExecContext* ctx,
                                          QueryResult*) -> genbase::Status {
          double* c = f->Data(v_cov);
          GENBASE_RETURN_NOT_OK(linalg::SyrkCentered(
              f->View(v_x), f->In(v_means), c,
              ctx != nullptr ? ctx->pool() : nullptr, ctx));
          const double inv = 1.0 / static_cast<double>(rows - 1);
          for (int64_t i = 0; i < cols * cols; ++i) c[i] *= inv;
          return genbase::Status::OK();
        });
  p.Add({OpKind::kSelect, "extract_upper", {v_cov}, {v_upper}},
        [v_cov, v_upper](ExecFrame* f, ExecContext* ctx,
                         QueryResult*) -> genbase::Status {
          return core::CovarianceExtractUpper(f->View(v_cov),
                                              f->Data(v_upper), ctx);
        });
  p.Add({OpKind::kQuantile, "quantile", {v_upper}, {v_thr}, kReadsParams},
        [v_upper, v_thr, num_pairs](ExecFrame* f, ExecContext*,
                                    QueryResult*) -> genbase::Status {
          // Selects on a private copy: `upper` is a read-only plan constant.
          GENBASE_ASSIGN_OR_RETURN(
              const double thr,
              stats::Quantile(f->In(v_upper), num_pairs,
                              f->params().covariance_quantile));
          f->Data(v_thr)[0] = thr;
          return genbase::Status::OK();
        });
  // The join runs per execute (its threshold does), so it keeps the gene
  // ids and the metadata lookup — and the tables the lookup points into.
  p.Add({OpKind::kJoin, "threshold_join", {v_upper, v_thr}, {}},
        [v_upper, v_thr, rows, cols, tables = st.tables,
         gene_ids = st.col_map.ids, meta = st.meta](
            ExecFrame* f, ExecContext* ctx,
            QueryResult* out) -> genbase::Status {
          GENBASE_ASSIGN_OR_RETURN(
              out->covariance,
              core::CovarianceJoinPass(f->In(v_upper), cols, rows,
                                       f->In(v_thr)[0], gene_ids, meta,
                                       ctx));
          return genbase::Status::OK();
        });
  // Gene ids plus one lookup hash entry per gene.
  p.retained_static_bytes = cols * (8 + kHashEntryBytes);
  return p;
}

GraphParts BuildBiclusterGraph(const PlanStatics& st) {
  GraphParts p;
  const int64_t rows = st.row_map.size();
  const int64_t cols = st.col_map.size();
  const int v_x = p.graph.AddValue("x", {rows, cols});
  p.Add({OpKind::kScan, "scan_matrix", {}, {v_x}},
        ScanMatrix(v_x, rows, cols));
  p.Add({OpKind::kChengChurchStep, "cheng_church", {v_x}, {}, kReadsParams},
        [v_x](ExecFrame* f, ExecContext* ctx,
              QueryResult* out) -> genbase::Status {
          const QueryParams& params = f->params();
          GENBASE_ASSIGN_OR_RETURN(
              out->bicluster,
              core::BiclusterAnalytics(f->View(v_x),
                                       params.bicluster_delta_fraction,
                                       params.bicluster_count, ctx, nullptr));
          return genbase::Status::OK();
        });
  return p;
}

GraphParts BuildSvdGraph(const PlanStatics& st) {
  GraphParts p;
  const int64_t rows = st.row_map.size();
  const int64_t cols = st.col_map.size();
  const int v_x = p.graph.AddValue("x", {rows, cols});
  p.Add({OpKind::kScan, "scan_matrix", {}, {v_x}},
        ScanMatrix(v_x, rows, cols));
  p.Add({OpKind::kSvdHelper, "truncated_svd", {v_x}, {}, kReadsParams},
        [v_x](ExecFrame* f, ExecContext* ctx,
              QueryResult* out) -> genbase::Status {
          GENBASE_ASSIGN_OR_RETURN(
              out->svd,
              core::SvdAnalytics(f->View(v_x), f->params().svd_rank,
                                 linalg::KernelQuality::kTuned, ctx));
          return genbase::Status::OK();
        });
  return p;
}

GraphParts BuildStatsGraph(const PlanStatics& st) {
  GraphParts p;
  const int64_t genes = st.col_map.size();
  const auto terms = static_cast<int64_t>(st.memberships.size());
  const int v_scores = p.graph.AddValue("scores", {genes, 1});
  const int v_p = p.graph.AddValue("p_values", {terms, 1});
  p.Add({OpKind::kScan, "aggregate_scores", {}, {v_scores}},
        [v_scores, genes](ExecFrame* f, ExecContext* ctx,
                          QueryResult*) -> genbase::Status {
          const PlanStatics& st = f->statics();
          double* scores = f->Data(v_scores);
          std::fill_n(scores, static_cast<size_t>(genes), 0.0);
          const auto& gid =
              st.tables->microarray.IntColumn(MicroarrayCols::kGeneId);
          const auto& expr =
              st.tables->microarray.DoubleColumn(MicroarrayCols::kExpr);
          const IndexLookup gene_of(st.col_map);
          for (size_t idx = 0; idx < st.matched_rows.size(); ++idx) {
            if (ctx != nullptr && (idx & 262143) == 0) {
              GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
            }
            const auto row = static_cast<size_t>(st.matched_rows[idx]);
            const int64_t g = gene_of(gid[row]);
            if (g >= 0) scores[g] += expr[row];
          }
          const double inv =
              st.sample_count > 0
                  ? 1.0 / static_cast<double>(st.sample_count)
                  : 0.0;
          for (int64_t g = 0; g < genes; ++g) scores[g] *= inv;
          return genbase::Status::OK();
        });
  p.Add({OpKind::kWilcoxonRank, "wilcoxon", {v_scores}, {v_p}},
        [v_scores, v_p, genes](ExecFrame* f, ExecContext* ctx,
                               QueryResult* out) -> genbase::Status {
          const PlanStatics& st = f->statics();
          GENBASE_ASSIGN_OR_RETURN(
              out->stats,
              core::StatsRankTests(f->In(v_scores), genes, st.memberships,
                                   f->Data(v_p), ctx));
          out->stats.samples = st.sample_count;
          return genbase::Status::OK();
        });
  // terms_tested comes with the folded result every execute starts from.
  p.Add({OpKind::kCount, "count_significant", {v_p}, {}, kReadsParams},
        [v_p](ExecFrame* f, ExecContext*,
              QueryResult* out) -> genbase::Status {
          out->stats.significant_terms = core::CountSignificant(
              f->In(v_p), out->stats.terms_tested, f->params().significance);
          return genbase::Status::OK();
        });
  return p;
}

}  // namespace

// Tripwire: every QueryParams field is classified, per query, as shape
// (mixed in below because the statics builders or graph shapes read it) or
// bound at execute (read by op closures through ExecFrame::params()). A
// field added without a decision would either be ignored by the plan key
// while it changes the plan (wrong answers from a shared plan) or never
// reach the ops. Classify it here and in plan_builder.h's table, extend
// plan_test's per-field coverage, then update the expected size. (LP64:
// 6 x int64/double + 2 x int32 + 2 x double = 72.)
static_assert(sizeof(QueryParams) == 72,
              "QueryParams changed: classify the new field in "
              "ShapeFingerprint (shape vs bound) and plan_test");

uint64_t ShapeFingerprint(QueryId query, const QueryParams& params) {
  uint64_t h = SeedFromTag("plan/shape");
  switch (query) {
    case QueryId::kRegression:
    case QueryId::kSvd:
      h = MixShape(h, static_cast<uint64_t>(params.function_threshold));
      break;
    case QueryId::kCovariance:
      h = MixShape(h, static_cast<uint64_t>(params.disease_id));
      break;
    case QueryId::kBiclustering:
      h = MixShape(h, static_cast<uint64_t>(params.gender));
      h = MixShape(h, static_cast<uint64_t>(params.max_age));
      break;
    case QueryId::kStatistics:
      h = MixShape(h, params.sample_fraction);
      break;
  }
  return h;
}

genbase::Result<std::shared_ptr<CompiledPlan>> CompileQuery(
    std::shared_ptr<const ColumnarTables> tables, QueryId query,
    const QueryParams& params, MemoryTracker* tracker, ExecContext* ctx) {
  // Relational prep once, at compile time; charged while compiling and
  // released with the statics when this returns.
  PlanStatics statics;
  if (query == QueryId::kStatistics) {
    GENBASE_ASSIGN_OR_RETURN(
        statics, BuildStatsStatics(std::move(tables), params, tracker, ctx));
  } else {
    GENBASE_ASSIGN_OR_RETURN(
        statics,
        BuildMatrixStatics(std::move(tables), query, params, tracker, ctx));
  }
  GENBASE_ASSIGN_OR_RETURN(
      ScopedReservation statics_reservation,
      ScopedReservation::Acquire(tracker, StaticsBytes(statics)));

  GraphParts parts;
  switch (query) {
    case QueryId::kRegression:
      parts = BuildRegressionGraph(statics);
      break;
    case QueryId::kCovariance: {
      GENBASE_ASSIGN_OR_RETURN(parts, BuildCovarianceGraph(statics));
      break;
    }
    case QueryId::kBiclustering:
      parts = BuildBiclusterGraph(statics);
      break;
    case QueryId::kSvd:
      parts = BuildSvdGraph(statics);
      break;
    case QueryId::kStatistics:
      parts = BuildStatsGraph(statics);
      break;
  }
  return CompiledPlan::Build(query, std::move(parts.graph),
                             std::move(parts.ops), statics,
                             parts.retained_static_bytes, tracker, ctx);
}

}  // namespace genbase::plan
