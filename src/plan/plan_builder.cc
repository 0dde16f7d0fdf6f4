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
#include "plan/memory_planner.h"
#include "plan/scheduler.h"
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
/// spare capacity: the statics hold them for the plan's whole lifetime.
std::vector<int64_t> MatchedRows(JoinIndex join) {
  join.right.shrink_to_fit();
  return std::move(join.right);
}

/// Approximate resident footprint of the compile-time statics, charged to
/// the engine tracker for the plan's lifetime (id vectors, matched rows,
/// dense mappings, Q5 memberships).
int64_t StaticsBytes(const PlanStatics& st) {
  int64_t bytes = 0;
  bytes += static_cast<int64_t>(st.matched_rows.size()) * 8;
  bytes += static_cast<int64_t>(st.row_ids.size() + st.col_ids.size()) * 8;
  bytes += static_cast<int64_t>(st.y.size()) * 8;
  // DenseMapping: sorted ids plus a hash entry (~3 words) per id.
  bytes += static_cast<int64_t>(st.row_map.ids.size() +
                                st.col_map.ids.size()) *
           32;
  for (const auto& m : st.memberships) {
    bytes += static_cast<int64_t>(m.size()) * 8;
  }
  return bytes;
}

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
  for (size_t k = 0; k < st.matched_rows.size(); ++k) {
    if (ctx != nullptr && (k & 262143) == 0) {
      GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    }
    const int64_t row = st.matched_rows[k];
    const auto rit = st.row_map.index.find(pid[static_cast<size_t>(row)]);
    if (rit == st.row_map.index.end()) continue;
    const auto cit = st.col_map.index.find(gid[static_cast<size_t>(row)]);
    if (cit == st.col_map.index.end()) continue;
    data[rit->second * num_cols + col_offset + cit->second] =
        expr[static_cast<size_t>(row)];
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
    st.col_ids = GatherIds(t.genes.IntColumn(GeneCols::kGeneId), gene_sel);
    GENBASE_ASSIGN_OR_RETURN(
        JoinIndex join,
        HashJoinIndicesFiltered(t.genes, GeneCols::kGeneId, gene_sel,
                                t.microarray, MicroarrayCols::kGeneId, ctx,
                                tracker));
    st.matched_rows = MatchedRows(std::move(join));
    st.row_ids = t.patients.IntColumn(PatientCols::kPatientId);
    std::sort(st.row_ids.begin(), st.row_ids.end());
    st.row_map = MakeDenseMapping(st.row_ids);
    st.col_map = MakeDenseMapping(st.col_ids);
    st.col_ids = st.col_map.ids;
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
  st.row_ids =
      GatherIds(t.patients.IntColumn(PatientCols::kPatientId), patient_sel);
  GENBASE_ASSIGN_OR_RETURN(
      JoinIndex join,
      HashJoinIndicesFiltered(t.patients, PatientCols::kPatientId,
                              patient_sel, t.microarray,
                              MicroarrayCols::kPatientId, ctx, tracker));
  st.matched_rows = MatchedRows(std::move(join));
  st.col_ids = t.genes.IntColumn(GeneCols::kGeneId);
  std::sort(st.col_ids.begin(), st.col_ids.end());
  st.row_map = MakeDenseMapping(st.row_ids);
  st.col_map = MakeDenseMapping(st.col_ids);
  st.row_ids = st.row_map.ids;
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

struct GraphParts {
  PlanGraph graph;
  std::vector<CompiledOp> ops;  ///< Indexed by op id.
};

GraphParts BuildRegressionGraph(const PlanStatics& st) {
  GraphParts p;
  const int64_t rows = st.row_map.size();
  const int64_t cd = st.col_map.size() + 1;  // Intercept column first.
  const int v_design = p.graph.AddValue("design", {rows, cd});
  p.graph.AddOp({OpKind::kScan, "scan_design", {}, {v_design}});
  p.graph.AddOp({OpKind::kGemm, "least_squares", {v_design}, {}});
  p.ops.resize(2);
  p.ops[0] = {OpKind::kScan, "scan_design",
              [v_design, rows, cd](ExecFrame* f, ExecContext* ctx,
                                   QueryResult*) -> genbase::Status {
                const PlanStatics& st = f->statics();
                double* d = f->Data(v_design);
                std::fill_n(d, static_cast<size_t>(rows * cd), 0.0);
                for (int64_t i = 0; i < rows; ++i) d[i * cd] = 1.0;
                return ScatterJoined(st, d, cd, /*col_offset=*/1, ctx);
              }};
  p.ops[1] = {OpKind::kGemm, "least_squares",
              [v_design](ExecFrame* f, ExecContext* ctx,
                         QueryResult* out) -> genbase::Status {
                GENBASE_ASSIGN_OR_RETURN(
                    out->regression,
                    core::RegressionAnalytics(f->View(v_design),
                                              f->statics().y, ctx));
                return genbase::Status::OK();
              }};
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
  const int v_cov_raw = p.graph.AddValue("cov_raw", {cols, cols});
  const int v_cov = p.graph.AddValue("cov", {cols, cols});
  const int v_upper = p.graph.AddValue("upper", {num_pairs, 1});
  const int v_thr = p.graph.AddValue("threshold", {1, 1});
  p.graph.AddOp({OpKind::kScan, "scan_matrix", {}, {v_x}});
  p.graph.AddOp({OpKind::kColumnMeans, "column_means", {v_x}, {v_means}});
  p.graph.AddOp({OpKind::kSyrkCentered, "syrk_centered", {v_x, v_means},
                 {v_cov_raw}});
  p.graph.AddOp({OpKind::kScale, "scale_cov", {v_cov_raw}, {v_cov},
                 /*in_place=*/true});
  p.graph.AddOp({OpKind::kSelect, "extract_upper", {v_cov}, {v_upper}});
  p.graph.AddOp({OpKind::kQuantile, "quantile", {v_upper}, {v_thr}});
  p.graph.AddOp({OpKind::kJoin, "threshold_join", {v_cov, v_thr}, {}});
  p.ops.resize(7);
  p.ops[0] = {OpKind::kScan, "scan_matrix",
              [v_x, rows, cols](ExecFrame* f, ExecContext* ctx,
                                QueryResult*) -> genbase::Status {
                double* d = f->Data(v_x);
                std::fill_n(d, static_cast<size_t>(rows * cols), 0.0);
                return ScatterJoined(f->statics(), d, cols,
                                     /*col_offset=*/0, ctx);
              }};
  p.ops[1] = {OpKind::kColumnMeans, "column_means",
              [v_x, v_means](ExecFrame* f, ExecContext*,
                             QueryResult*) -> genbase::Status {
                linalg::ColumnMeansInto(f->View(v_x), f->Data(v_means));
                return genbase::Status::OK();
              }};
  p.ops[2] = {OpKind::kSyrkCentered, "syrk_centered",
              [v_x, v_means, v_cov_raw](ExecFrame* f, ExecContext* ctx,
                                        QueryResult*) -> genbase::Status {
                return linalg::SyrkCentered(
                    f->View(v_x), f->Data(v_means), f->Data(v_cov_raw),
                    ctx != nullptr ? ctx->pool() : nullptr, ctx);
              }};
  p.ops[3] = {OpKind::kScale, "scale_cov",
              [v_cov, rows, cols](ExecFrame* f, ExecContext*,
                                  QueryResult*) -> genbase::Status {
                double* c = f->Data(v_cov);
                const double inv = 1.0 / static_cast<double>(rows - 1);
                for (int64_t i = 0; i < cols * cols; ++i) c[i] *= inv;
                return genbase::Status::OK();
              }};
  p.ops[4] = {OpKind::kSelect, "extract_upper",
              [v_cov, v_upper](ExecFrame* f, ExecContext* ctx,
                               QueryResult*) -> genbase::Status {
                return core::CovarianceExtractUpper(
                    f->View(v_cov), f->Data(v_upper), ctx);
              }};
  p.ops[5] = {OpKind::kQuantile, "quantile",
              [v_upper, v_thr, num_pairs](ExecFrame* f, ExecContext*,
                                          QueryResult*) -> genbase::Status {
                GENBASE_ASSIGN_OR_RETURN(
                    const double thr,
                    stats::Quantile(f->Data(v_upper), num_pairs,
                                    f->params().covariance_quantile));
                f->Data(v_thr)[0] = thr;
                return genbase::Status::OK();
              }};
  p.ops[6] = {OpKind::kJoin, "threshold_join",
              [v_cov, v_thr, rows](ExecFrame* f, ExecContext* ctx,
                                   QueryResult* out) -> genbase::Status {
                const PlanStatics& st = f->statics();
                GENBASE_ASSIGN_OR_RETURN(
                    out->covariance,
                    core::CovarianceJoinPass(f->View(v_cov), rows,
                                             f->Data(v_thr)[0], st.col_ids,
                                             st.meta, ctx));
                return genbase::Status::OK();
              }};
  return p;
}

GraphParts BuildBiclusterGraph(const PlanStatics& st) {
  GraphParts p;
  const int64_t rows = st.row_map.size();
  const int64_t cols = st.col_map.size();
  const int v_x = p.graph.AddValue("x", {rows, cols});
  p.graph.AddOp({OpKind::kScan, "scan_matrix", {}, {v_x}});
  p.graph.AddOp({OpKind::kChengChurchStep, "cheng_church", {v_x}, {}});
  p.ops.resize(2);
  p.ops[0] = {OpKind::kScan, "scan_matrix",
              [v_x, rows, cols](ExecFrame* f, ExecContext* ctx,
                                QueryResult*) -> genbase::Status {
                double* d = f->Data(v_x);
                std::fill_n(d, static_cast<size_t>(rows * cols), 0.0);
                return ScatterJoined(f->statics(), d, cols,
                                     /*col_offset=*/0, ctx);
              }};
  p.ops[1] = {OpKind::kChengChurchStep, "cheng_church",
              [v_x](ExecFrame* f, ExecContext* ctx,
                    QueryResult* out) -> genbase::Status {
                const QueryParams& params = f->params();
                GENBASE_ASSIGN_OR_RETURN(
                    out->bicluster,
                    core::BiclusterAnalytics(
                        f->View(v_x), params.bicluster_delta_fraction,
                        params.bicluster_count, ctx, nullptr));
                return genbase::Status::OK();
              }};
  return p;
}

GraphParts BuildSvdGraph(const PlanStatics& st) {
  GraphParts p;
  const int64_t rows = st.row_map.size();
  const int64_t cols = st.col_map.size();
  const int v_x = p.graph.AddValue("x", {rows, cols});
  p.graph.AddOp({OpKind::kScan, "scan_matrix", {}, {v_x}});
  p.graph.AddOp({OpKind::kSvdHelper, "truncated_svd", {v_x}, {}});
  p.ops.resize(2);
  p.ops[0] = {OpKind::kScan, "scan_matrix",
              [v_x, rows, cols](ExecFrame* f, ExecContext* ctx,
                                QueryResult*) -> genbase::Status {
                double* d = f->Data(v_x);
                std::fill_n(d, static_cast<size_t>(rows * cols), 0.0);
                return ScatterJoined(f->statics(), d, cols,
                                     /*col_offset=*/0, ctx);
              }};
  p.ops[1] = {OpKind::kSvdHelper, "truncated_svd",
              [v_x](ExecFrame* f, ExecContext* ctx,
                    QueryResult* out) -> genbase::Status {
                GENBASE_ASSIGN_OR_RETURN(
                    out->svd,
                    core::SvdAnalytics(f->View(v_x), f->params().svd_rank,
                                       linalg::KernelQuality::kTuned, ctx));
                return genbase::Status::OK();
              }};
  return p;
}

GraphParts BuildStatsGraph(const PlanStatics& st) {
  GraphParts p;
  const int64_t genes = st.col_map.size();
  const int v_scores = p.graph.AddValue("scores", {genes, 1});
  p.graph.AddOp({OpKind::kScan, "aggregate_scores", {}, {v_scores}});
  p.graph.AddOp({OpKind::kWilcoxonRank, "wilcoxon", {v_scores}, {}});
  p.ops.resize(2);
  p.ops[0] = {OpKind::kScan, "aggregate_scores",
              [v_scores, genes](ExecFrame* f, ExecContext* ctx,
                                QueryResult*) -> genbase::Status {
                const PlanStatics& st = f->statics();
                double* scores = f->Data(v_scores);
                std::fill_n(scores, static_cast<size_t>(genes), 0.0);
                const auto& gid =
                    st.tables->microarray.IntColumn(MicroarrayCols::kGeneId);
                const auto& expr = st.tables->microarray.DoubleColumn(
                    MicroarrayCols::kExpr);
                for (size_t idx = 0; idx < st.matched_rows.size(); ++idx) {
                  if (ctx != nullptr && (idx & 262143) == 0) {
                    GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
                  }
                  const int64_t row = st.matched_rows[idx];
                  const auto it =
                      st.col_map.index.find(gid[static_cast<size_t>(row)]);
                  if (it != st.col_map.index.end()) {
                    scores[it->second] += expr[static_cast<size_t>(row)];
                  }
                }
                const double inv =
                    st.sample_count > 0
                        ? 1.0 / static_cast<double>(st.sample_count)
                        : 0.0;
                for (int64_t g = 0; g < genes; ++g) scores[g] *= inv;
                return genbase::Status::OK();
              }};
  p.ops[1] = {OpKind::kWilcoxonRank, "wilcoxon",
              [v_scores, genes](ExecFrame* f, ExecContext* ctx,
                                QueryResult* out) -> genbase::Status {
                const PlanStatics& st = f->statics();
                GENBASE_ASSIGN_OR_RETURN(
                    out->stats,
                    core::StatsAnalytics(f->Data(v_scores), genes,
                                         st.memberships,
                                         f->params().significance, ctx));
                out->stats.samples = st.sample_count;
                return genbase::Status::OK();
              }};
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
  // Relational prep once, at compile time.
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

  GENBASE_RETURN_NOT_OK(parts.graph.Validate());
  GENBASE_ASSIGN_OR_RETURN(std::vector<int> schedule,
                           TopologicalSchedule(parts.graph));
  GENBASE_ASSIGN_OR_RETURN(MemoryPlan mem,
                           PlanMemory(parts.graph, schedule));

  std::vector<CompiledOp> scheduled;
  scheduled.reserve(schedule.size());
  for (int op_id : schedule) {
    scheduled.push_back(std::move(parts.ops[static_cast<size_t>(op_id)]));
  }
  return std::make_shared<CompiledPlan>(
      query, std::move(parts.graph), std::move(schedule), std::move(mem),
      std::move(statics), std::move(statics_reservation),
      std::move(scheduled), tracker);
}

}  // namespace genbase::plan
