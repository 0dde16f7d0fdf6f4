#include "plan/plan_builder.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/covariance.h"
#include "stats/quantile.h"

namespace genbase::plan {

namespace {

using core::QueryId;
using core::QueryParams;
using core::QueryResult;
using engine::ColumnarTables;
using engine::JoinedAccess;

/// Approximate footprint of one DenseMapping id -> index hash entry
/// (~3 words).
constexpr int64_t kHashEntryBytes = 24;

/// Approximate resident footprint of the compile-time access paths,
/// charged to the engine tracker while the plan compiles (matched rows,
/// Q1's response, dense mappings, Q5 memberships).
int64_t StaticsBytes(const PlanStatics& st) {
  const JoinedAccess& a = st.access;
  int64_t bytes = 0;
  bytes += static_cast<int64_t>(a.matched_rows.size()) * 8;
  bytes += static_cast<int64_t>(a.y.size()) * 8;
  // DenseMapping: sorted ids plus a hash entry per id.
  bytes += static_cast<int64_t>(a.row_map.ids.size() + a.col_map.ids.size()) *
           (8 + kHashEntryBytes);
  for (const auto& m : st.memberships) {
    bytes += static_cast<int64_t>(m.size()) * 8;
  }
  return bytes;
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
    const PlanStatics& st = f->statics();
    double* d = f->Data(v_x);
    std::fill_n(d, static_cast<size_t>(rows * cols), 0.0);
    return engine::ScatterJoined(*st.tables, st.access, d, cols,
                                 /*col_offset=*/0, ctx);
  };
}

GraphParts BuildRegressionGraph(const JoinedAccess& a) {
  GraphParts p;
  const int64_t rows = a.row_map.size();
  const int64_t cd = a.col_map.size() + 1;  // Intercept column first.
  const int v_design = p.graph.AddValue("design", {rows, cd});
  p.Add({OpKind::kScan, "scan_design", {}, {v_design}},
        [v_design, rows, cd](ExecFrame* f, ExecContext* ctx,
                             QueryResult*) -> genbase::Status {
          const PlanStatics& st = f->statics();
          double* d = f->Data(v_design);
          std::fill_n(d, static_cast<size_t>(rows * cd), 0.0);
          for (int64_t i = 0; i < rows; ++i) d[i * cd] = 1.0;
          return engine::ScatterJoined(*st.tables, st.access, d, cd,
                                       /*col_offset=*/1, ctx);
        });
  p.Add({OpKind::kGemm, "least_squares", {v_design}, {}},
        [v_design](ExecFrame* f, ExecContext* ctx,
                   QueryResult* out) -> genbase::Status {
          GENBASE_ASSIGN_OR_RETURN(
              out->regression,
              core::RegressionAnalytics(f->View(v_design),
                                        f->statics().access.y, ctx));
          return genbase::Status::OK();
        });
  return p;
}

genbase::Result<GraphParts> BuildCovarianceGraph(const PlanStatics& st) {
  GraphParts p;
  const std::vector<int64_t>& gene_ids = st.access.col_map.ids;
  const int64_t rows = st.access.row_map.size();
  const auto cols = static_cast<int64_t>(gene_ids.size());
  if (rows < 2) {
    return genbase::Status::InvalidArgument(
        "covariance needs at least 2 samples");
  }
  // The join's gene metadata, resolved once through the legacy path's
  // lookup: gene column g's function and length.
  const core::GeneMetaLookup meta =
      engine::MakeColumnarMetaLookup(st.tables->genes);
  std::vector<int64_t> function(static_cast<size_t>(cols));
  std::vector<int64_t> length(static_cast<size_t>(cols));
  for (size_t g = 0; g < function.size(); ++g) {
    GENBASE_RETURN_NOT_OK(meta(gene_ids[g], &function[g], &length[g]));
  }
  const int64_t num_pairs = cols * (cols - 1) / 2;
  const int v_x = p.graph.AddValue("x", {rows, cols});
  const int v_means = p.graph.AddValue("means", {cols, 1});
  const int v_cov = p.graph.AddValue("cov", {cols, cols});
  const int v_upper = p.graph.AddValue("upper", {num_pairs, 1});
  const int v_buckets = p.graph.AddValue("upper_buckets", {num_pairs, 1});
  const int v_ends = p.graph.AddValue(
      "bucket_ends", {stats::QuantileBuckets(num_pairs), 1});
  const int v_select = p.graph.AddValue("select", {num_pairs, 1});
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
  // `bucket_ends` is an int64 value: both ops below access its slot only
  // through int64_t pointers.
  p.Add({OpKind::kPartition, "partition_upper", {v_upper},
         {v_buckets, v_ends}},
        [v_upper, v_buckets, v_ends, num_pairs](
            ExecFrame* f, ExecContext*, QueryResult*) -> genbase::Status {
          stats::PartitionForQuantile(
              f->In(v_upper), num_pairs, f->Data(v_buckets),
              reinterpret_cast<int64_t*>(f->Data(v_ends)));
          return genbase::Status::OK();
        });
  // Selects inside the one bucket that holds the quantile's rank, on a copy
  // in the execute region: the buckets are read-only plan constants.
  p.Add({OpKind::kQuantile, "quantile", {v_buckets, v_ends},
         {v_select, v_thr}, kReadsParams},
        [v_buckets, v_ends, v_select, v_thr, num_pairs](
            ExecFrame* f, ExecContext*, QueryResult*) -> genbase::Status {
          GENBASE_ASSIGN_OR_RETURN(
              const double thr,
              stats::PartitionedQuantile(
                  f->In(v_buckets),
                  reinterpret_cast<const int64_t*>(f->In(v_ends)), num_pairs,
                  f->params().covariance_quantile, f->Data(v_select)));
          f->Data(v_thr)[0] = thr;
          return genbase::Status::OK();
        });
  // The join runs per execute (its threshold does), on the upper triangle
  // in extraction order so its checksums sum as the legacy path's do.
  p.Add({OpKind::kJoin, "threshold_join", {v_upper, v_thr}, {}},
        [v_upper, v_thr, rows, cols, function = std::move(function),
         length = std::move(length)](ExecFrame* f, ExecContext* ctx,
                                     QueryResult* out) -> genbase::Status {
          GENBASE_ASSIGN_OR_RETURN(
              out->covariance,
              core::CovarianceJoinPass(f->In(v_upper), cols, rows,
                                       f->In(v_thr)[0], function.data(),
                                       length.data(), ctx));
          return genbase::Status::OK();
        });
  // The join's two metadata arrays; the tables are not kept.
  p.retained_static_bytes =
      cols * 2 * static_cast<int64_t>(sizeof(int64_t));
  return p;
}

GraphParts BuildBiclusterGraph(const JoinedAccess& a) {
  GraphParts p;
  const int64_t rows = a.row_map.size();
  const int64_t cols = a.col_map.size();
  const int v_x = p.graph.AddValue("x", {rows, cols});
  p.Add({OpKind::kScan, "scan_matrix", {}, {v_x}},
        ScanMatrix(v_x, rows, cols));
  // Only delta, the count and the masking read params, so the first
  // extraction's multiple node deletion is folded: it removes nodes by
  // alpha * H alone, and delta only stops it early. The fold seeds the
  // plan's Cheng-Church record with that stopped state, H(x) and x's range
  // (bicluster::ChengChurchRecord). A run reads delta only through its
  // tests, so its answer holds for every delta that takes each test the
  // same way: cheng_church answers a delta inside a recorded piece of its
  // count from the record, and runs any other delta, continuing the
  // prefix when delta is below every H the deletion tested, then records
  // its piece. The record lives outside the arena, charged to the plan as
  // it grows.
  auto record =
      std::make_shared<std::optional<bicluster::ChengChurchRecord>>();
  p.Add({OpKind::kChengChurchStep, "bicluster_prefix", {v_x}, {}},
        [v_x, record](ExecFrame* f, ExecContext* ctx,
                      QueryResult*) -> genbase::Status {
          record->emplace(f->kept());
          return core::BiclusterPrefix(f->View(v_x), &**record, ctx);
        });
  p.Add({OpKind::kChengChurchStep, "cheng_church", {v_x}, {}, kReadsParams},
        [v_x, record](ExecFrame* f, ExecContext* ctx,
                      QueryResult* out) -> genbase::Status {
          const QueryParams& params = f->params();
          GENBASE_ASSIGN_OR_RETURN(
              out->bicluster,
              core::BiclusterAnalytics(
                  f->View(v_x), params.bicluster_delta_fraction,
                  params.bicluster_count, ctx, nullptr, &**record));
          return genbase::Status::OK();
        });
  return p;
}

GraphParts BuildSvdGraph(const JoinedAccess& a) {
  GraphParts p;
  const int64_t rows = a.row_map.size();
  const int64_t cols = a.col_map.size();
  const int v_x = p.graph.AddValue("x", {rows, cols});
  p.Add({OpKind::kScan, "scan_matrix", {}, {v_x}},
        ScanMatrix(v_x, rows, cols));
  // Only the Lanczos stopping rule reads svd_rank, so one Lanczos record
  // serves every rank (linalg::LanczosRecord): the recurrence so far and,
  // for each m it reached, how many of T_m's top Ritz pairs converged. The
  // fold seeds it with the rank-1 run, which every rank k >= 1 extends:
  // top-k convergence at iteration m implies top-1 convergence at m,
  // max_iter(k) = min(n, 2k + 120) >= max_iter(1), and a b_j <= 1e-300
  // breakdown stops every rank at the same m. truncated_svd scans the
  // record with the stopping rule and solves T_m once at its stop; a rank
  // whose stop lies past the record continues a copy of it with Gram steps
  // and publishes the longer record. The record lives outside the arena,
  // charged to the plan as it grows.
  auto record = std::make_shared<std::optional<linalg::LanczosRecord>>();
  p.Add({OpKind::kSvdHelper, "lanczos_prefix", {v_x}, {}},
        [v_x, record](ExecFrame* f, ExecContext* ctx,
                      QueryResult*) -> genbase::Status {
          record->emplace(f->kept());
          return core::SvdPrefix(f->View(v_x), linalg::KernelQuality::kTuned,
                                 &**record, ctx);
        });
  p.Add({OpKind::kSvdHelper, "truncated_svd", {v_x}, {}, kReadsParams},
        [v_x, record](ExecFrame* f, ExecContext* ctx,
                      QueryResult* out) -> genbase::Status {
          GENBASE_ASSIGN_OR_RETURN(
              out->svd,
              core::SvdAnalytics(f->View(v_x), f->params().svd_rank,
                                 linalg::KernelQuality::kTuned, ctx,
                                 &**record));
          return genbase::Status::OK();
        });
  return p;
}

GraphParts BuildStatsGraph(const PlanStatics& statics) {
  GraphParts p;
  const int64_t genes = statics.access.col_map.size();
  const auto terms = static_cast<int64_t>(statics.memberships.size());
  const int v_scores = p.graph.AddValue("scores", {genes, 1});
  const int v_p = p.graph.AddValue("p_values", {terms, 1});
  p.Add({OpKind::kScan, "aggregate_scores", {}, {v_scores}},
        [v_scores](ExecFrame* f, ExecContext* ctx,
                   QueryResult*) -> genbase::Status {
          const PlanStatics& st = f->statics();
          return engine::AggregateScores(*st.tables, st.access,
                                         f->Data(v_scores), ctx);
        });
  p.Add({OpKind::kWilcoxonRank, "wilcoxon", {v_scores}, {v_p}},
        [v_scores, v_p, genes](ExecFrame* f, ExecContext* ctx,
                               QueryResult* out) -> genbase::Status {
          const PlanStatics& st = f->statics();
          GENBASE_ASSIGN_OR_RETURN(
              out->stats,
              core::StatsRankTests(f->In(v_scores), genes, st.memberships,
                                   f->Data(v_p), ctx));
          out->stats.samples = st.access.sample_count;
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
// (mixed in below because the selection or graph shapes read it) or
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
      h = HashMix(h, static_cast<uint64_t>(params.function_threshold));
      break;
    case QueryId::kCovariance:
      h = HashMix(h, static_cast<uint64_t>(params.disease_id));
      break;
    case QueryId::kBiclustering:
      h = HashMix(h, static_cast<uint64_t>(params.gender));
      h = HashMix(h, static_cast<uint64_t>(params.max_age));
      break;
    case QueryId::kStatistics:
      h = HashMix(h, params.sample_fraction);
      break;
  }
  return h;
}

genbase::Result<std::shared_ptr<CompiledPlan>> CompileQuery(
    std::shared_ptr<const ColumnarTables> tables, QueryId query,
    const QueryParams& params, MemoryTracker* tracker, ExecContext* ctx) {
  // The access paths once, at compile time; charged while compiling and
  // released with the statics when this returns.
  PlanStatics statics;
  GENBASE_ASSIGN_OR_RETURN(
      statics.access,
      engine::BuildJoinedAccess(*tables, query, params, ctx, tracker));
  if (query == QueryId::kStatistics) {
    // Read by the folded rank tests only.
    statics.memberships = engine::MemberPositions(*tables, statics.access);
  }
  statics.tables = std::move(tables);
  GENBASE_ASSIGN_OR_RETURN(
      ScopedReservation statics_reservation,
      ScopedReservation::Acquire(tracker, StaticsBytes(statics)));

  GraphParts parts;
  switch (query) {
    case QueryId::kRegression:
      parts = BuildRegressionGraph(statics.access);
      break;
    case QueryId::kCovariance: {
      GENBASE_ASSIGN_OR_RETURN(parts, BuildCovarianceGraph(statics));
      break;
    }
    case QueryId::kBiclustering:
      parts = BuildBiclusterGraph(statics.access);
      break;
    case QueryId::kSvd:
      parts = BuildSvdGraph(statics.access);
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
