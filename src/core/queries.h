#ifndef GENBASE_CORE_QUERIES_H_
#define GENBASE_CORE_QUERIES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "linalg/covariance.h"
#include "linalg/matrix.h"

namespace genbase::core {

/// \brief The five benchmark queries (paper Section 3.2).
enum class QueryId {
  kRegression = 1,   ///< Q1: predictive modeling (QR least squares).
  kCovariance = 2,   ///< Q2: all-pairs gene covariance + threshold join.
  kBiclustering = 3, ///< Q3: Cheng-Church biclustering.
  kSvd = 4,          ///< Q4: Lanczos SVD, top 50.
  kStatistics = 5,   ///< Q5: Wilcoxon rank-sum enrichment over GO terms.
};

const char* QueryName(QueryId q);
inline constexpr QueryId kAllQueries[] = {
    QueryId::kRegression, QueryId::kCovariance, QueryId::kBiclustering,
    QueryId::kSvd, QueryId::kStatistics};

/// \brief Workflow parameters, defaulted to the paper's examples.
struct QueryParams {
  /// Q1/Q4: "select genes with a particular set of functions (function <
  /// 250)". Function codes span [0, 500).
  int64_t function_threshold = 250;
  /// Q2: "select patients with some disease".
  int64_t disease_id = 7;
  /// Q2: "covariance greater than a threshold (e.g. top 10%)".
  double covariance_quantile = 0.90;
  /// Q3: "male patients less than 40 years old".
  int64_t max_age = 40;
  int64_t gender = 1;
  /// Q3: delta is set relative to the full matrix's mean squared residue
  /// (delta = fraction * H(full)); all engines derive it identically.
  double bicluster_delta_fraction = 0.35;
  int bicluster_count = 3;
  /// Q4: "find the 50 largest eigenvalues".
  int svd_rank = 50;
  /// Q5: "select a subset of samples (e.g. 0.25% of patients)".
  double sample_fraction = 0.0025;
  double significance = 0.01;
};

/// --- per-query result summaries --------------------------------------------
/// Engines return compact, comparable summaries. Where a full result would be
/// huge (Q2's qualifying pair list), the summary carries counts plus
/// checksums that cannot be produced without doing the work (including the
/// metadata join).

struct RegressionSummary {
  int64_t rows = 0;
  int64_t predictors = 0;          ///< Excluding intercept.
  double r_squared = 0.0;
  double coef_l2 = 0.0;            ///< L2 norm of all coefficients.
  std::vector<double> coef_head;   ///< First 8 coefficients (w/ intercept).
};

struct CovarianceSummary {
  int64_t samples = 0;
  int64_t genes = 0;
  int64_t pairs_above = 0;   ///< Pairs (i < j) with cov > threshold.
  double threshold = 0.0;
  double cov_checksum = 0.0;   ///< Sum of qualifying covariances.
  double meta_checksum = 0.0;  ///< Sum over qualifying pairs of joined
                               ///< gene-metadata fields (forces the join).
};

struct BiclusterSummary {
  struct Entry {
    int64_t rows = 0;
    int64_t cols = 0;
    double msr = 0.0;
  };
  int64_t matrix_rows = 0;
  int64_t matrix_cols = 0;
  double delta = 0.0;
  std::vector<Entry> biclusters;
};

struct SvdSummary {
  int64_t rows = 0;
  int64_t cols = 0;
  int rank = 0;
  int iterations = 0;  ///< Lanczos iterations used (not compared by verify;
                       ///< cost models for per-iteration-job systems use it).
  std::vector<double> singular_values;  ///< Descending, length == rank.
};

struct StatsSummary {
  int64_t samples = 0;
  int64_t genes_ranked = 0;
  int64_t terms_tested = 0;
  int64_t significant_terms = 0;  ///< p < significance.
  double z_abs_sum = 0.0;
};

struct QueryResult {
  QueryId query = QueryId::kRegression;
  RegressionSummary regression;
  CovarianceSummary covariance;
  BiclusterSummary bicluster;
  SvdSummary svd;
  StatsSummary stats;

  std::string ToString() const;
};

/// --- shared analytics building blocks ---------------------------------------
/// Engines produce inputs through their own storage/DM paths, then call these
/// for the math, parameterized by kernel quality and the context's thread
/// budget. Keeping the arithmetic shared is how all seven engines compute
/// identical answers while paying very different architectural costs — the
/// paper's own systems all called the same LAPACK-family routines.

/// Q1 analytics: least squares of y on [1 | X].
genbase::Result<RegressionSummary> RegressionAnalytics(
    linalg::Matrix design_with_intercept, const std::vector<double>& y,
    ExecContext* ctx);

/// View overload for a design matrix living in externally planned storage
/// (the static-plan arena). Identical arithmetic to the consuming overload,
/// so summaries are bitwise identical.
genbase::Result<RegressionSummary> RegressionAnalytics(
    const linalg::MatrixView& design_with_intercept,
    const std::vector<double>& y, ExecContext* ctx);

/// Lookup used by Q2's metadata join: gene id -> (function, length).
using GeneMetaLookup =
    std::function<genbase::Status(int64_t gene_id, int64_t* function,
                                  int64_t* length)>;

/// Q2 analytics: covariance of columns of x, quantile threshold, and the
/// qualifying-pair join against gene metadata.
genbase::Result<CovarianceSummary> CovarianceAnalytics(
    const linalg::MatrixView& x, const std::vector<int64_t>& gene_ids,
    const GeneMetaLookup& meta, double quantile,
    linalg::KernelQuality quality, ExecContext* ctx);

/// Q2's post-covariance step alone: quantile threshold over the upper
/// triangle, then the qualifying-pair metadata join. Shared by the
/// single-node path and the distributed path (which computes the covariance
/// matrix with a different kernel).
genbase::Result<CovarianceSummary> CovarianceThresholdJoin(
    const linalg::Matrix& cov, int64_t samples,
    const std::vector<int64_t>& gene_ids, const GeneMetaLookup& meta,
    double quantile, ExecContext* ctx);

/// Q2's upper-triangle extraction alone: writes cov's strict upper triangle
/// row-major into `upper` (n*(n-1)/2 doubles, caller-provided). One of the
/// CovarianceThresholdJoin building blocks; the static-plan path schedules
/// it as its own operator with `upper` in the arena.
genbase::Status CovarianceExtractUpper(const linalg::MatrixView& cov,
                                       double* upper, ExecContext* ctx);

/// Q2's qualifying-pair metadata join alone, against a precomputed
/// threshold, over the `genes` x `genes` covariance's strict upper triangle
/// as CovarianceExtractUpper lays it out, with gene column g's metadata in
/// function[g] and length[g]. Fills the full summary (samples/genes/
/// threshold come from the arguments). The other CovarianceThresholdJoin
/// building block; the static-plan path resolves the arrays at compile.
genbase::Result<CovarianceSummary> CovarianceJoinPass(
    const double* upper, int64_t genes, int64_t samples, double threshold,
    const int64_t* function, const int64_t* length, ExecContext* ctx);

/// Lookup overload: resolves gene column g through meta(gene_ids[g]) when a
/// qualifying pair first reads it (a failed lookup fails the join), then
/// reads it as the array overload does, in the same loop.
genbase::Result<CovarianceSummary> CovarianceJoinPass(
    const double* upper, int64_t genes, int64_t samples, double threshold,
    const std::vector<int64_t>& gene_ids, const GeneMetaLookup& meta,
    ExecContext* ctx);

/// Q3 analytics: Cheng-Church with delta = fraction * MSR(full matrix).
/// `pass_hook` (optional) is invoked once per algorithm pass; engines whose
/// analytics interface has per-invocation overhead charge it there.
genbase::Result<BiclusterSummary> BiclusterAnalytics(
    const linalg::MatrixView& x, double delta_fraction, int count,
    ExecContext* ctx,
    std::function<genbase::Status()> pass_hook = nullptr);

/// Q4 analytics: truncated SVD, rank = min(rank, cols).
genbase::Result<SvdSummary> SvdAnalytics(const linalg::MatrixView& x,
                                         int rank,
                                         linalg::KernelQuality quality,
                                         ExecContext* ctx);

/// Q5 analytics: Wilcoxon rank-sum per GO term over per-gene scores.
/// memberships[t] lists gene indices (0..genes-1) belonging to term t.
/// StatsRankTests then CountSignificant.
genbase::Result<StatsSummary> StatsAnalytics(
    const std::vector<double>& gene_scores,
    const std::vector<std::vector<int64_t>>& memberships,
    double significance, ExecContext* ctx);

/// Span overload for scores living in externally planned storage (the
/// static-plan arena); the vector overload forwards here.
genbase::Result<StatsSummary> StatsAnalytics(
    const double* gene_scores, int64_t count,
    const std::vector<std::vector<int64_t>>& memberships,
    double significance, ExecContext* ctx);

/// Q5's first half, which reads no parameter: one rank-sum test per GO
/// term with both groups non-empty. Writes the tested terms' two-sided
/// p-values, in term order, to p_values[0, terms_tested) (room for
/// memberships.size()) and fills genes_ranked, terms_tested and z_abs_sum.
genbase::Result<StatsSummary> StatsRankTests(
    const double* gene_scores, int64_t count,
    const std::vector<std::vector<int64_t>>& memberships, double* p_values,
    ExecContext* ctx);

/// Q5's second half: how many of the `terms` p-values fall below
/// `significance` (StatsSummary::significant_terms).
int64_t CountSignificant(const double* p_values, int64_t terms,
                         double significance);

}  // namespace genbase::core

#endif  // GENBASE_CORE_QUERIES_H_
