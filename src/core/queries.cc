#include "core/queries.h"

#include <algorithm>
#include <cmath>

#include "bicluster/cheng_church.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "stats/quantile.h"
#include "stats/wilcoxon.h"

namespace genbase::core {

const char* QueryName(QueryId q) {
  switch (q) {
    case QueryId::kRegression:
      return "regression";
    case QueryId::kCovariance:
      return "covariance";
    case QueryId::kBiclustering:
      return "biclustering";
    case QueryId::kSvd:
      return "svd";
    case QueryId::kStatistics:
      return "statistics";
  }
  return "?";
}

std::string QueryResult::ToString() const {
  char buf[256];
  switch (query) {
    case QueryId::kRegression:
      std::snprintf(buf, sizeof(buf),
                    "regression{rows=%lld predictors=%lld r2=%.4f}",
                    static_cast<long long>(regression.rows),
                    static_cast<long long>(regression.predictors),
                    regression.r_squared);
      break;
    case QueryId::kCovariance:
      std::snprintf(buf, sizeof(buf),
                    "covariance{samples=%lld genes=%lld pairs=%lld thr=%.4f}",
                    static_cast<long long>(covariance.samples),
                    static_cast<long long>(covariance.genes),
                    static_cast<long long>(covariance.pairs_above),
                    covariance.threshold);
      break;
    case QueryId::kBiclustering:
      std::snprintf(buf, sizeof(buf),
                    "bicluster{matrix=%lldx%lld found=%zu delta=%.4f}",
                    static_cast<long long>(bicluster.matrix_rows),
                    static_cast<long long>(bicluster.matrix_cols),
                    bicluster.biclusters.size(), bicluster.delta);
      break;
    case QueryId::kSvd:
      std::snprintf(buf, sizeof(buf),
                    "svd{%lldx%lld rank=%d sigma0=%.4f}",
                    static_cast<long long>(svd.rows),
                    static_cast<long long>(svd.cols), svd.rank,
                    svd.singular_values.empty() ? 0.0
                                                : svd.singular_values[0]);
      break;
    case QueryId::kStatistics:
      std::snprintf(buf, sizeof(buf),
                    "stats{terms=%lld significant=%lld zsum=%.4f}",
                    static_cast<long long>(stats.terms_tested),
                    static_cast<long long>(stats.significant_terms),
                    stats.z_abs_sum);
      break;
  }
  return buf;
}

genbase::Result<RegressionSummary> RegressionAnalytics(
    linalg::Matrix design_with_intercept, const std::vector<double>& y,
    ExecContext* ctx) {
  RegressionSummary s;
  s.rows = design_with_intercept.rows();
  s.predictors = design_with_intercept.cols() - 1;
  GENBASE_ASSIGN_OR_RETURN(
      linalg::LeastSquaresFit fit,
      linalg::LeastSquaresQr(std::move(design_with_intercept), y, ctx));
  s.r_squared = fit.r_squared;
  double l2 = 0.0;
  for (double c : fit.coefficients) l2 += c * c;
  s.coef_l2 = std::sqrt(l2);
  const size_t head = std::min<size_t>(8, fit.coefficients.size());
  s.coef_head.assign(fit.coefficients.begin(),
                     fit.coefficients.begin() + head);
  return s;
}

genbase::Result<RegressionSummary> RegressionAnalytics(
    const linalg::MatrixView& design_with_intercept,
    const std::vector<double>& y, ExecContext* ctx) {
  RegressionSummary s;
  s.rows = design_with_intercept.rows;
  s.predictors = design_with_intercept.cols - 1;
  GENBASE_ASSIGN_OR_RETURN(
      linalg::LeastSquaresFit fit,
      linalg::LeastSquaresQr(design_with_intercept, y, ctx));
  s.r_squared = fit.r_squared;
  double l2 = 0.0;
  for (double c : fit.coefficients) l2 += c * c;
  s.coef_l2 = std::sqrt(l2);
  const size_t head = std::min<size_t>(8, fit.coefficients.size());
  s.coef_head.assign(fit.coefficients.begin(),
                     fit.coefficients.begin() + head);
  return s;
}

genbase::Result<CovarianceSummary> CovarianceAnalytics(
    const linalg::MatrixView& x, const std::vector<int64_t>& gene_ids,
    const GeneMetaLookup& meta, double quantile,
    linalg::KernelQuality quality, ExecContext* ctx) {
  if (static_cast<int64_t>(gene_ids.size()) != x.cols) {
    return Status::InvalidArgument("gene id list must match matrix columns");
  }
  GENBASE_ASSIGN_OR_RETURN(linalg::Matrix cov,
                           linalg::CovarianceMatrix(x, quality, ctx));
  return CovarianceThresholdJoin(cov, x.rows, gene_ids, meta, quantile,
                                 ctx);
}

genbase::Result<CovarianceSummary> CovarianceThresholdJoin(
    const linalg::Matrix& cov, int64_t samples,
    const std::vector<int64_t>& gene_ids, const GeneMetaLookup& meta,
    double quantile, ExecContext* ctx) {
  // Upper-triangle values for the threshold quantile.
  const int64_t n = cov.rows();
  const int64_t num_pairs = n * (n - 1) / 2;
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  GENBASE_ASSIGN_OR_RETURN(
      auto reservation,
      ScopedReservation::Acquire(tracker, num_pairs * 8));
  std::vector<double> upper(static_cast<size_t>(num_pairs));
  const linalg::MatrixView cov_view(cov);
  GENBASE_RETURN_NOT_OK(CovarianceExtractUpper(cov_view, upper.data(), ctx));
  GENBASE_ASSIGN_OR_RETURN(const double threshold,
                           stats::Quantile(upper, quantile));
  return CovarianceJoinPass(upper.data(), n, samples, threshold, gene_ids,
                            meta, ctx);
}

genbase::Status CovarianceExtractUpper(const linalg::MatrixView& cov,
                                       double* upper, ExecContext* ctx) {
  const int64_t n = cov.rows;
  int64_t k = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (ctx != nullptr && (i & 255) == 0) {
      GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    }
    for (int64_t j = i + 1; j < n; ++j) upper[k++] = cov(i, j);
  }
  return Status::OK();
}

genbase::Result<CovarianceSummary> CovarianceJoinPass(
    const double* upper, int64_t genes, int64_t samples, double threshold,
    const std::vector<int64_t>& gene_ids, const GeneMetaLookup& meta,
    ExecContext* ctx) {
  CovarianceSummary s;
  s.samples = samples;
  s.genes = genes;
  s.threshold = threshold;
  // Threshold pass + metadata join for qualifying pairs.
  const int64_t n = genes;
  int64_t k = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (ctx != nullptr && (i & 255) == 0) {
      GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    }
    for (int64_t j = i + 1; j < n; ++j) {
      const double c = upper[k++];
      if (c <= s.threshold) continue;
      ++s.pairs_above;
      s.cov_checksum += c;
      int64_t func_i = 0, len_i = 0, func_j = 0, len_j = 0;
      GENBASE_RETURN_NOT_OK(meta(gene_ids[i], &func_i, &len_i));
      GENBASE_RETURN_NOT_OK(meta(gene_ids[j], &func_j, &len_j));
      s.meta_checksum += static_cast<double>(func_i + func_j) +
                         1e-3 * static_cast<double>(len_i + len_j);
    }
  }
  return s;
}

genbase::Result<BiclusterSummary> BiclusterAnalytics(
    const linalg::MatrixView& x, double delta_fraction, int count,
    ExecContext* ctx, std::function<genbase::Status()> pass_hook) {
  BiclusterSummary s;
  s.matrix_rows = x.rows;
  s.matrix_cols = x.cols;
  // Index temporaries charged to the run's tracker so per-op
  // alloc_delta_bytes stays exact even for Q3's setup vectors.
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  GENBASE_ASSIGN_OR_RETURN(
      auto index_reservation,
      ScopedReservation::Acquire(
          tracker, (x.rows + x.cols) * static_cast<int64_t>(sizeof(int64_t))));
  std::vector<int64_t> all_rows(static_cast<size_t>(x.rows));
  std::vector<int64_t> all_cols(static_cast<size_t>(x.cols));
  for (int64_t i = 0; i < x.rows; ++i) all_rows[i] = i;
  for (int64_t j = 0; j < x.cols; ++j) all_cols[j] = j;
  const double full_msr =
      bicluster::MeanSquaredResidue(x, all_rows, all_cols);
  s.delta = delta_fraction * full_msr;

  bicluster::ChengChurchOptions opt;
  opt.delta = s.delta;
  opt.max_biclusters = count;
  opt.min_rows = 4;
  opt.min_cols = 4;
  opt.pass_hook = std::move(pass_hook);
  GENBASE_ASSIGN_OR_RETURN(std::vector<bicluster::Bicluster> found,
                           bicluster::ChengChurch(x, opt, ctx));
  for (const auto& b : found) {
    s.biclusters.push_back({static_cast<int64_t>(b.rows.size()),
                            static_cast<int64_t>(b.cols.size()),
                            b.mean_squared_residue});
  }
  return s;
}

genbase::Result<SvdSummary> SvdAnalytics(const linalg::MatrixView& x,
                                         int rank,
                                         linalg::KernelQuality quality,
                                         ExecContext* ctx) {
  SvdSummary s;
  s.rows = x.rows;
  s.cols = x.cols;
  s.rank = std::min<int64_t>(rank, x.cols);
  linalg::SvdOptions opt;
  opt.rank = s.rank;
  opt.quality = quality;
  GENBASE_ASSIGN_OR_RETURN(linalg::SvdResult svd,
                           linalg::TruncatedSvd(x, opt, ctx));
  s.iterations = svd.lanczos_iterations;
  s.singular_values = std::move(svd.singular_values);
  return s;
}

genbase::Result<StatsSummary> StatsAnalytics(
    const std::vector<double>& gene_scores,
    const std::vector<std::vector<int64_t>>& memberships,
    double significance, ExecContext* ctx) {
  return StatsAnalytics(gene_scores.data(),
                        static_cast<int64_t>(gene_scores.size()), memberships,
                        significance, ctx);
}

genbase::Result<StatsSummary> StatsAnalytics(
    const double* gene_scores, int64_t count,
    const std::vector<std::vector<int64_t>>& memberships,
    double significance, ExecContext* ctx) {
  const auto terms = static_cast<int64_t>(memberships.size());
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  GENBASE_ASSIGN_OR_RETURN(auto p_reservation,
                           ScopedReservation::Acquire(tracker, terms * 8));
  std::vector<double> p_values(static_cast<size_t>(terms));
  GENBASE_ASSIGN_OR_RETURN(
      StatsSummary s, StatsRankTests(gene_scores, count, memberships,
                                     p_values.data(), ctx));
  s.significant_terms =
      CountSignificant(p_values.data(), s.terms_tested, significance);
  return s;
}

genbase::Result<StatsSummary> StatsRankTests(
    const double* gene_scores, int64_t count,
    const std::vector<std::vector<int64_t>>& memberships, double* p_values,
    ExecContext* ctx) {
  StatsSummary s;
  s.genes_ranked = count;
  // The group mask is reused across terms; charge its packed-bit footprint
  // so per-op alloc_delta_bytes stays exact.
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  GENBASE_ASSIGN_OR_RETURN(auto mask_reservation,
                           ScopedReservation::Acquire(tracker, (count + 7) / 8));
  std::vector<bool> mask(static_cast<size_t>(count), false);
  for (const auto& members : memberships) {
    if (ctx != nullptr) GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    if (members.empty() ||
        static_cast<int64_t>(members.size()) == count) {
      continue;  // Test undefined when a group is empty.
    }
    std::fill(mask.begin(), mask.end(), false);
    for (int64_t g : members) mask[static_cast<size_t>(g)] = true;
    GENBASE_ASSIGN_OR_RETURN(
        stats::RankSumResult r,
        stats::WilcoxonRankSum(gene_scores, count, mask));
    p_values[s.terms_tested++] = r.p_two_sided;
    s.z_abs_sum += std::fabs(r.z);
  }
  return s;
}

int64_t CountSignificant(const double* p_values, int64_t terms,
                         double significance) {
  int64_t significant = 0;
  for (int64_t t = 0; t < terms; ++t) {
    if (p_values[t] < significance) ++significant;
  }
  return significant;
}

}  // namespace genbase::core
