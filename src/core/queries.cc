#include "core/queries.h"

#include <algorithm>
#include <cmath>

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

RegressionSummary SummarizeFit(int64_t rows, int64_t cols,
                               const linalg::LeastSquaresFit& fit) {
  RegressionSummary s;
  s.rows = rows;
  s.predictors = cols - 1;
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
    linalg::Matrix design_with_intercept, const std::vector<double>& y,
    ExecContext* ctx) {
  const int64_t rows = design_with_intercept.rows();
  const int64_t cols = design_with_intercept.cols();
  GENBASE_ASSIGN_OR_RETURN(
      linalg::LeastSquaresFit fit,
      linalg::LeastSquaresQr(std::move(design_with_intercept), y, ctx));
  return SummarizeFit(rows, cols, fit);
}

genbase::Result<RegressionSummary> RegressionAnalytics(
    const linalg::MatrixView& design_with_intercept,
    const std::vector<double>& y, ExecContext* ctx) {
  GENBASE_ASSIGN_OR_RETURN(
      linalg::LeastSquaresFit fit,
      linalg::LeastSquaresQr(design_with_intercept, y, ctx));
  return SummarizeFit(design_with_intercept.rows, design_with_intercept.cols,
                      fit);
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
  GENBASE_ASSIGN_OR_RETURN(
      const double threshold,
      stats::Quantile(upper.data(), num_pairs, quantile, tracker));
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

namespace {

/// Columns per compaction block of the join: the block's qualifying
/// columns fit in a local array, so the join allocates nothing per call.
constexpr int64_t kJoinBlock = 256;

/// The one threshold pass + metadata join, in upper-triangle order (so the
/// checksums sum in the same order on every path). Each block of a row is
/// first compacted to its qualifying columns without a branch, then summed
/// in column order. A pair qualifies when !(c <= threshold), so a NaN
/// qualifies. `resolve(g)` runs before a qualifying pair reads function[g]
/// and length[g].
template <typename Resolve>
genbase::Result<CovarianceSummary> JoinLoop(
    const double* upper, int64_t genes, int64_t samples, double threshold,
    const int64_t* function, const int64_t* length, const Resolve& resolve,
    ExecContext* ctx) {
  CovarianceSummary s;
  s.samples = samples;
  s.genes = genes;
  s.threshold = threshold;
  int64_t pairs = 0;
  double cov_sum = 0.0;
  double meta_sum = 0.0;
  int64_t hits[kJoinBlock] = {};  // A block's qualifying pairs, by offset.
  const double* row = upper;      // Pairs (i, i+1), (i, i+2), ...
  for (int64_t i = 0; i < genes; ++i) {
    if (ctx != nullptr && (i & 255) == 0) {
      GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    }
    const int64_t len = genes - 1 - i;
    for (int64_t lo = 0; lo < len; lo += kJoinBlock) {
      const int64_t hi = std::min(len, lo + kJoinBlock);
      int64_t n = 0;
      for (int64_t t = lo; t < hi; ++t) {
        hits[n] = t;
        n += !(row[t] <= threshold);
      }
      if (n == 0) continue;
      GENBASE_RETURN_NOT_OK(resolve(i));
      const int64_t fi = function[i];
      const int64_t li = length[i];
      for (int64_t h = 0; h < n; ++h) {
        const int64_t j = i + 1 + hits[h];
        cov_sum += row[hits[h]];
        GENBASE_RETURN_NOT_OK(resolve(j));
        meta_sum += static_cast<double>(fi + function[j]) +
                    1e-3 * static_cast<double>(li + length[j]);
      }
      pairs += n;
    }
    row += len;
  }
  s.pairs_above = pairs;
  s.cov_checksum = cov_sum;
  s.meta_checksum = meta_sum;
  return s;
}

}  // namespace

genbase::Result<CovarianceSummary> CovarianceJoinPass(
    const double* upper, int64_t genes, int64_t samples, double threshold,
    const int64_t* function, const int64_t* length, ExecContext* ctx) {
  return JoinLoop(upper, genes, samples, threshold, function, length,
                  [](int64_t) { return Status::OK(); }, ctx);
}

genbase::Result<CovarianceSummary> CovarianceJoinPass(
    const double* upper, int64_t genes, int64_t samples, double threshold,
    const std::vector<int64_t>& gene_ids, const GeneMetaLookup& meta,
    ExecContext* ctx) {
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  GENBASE_ASSIGN_OR_RETURN(
      auto reservation,
      ScopedReservation::Acquire(tracker, genes * 16 + (genes + 7) / 8));
  std::vector<int64_t> function(static_cast<size_t>(genes));
  std::vector<int64_t> length(static_cast<size_t>(genes));
  std::vector<bool> resolved(static_cast<size_t>(genes), false);
  const auto resolve = [&](int64_t g) -> genbase::Status {
    const auto idx = static_cast<size_t>(g);
    if (resolved[idx]) return Status::OK();
    resolved[idx] = true;
    return meta(gene_ids[idx], &function[idx], &length[idx]);
  };
  return JoinLoop(upper, genes, samples, threshold, function.data(),
                  length.data(), resolve, ctx);
}

namespace {

/// Q3's Cheng-Church options before delta and the count are set.
bicluster::ChengChurchOptions BiclusterOptions() {
  bicluster::ChengChurchOptions opt;
  opt.min_rows = 4;
  opt.min_cols = 4;
  return opt;
}

/// Charges the row and column index vectors that H(x) builds to the run's
/// tracker, so per-op alloc_delta_bytes stays exact even for Q3's setup.
genbase::Result<ScopedReservation> ReserveIndexes(const linalg::MatrixView& x,
                                                  ExecContext* ctx) {
  return ScopedReservation::Acquire(
      ctx != nullptr ? ctx->memory() : nullptr,
      (x.rows + x.cols) * static_cast<int64_t>(sizeof(int64_t)));
}

}  // namespace

genbase::Result<BiclusterSummary> BiclusterAnalytics(
    const linalg::MatrixView& x, double delta_fraction, int count,
    ExecContext* ctx, std::function<genbase::Status()> pass_hook,
    bicluster::ChengChurchRecord* record) {
  BiclusterSummary s;
  s.matrix_rows = x.rows;
  s.matrix_cols = x.cols;
  // Without a record the index reservation stays held through the run.
  ScopedReservation index_reservation;
  if (record != nullptr) {
    s.delta = delta_fraction * record->prefix().full_msr;
  } else {
    GENBASE_ASSIGN_OR_RETURN(index_reservation, ReserveIndexes(x, ctx));
    s.delta = delta_fraction * bicluster::MeanSquaredResidue(x);
  }

  bicluster::ChengChurchOptions opt = BiclusterOptions();
  opt.delta = s.delta;
  opt.max_biclusters = count;
  opt.pass_hook = std::move(pass_hook);
  GENBASE_ASSIGN_OR_RETURN(std::vector<bicluster::Bicluster> found,
                           record != nullptr
                               ? record->Run(x, opt, ctx)
                               : bicluster::ChengChurch(x, opt, ctx));
  for (const auto& b : found) {
    s.biclusters.push_back({static_cast<int64_t>(b.rows.size()),
                            static_cast<int64_t>(b.cols.size()),
                            b.mean_squared_residue});
  }
  return s;
}

genbase::Status BiclusterPrefix(const linalg::MatrixView& x,
                                bicluster::ChengChurchRecord* record,
                                ExecContext* ctx) {
  GENBASE_ASSIGN_OR_RETURN(ScopedReservation index_reservation,
                           ReserveIndexes(x, ctx));
  GENBASE_ASSIGN_OR_RETURN(
      bicluster::ChengChurchState prefix,
      bicluster::ChengChurchPrefix(x, BiclusterOptions(), ctx));
  return record->Seed(std::move(prefix));
}

genbase::Result<SvdSummary> SvdAnalytics(
    const linalg::MatrixView& x, int rank, linalg::KernelQuality quality,
    ExecContext* ctx, linalg::LanczosRecord* record) {
  SvdSummary s;
  s.rows = x.rows;
  s.cols = x.cols;
  s.rank = std::min<int64_t>(rank, x.cols);
  linalg::SvdOptions opt;
  opt.rank = s.rank;
  opt.quality = quality;
  GENBASE_ASSIGN_OR_RETURN(
      linalg::SvdResult svd,
      linalg::TruncatedSingularValues(x, opt, record, ctx));
  s.iterations = svd.lanczos_iterations;
  s.singular_values = std::move(svd.singular_values);
  return s;
}

genbase::Status SvdPrefix(const linalg::MatrixView& x,
                          linalg::KernelQuality quality,
                          linalg::LanczosRecord* record, ExecContext* ctx) {
  if (x.rows == 0 || x.cols == 0) return genbase::Status::OK();
  return SvdAnalytics(x, /*rank=*/1, quality, ctx, record).status();
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
    for (int64_t g : members) {
      if (g < 0 || g >= count) {
        return Status::InvalidArgument(
            "GO member " + std::to_string(g) + " is not a score position (" +
            std::to_string(count) + " scores)");
      }
    }
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
