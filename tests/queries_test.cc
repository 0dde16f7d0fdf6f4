#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/generator.h"
#include "core/queries.h"
#include "core/reference.h"
#include "engine/engine_util.h"
#include "linalg/blas.h"

namespace genbase::core {
namespace {

// --- RegressionAnalytics ---------------------------------------------------------

TEST(RegressionAnalyticsTest, PerfectFit) {
  const int64_t m = 40;
  linalg::Matrix design(m, 3);  // [1 | x1 | x2].
  std::vector<double> y(m);
  Rng rng(1);
  for (int64_t i = 0; i < m; ++i) {
    design(i, 0) = 1.0;
    design(i, 1) = rng.Gaussian();
    design(i, 2) = rng.Gaussian();
    y[i] = 2.0 + 3.0 * design(i, 1) - design(i, 2);
  }
  auto s = RegressionAnalytics(std::move(design), y, nullptr);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->predictors, 2);
  EXPECT_EQ(s->rows, m);
  EXPECT_NEAR(s->r_squared, 1.0, 1e-10);
  ASSERT_EQ(s->coef_head.size(), 3u);
  EXPECT_NEAR(s->coef_head[0], 2.0, 1e-9);
  EXPECT_NEAR(s->coef_head[1], 3.0, 1e-9);
  EXPECT_NEAR(s->coef_head[2], -1.0, 1e-9);
}

TEST(RegressionAnalyticsTest, PureNoiseHasLowR2) {
  const int64_t m = 200;
  linalg::Matrix design(m, 4);
  std::vector<double> y(m);
  Rng rng(2);
  for (int64_t i = 0; i < m; ++i) {
    design(i, 0) = 1.0;
    for (int j = 1; j < 4; ++j) design(i, j) = rng.Gaussian();
    y[i] = rng.Gaussian();
  }
  auto s = RegressionAnalytics(std::move(design), y, nullptr);
  ASSERT_TRUE(s.ok());
  EXPECT_LT(s->r_squared, 0.15);
  EXPECT_GE(s->r_squared, 0.0);
}

TEST(RegressionAnalyticsTest, MismatchedRhsRejected) {
  auto s = RegressionAnalytics(linalg::Matrix(5, 2), {1.0, 2.0}, nullptr);
  EXPECT_FALSE(s.ok());
}

// --- CovarianceThresholdJoin -------------------------------------------------------

GeneMetaLookup ConstantMeta(int64_t function, int64_t length) {
  return [function, length](int64_t, int64_t* f, int64_t* l) {
    *f = function;
    *l = length;
    return genbase::Status::OK();
  };
}

TEST(CovarianceThresholdJoinTest, KnownTinyMatrix) {
  // 3x3 covariance with distinct off-diagonal values 1, 2, 3.
  linalg::Matrix cov(3, 3);
  cov(0, 1) = cov(1, 0) = 1.0;
  cov(0, 2) = cov(2, 0) = 2.0;
  cov(1, 2) = cov(2, 1) = 3.0;
  const std::vector<int64_t> ids = {10, 20, 30};
  // Quantile 0.5 over {1,2,3} -> threshold 2; one pair strictly above.
  auto s = CovarianceThresholdJoin(cov, 7, ids, ConstantMeta(5, 100), 0.5,
                                   nullptr);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->samples, 7);
  EXPECT_EQ(s->genes, 3);
  EXPECT_DOUBLE_EQ(s->threshold, 2.0);
  EXPECT_EQ(s->pairs_above, 1);
  EXPECT_DOUBLE_EQ(s->cov_checksum, 3.0);
  // meta checksum: (5 + 5) + 1e-3 * (100 + 100).
  EXPECT_NEAR(s->meta_checksum, 10.0 + 0.2, 1e-12);
}

TEST(CovarianceThresholdJoinTest, MetaLookupFailurePropagates) {
  // Threshold (q=0) lands on the smallest pair value; the larger pair
  // qualifies and triggers the (failing) metadata lookup.
  linalg::Matrix cov(3, 3);
  cov(0, 1) = cov(1, 0) = 1.0;
  cov(0, 2) = cov(2, 0) = 1.0;
  cov(1, 2) = cov(2, 1) = 5.0;
  auto meta = [](int64_t, int64_t*, int64_t*) {
    return genbase::Status::NotFound("gone");
  };
  auto s = CovarianceThresholdJoin(cov, 3, {1, 2, 3}, meta, 0.0, nullptr);
  EXPECT_FALSE(s.ok());
}

TEST(CovarianceThresholdJoinTest, GeneIdMismatchInAnalytics) {
  linalg::Matrix x(5, 3);
  auto s = CovarianceAnalytics(linalg::MatrixView(x), {1, 2},  // Wrong size.
                               ConstantMeta(0, 0), 0.9,
                               linalg::KernelQuality::kTuned, nullptr);
  EXPECT_FALSE(s.ok());
}

// --- SvdAnalytics --------------------------------------------------------------------

TEST(SvdAnalyticsTest, RankClampedToColumns) {
  Rng rng(3);
  linalg::Matrix x(20, 6);
  for (int64_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  auto s = SvdAnalytics(linalg::MatrixView(x), 50,
                        linalg::KernelQuality::kTuned, nullptr);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->rank, 6);
  EXPECT_EQ(s->singular_values.size(), 6u);
  EXPECT_GT(s->iterations, 0);
}

// --- StatsAnalytics ------------------------------------------------------------------

TEST(StatsAnalyticsTest, SkipsDegenerateTerms) {
  const std::vector<double> scores = {1, 2, 3, 4, 5};
  std::vector<std::vector<int64_t>> memberships = {
      {},                 // Empty: skipped.
      {0, 1, 2, 3, 4},    // Everything: skipped.
      {3, 4},             // Valid.
  };
  auto s = StatsAnalytics(scores, memberships, 0.05, nullptr);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->terms_tested, 1);
  EXPECT_EQ(s->genes_ranked, 5);
}

TEST(StatsAnalyticsTest, PlantedEnrichmentDetected) {
  // 200 genes; term members are exactly the top-20 scorers.
  std::vector<double> scores(200);
  Rng rng(4);
  for (auto& s : scores) s = rng.Gaussian();
  std::vector<int64_t> order(200);
  for (int i = 0; i < 200; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](int64_t a, int64_t b) { return scores[a] > scores[b]; });
  std::vector<std::vector<int64_t>> memberships(1);
  for (int i = 0; i < 20; ++i) memberships[0].push_back(order[i]);
  auto s = StatsAnalytics(scores, memberships, 0.01, nullptr);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->significant_terms, 1);
}

TEST(StatsAnalyticsTest, RankTestsThenCountEqualsStatsAnalytics) {
  std::vector<double> scores(60);
  Rng rng(6);
  for (auto& s : scores) s = rng.Gaussian();
  std::vector<std::vector<int64_t>> memberships = {
      {0, 1, 2, 3, 4, 5}, {}, {10, 20, 30, 40}, {7, 8, 9, 11, 13, 17, 19}};
  std::vector<double> p(memberships.size(), -1.0);
  auto tests = StatsRankTests(scores.data(), 60, memberships, p.data(),
                              nullptr);
  ASSERT_TRUE(tests.ok());
  EXPECT_EQ(tests->terms_tested, 3);  // The empty term is skipped.
  EXPECT_EQ(p[3], -1.0) << "wrote past the tested terms";
  for (const double significance : {0.01, 0.3, 0.9}) {
    auto whole = StatsAnalytics(scores, memberships, significance, nullptr);
    ASSERT_TRUE(whole.ok());
    EXPECT_EQ(CountSignificant(p.data(), tests->terms_tested, significance),
              whole->significant_terms);
    EXPECT_EQ(tests->z_abs_sum, whole->z_abs_sum);
  }
}

// --- resource-failure injection through the real query pipelines -----------------------

TEST(ResourceInjectionTest, BiclusterWorkingCopyRespectsBudget) {
  // The budget covers Q3's index reservation but not its rows x cols
  // working copy, which must be charged and fail, not slip past the budget.
  Rng rng(5);
  linalg::Matrix x(64, 48);
  for (int64_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  const int64_t index_bytes = (64 + 48) * 8;
  const int64_t copy_bytes = 64 * 48 * 8;
  MemoryTracker tight(index_bytes + copy_bytes / 2);
  ExecContext ctx;
  ctx.set_memory(&tight);
  auto s = BiclusterAnalytics(linalg::MatrixView(x), 0.35, 1, &ctx);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.status().IsOutOfMemory()) << s.status().ToString();
  EXPECT_EQ(tight.used(), 0);

  MemoryTracker roomy(MemoryTracker::kUnlimited);
  ctx.set_memory(&roomy);
  ASSERT_TRUE(BiclusterAnalytics(linalg::MatrixView(x), 0.35, 1, &ctx).ok());
  EXPECT_GE(roomy.peak(), index_bytes + copy_bytes);
}

TEST(ResourceInjectionTest, TinyMemoryBudgetFailsReferenceQuery) {
  auto data = GenerateDataset(DatasetSize::kSmall, 0.01);
  ASSERT_TRUE(data.ok());
  MemoryTracker tiny(4096, "tiny");
  ExecContext ctx;
  ctx.set_memory(&tiny);
  QueryParams params;
  auto result = RunReferenceQuery(QueryId::kRegression, *data, params, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfMemory());
}

TEST(ResourceInjectionTest, ExpiredDeadlineFailsReferenceQuery) {
  auto data = GenerateDataset(DatasetSize::kSmall, 0.01);
  ASSERT_TRUE(data.ok());
  ExecContext ctx;
  ctx.SetDeadlineAfter(-1.0);
  QueryParams params;
  params.svd_rank = 4;
  auto result = RunReferenceQuery(QueryId::kSvd, *data, params, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
}

TEST(ResourceInjectionTest, CsvGlueChargesTransientMemory) {
  // The CSV text reservation (~20 bytes/cell) must be charged and released.
  linalg::Matrix m(50, 50);
  MemoryTracker tracker(MemoryTracker::kUnlimited);
  ExecContext ctx;
  ctx.set_memory(&tracker);
  auto out = engine::CsvRoundTripMatrix(linalg::MatrixView(m), &ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_GE(tracker.peak(), 50 * 50 * 20);
  EXPECT_EQ(tracker.used(), out->bytes());
}

TEST(ResourceInjectionTest, CsvGlueRespectsBudget) {
  linalg::Matrix m(100, 100);
  MemoryTracker tracker(10'000);  // Too small for the CSV text.
  ExecContext ctx;
  ctx.set_memory(&tracker);
  auto out = engine::CsvRoundTripMatrix(linalg::MatrixView(m), &ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsOutOfMemory());
}

// --- QueryResult::ToString ---------------------------------------------------------------

TEST(QueryResultTest, ToStringCoversAllKinds) {
  for (QueryId q : kAllQueries) {
    QueryResult r;
    r.query = q;
    EXPECT_FALSE(r.ToString().empty());
    EXPECT_NE(r.ToString().find('{'), std::string::npos);
  }
}

}  // namespace
}  // namespace genbase::core
