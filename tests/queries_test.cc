#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/generator.h"
#include "core/queries.h"
#include "core/reference.h"
#include "engine/engine_util.h"
#include "linalg/blas.h"
#include "linalg/svd.h"
#include "bitwise_result.h"  // Same directory.

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

TEST(CovarianceThresholdJoinTest, ChargesTheQuantileCopy) {
  // The upper triangle and the copy the quantile selects on are live at
  // once, so the tracker must see both.
  const int64_t n = 64;
  linalg::Matrix cov(n, n);
  Rng rng(11);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      cov(i, j) = cov(j, i) = rng.Uniform(-1.0, 1.0);
    }
  }
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t g = 0; g < n; ++g) ids[static_cast<size_t>(g)] = 100 + g;
  MemoryTracker tracker(MemoryTracker::kUnlimited, "Q2Join");
  ExecContext ctx;
  ctx.set_memory(&tracker);
  auto s = CovarianceThresholdJoin(cov, 9, ids, ConstantMeta(5, 100), 0.9,
                                   &ctx);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  const int64_t num_pairs = n * (n - 1) / 2;
  EXPECT_GE(tracker.peak(), 2 * num_pairs * 8);
  EXPECT_EQ(tracker.used(), 0);
}

TEST(CovarianceThresholdJoinTest, GeneIdMismatchInAnalytics) {
  linalg::Matrix x(5, 3);
  auto s = CovarianceAnalytics(linalg::MatrixView(x), {1, 2},  // Wrong size.
                               ConstantMeta(0, 0), 0.9,
                               linalg::KernelQuality::kTuned, nullptr);
  EXPECT_FALSE(s.ok());
}

// --- CovarianceJoinPass against a pair-at-a-time oracle --------------------------

/// Q2's join stated one pair at a time, in upper-triangle order: a pair
/// qualifies unless c <= threshold (so a NaN qualifies), adds c to the
/// covariance checksum and both genes' metadata to the meta checksum, and
/// looks a gene's metadata up when a qualifying pair first reads it; a
/// failed lookup fails the join.
genbase::Result<CovarianceSummary> PairAtATimeJoin(
    const std::vector<double>& upper, int64_t genes, int64_t samples,
    double threshold, const std::vector<int64_t>& gene_ids,
    const GeneMetaLookup& meta) {
  CovarianceSummary s;
  s.samples = samples;
  s.genes = genes;
  s.threshold = threshold;
  std::vector<int64_t> function(static_cast<size_t>(genes));
  std::vector<int64_t> length(static_cast<size_t>(genes));
  std::vector<bool> known(static_cast<size_t>(genes), false);
  const auto read = [&](int64_t g) -> genbase::Status {
    const auto idx = static_cast<size_t>(g);
    if (known[idx]) return genbase::Status::OK();
    known[idx] = true;
    return meta(gene_ids[idx], &function[idx], &length[idx]);
  };
  size_t k = 0;
  for (int64_t i = 0; i < genes; ++i) {
    for (int64_t j = i + 1; j < genes; ++j) {
      const double c = upper[k++];
      if (c <= threshold) continue;
      ++s.pairs_above;
      s.cov_checksum += c;
      GENBASE_RETURN_NOT_OK(read(i));
      GENBASE_RETURN_NOT_OK(read(j));
      s.meta_checksum += static_cast<double>(function[i] + function[j]) +
                         1e-3 * static_cast<double>(length[i] + length[j]);
    }
  }
  return s;
}

/// Bit for bit, except that any NaN checksum matches any NaN: C++ leaves
/// to the compiler which operand's NaN an addition of two NaNs returns, so
/// a sum that meets both an Inf - Inf NaN and a NaN input may end with
/// either sign.
::testing::AssertionResult SameJoin(const CovarianceSummary& a,
                                    const CovarianceSummary& b) {
  const auto same_sum = [](double x, double y) {
    return testutil::BitEq(x, y) || (std::isnan(x) && std::isnan(y));
  };
  if (a.samples != b.samples || a.genes != b.genes ||
      a.pairs_above != b.pairs_above ||
      !testutil::BitEq(a.threshold, b.threshold) ||
      !same_sum(a.cov_checksum, b.cov_checksum) ||
      !same_sum(a.meta_checksum, b.meta_checksum)) {
    return ::testing::AssertionFailure()
           << "pairs " << a.pairs_above << " vs " << b.pairs_above
           << ", cov " << a.cov_checksum << " vs " << b.cov_checksum
           << ", meta " << a.meta_checksum << " vs " << b.meta_checksum;
  }
  return ::testing::AssertionSuccess();
}

/// A seeded upper triangle salted with the values the join must classify
/// exactly: ties with the threshold, NaN, +-Inf, -0.0 and +0.0.
std::vector<double> SaltedUpper(int64_t genes, double threshold,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<double> upper(static_cast<size_t>(genes * (genes - 1) / 2));
  for (double& c : upper) c = rng.Gaussian();
  const double inf = std::numeric_limits<double>::infinity();
  const double salt[] = {threshold, threshold, std::nan(""), inf, -inf,
                         -0.0, 0.0};
  for (size_t n = 0; n < 7 * 8 && !upper.empty(); ++n) {
    const auto at = rng.UniformInt(0, static_cast<int64_t>(upper.size()) - 1);
    upper[static_cast<size_t>(at)] = salt[n % 7];
  }
  return upper;
}

/// Gene metadata by id (1000 + 3g for column g), recording each lookup;
/// the id `fail_id` fails its lookup.
struct RecordingMeta {
  std::vector<int64_t> ids;
  std::vector<int64_t> function;
  std::vector<int64_t> length;
  int64_t fail_id = -1;
  std::vector<int64_t> looked_up;

  explicit RecordingMeta(int64_t genes) {
    Rng rng(static_cast<uint64_t>(genes) + 77);
    for (int64_t g = 0; g < genes; ++g) {
      ids.push_back(1000 + 3 * g);
      function.push_back(rng.UniformInt(0, 499));
      length.push_back(rng.UniformInt(100, 9000));
    }
  }

  GeneMetaLookup Lookup() {
    return [this](int64_t id, int64_t* f, int64_t* l) -> genbase::Status {
      looked_up.push_back(id);
      if (id == fail_id) return genbase::Status::NotFound("no gene " +
                                                          std::to_string(id));
      const auto g = static_cast<size_t>((id - 1000) / 3);
      *f = function[g];
      *l = length[g];
      return genbase::Status::OK();
    };
  }
};

/// Both CovarianceJoinPass overloads against the oracle, bit for bit, on 0,
/// 1, 2 and seeded gene counts (600 genes spans three compaction blocks of
/// a row), at thresholds that tie salted values, at +-0, +-Inf and NaN.
TEST(CovarianceJoinPassTest, MatchesPairAtATimeOracle) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const int64_t genes : {0, 1, 2, 17, 300, 600}) {
    for (const double threshold : {0.7, 0.0, -0.0, -1.3, inf, -inf,
                                   std::nan("")}) {
      SCOPED_TRACE(testing::Message() << genes << " genes, threshold "
                                      << threshold);
      const std::vector<double> upper =
          SaltedUpper(genes, threshold, 500 + static_cast<uint64_t>(genes));
      RecordingMeta want_meta(genes);
      auto want = PairAtATimeJoin(upper, genes, 9, threshold, want_meta.ids,
                                  want_meta.Lookup());
      ASSERT_TRUE(want.ok());

      auto arrays = CovarianceJoinPass(upper.data(), genes, 9, threshold,
                                       want_meta.function.data(),
                                       want_meta.length.data(), nullptr);
      ASSERT_TRUE(arrays.ok());
      EXPECT_TRUE(SameJoin(*arrays, *want));

      RecordingMeta got_meta(genes);
      auto lookup = CovarianceJoinPass(upper.data(), genes, 9, threshold,
                                       got_meta.ids, got_meta.Lookup(),
                                       nullptr);
      ASSERT_TRUE(lookup.ok());
      EXPECT_TRUE(SameJoin(*lookup, *want));
      EXPECT_EQ(got_meta.looked_up, want_meta.looked_up);
    }
  }
}

/// A failed lookup fails the lookup overload with its own status, after the
/// same lookups the oracle makes; a gene no qualifying pair reads is never
/// looked up.
TEST(CovarianceJoinPassTest, FailedLookupReturnsItsError) {
  const int64_t genes = 300;
  const double inf = std::numeric_limits<double>::infinity();
  // Above +Inf only NaN qualifies: pairs (5, 9) and (40, 290).
  std::vector<double> upper(static_cast<size_t>(genes * (genes - 1) / 2),
                            1.0);
  const auto at = [genes](int64_t i, int64_t j) {
    return static_cast<size_t>(i * genes - i * (i + 1) / 2 + (j - i - 1));
  };
  upper[at(5, 9)] = std::nan("");
  upper[at(40, 290)] = std::nan("");
  for (const int64_t bad : {290, 7}) {
    SCOPED_TRACE(bad);
    RecordingMeta want_meta(genes);
    want_meta.fail_id = want_meta.ids[static_cast<size_t>(bad)];
    auto want = PairAtATimeJoin(upper, genes, 4, inf, want_meta.ids,
                                want_meta.Lookup());
    RecordingMeta got_meta(genes);
    got_meta.fail_id = want_meta.fail_id;
    auto got = CovarianceJoinPass(upper.data(), genes, 4, inf, got_meta.ids,
                                  got_meta.Lookup(), nullptr);
    EXPECT_EQ(got_meta.looked_up, want_meta.looked_up);
    ASSERT_EQ(got.ok(), want.ok());
    if (bad == 290) {
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
    } else {
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->pairs_above, 2);
      EXPECT_TRUE(SameJoin(*got, *want));
    }
  }
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

TEST(SvdAnalyticsTest, ValuesMatchFreshRunBitwise) {
  Rng rng(5);
  linalg::Matrix x(40, 12);
  for (int64_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  const linalg::MatrixView view(x);
  for (const auto quality :
       {linalg::KernelQuality::kTuned, linalg::KernelQuality::kNaive}) {
    linalg::LanczosRecord record;
    ASSERT_TRUE(SvdPrefix(view, quality, &record, nullptr).ok());
    for (const int rank : {0, 1, 3, 6, 12, 50}) {
      SCOPED_TRACE(rank);
      auto s = SvdAnalytics(view, rank, quality, nullptr);
      ASSERT_TRUE(s.ok());
      linalg::SvdOptions opt;
      opt.rank = s->rank;
      opt.quality = quality;
      auto full = linalg::TruncatedSingularValues(view, opt, nullptr);
      ASSERT_TRUE(full.ok());
      EXPECT_TRUE(testutil::BitEq(s->singular_values, full->singular_values));
      EXPECT_EQ(s->iterations, full->lanczos_iterations);
      // Reading the record the rank-1 prefix seeded gives the same answer.
      auto recorded = SvdAnalytics(view, rank, quality, nullptr, &record);
      ASSERT_TRUE(recorded.ok());
      EXPECT_TRUE(
          testutil::BitEq(recorded->singular_values, s->singular_values));
      EXPECT_EQ(recorded->iterations, s->iterations);
    }
  }
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

TEST(StatsAnalyticsTest, MemberOutsideTheScoresIsRejected) {
  // Members are score positions; a gene id that is not one must fail the
  // query, not index past the group mask.
  const std::vector<double> scores = {1, 2, 3, 4, 5};
  for (const int64_t member : {int64_t{5}, int64_t{-1}, int64_t{7007}}) {
    SCOPED_TRACE(member);
    const std::vector<std::vector<int64_t>> memberships = {{1, member}};
    auto s = StatsAnalytics(scores, memberships, 0.05, nullptr);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
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
