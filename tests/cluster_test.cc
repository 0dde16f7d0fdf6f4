#include <gtest/gtest.h>

#include <cmath>

#include "cluster/cluster_engine.h"
#include "cluster/dist_kernels.h"
#include "cluster/sim_cluster.h"
#include "common/rng.h"
#include "core/reference.h"
#include "core/verify.h"
#include "engine/engines.h"
#include "linalg/covariance.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "tiny_data.h"  // Same directory.

namespace genbase::cluster {
namespace {

using testutil::TinyData;
using testutil::TinyParams;

using core::DatasetSize;
using core::QueryId;

// --- PartitionRows ---------------------------------------------------------------

TEST(PartitionTest, CoversRangeWithoutOverlap) {
  for (int nodes : {1, 2, 3, 4, 7}) {
    for (int64_t n : {0LL, 1LL, 10LL, 97LL, 1000LL}) {
      const auto parts = PartitionRows(n, nodes);
      ASSERT_EQ(static_cast<int>(parts.size()), nodes);
      int64_t at = 0;
      for (const auto& p : parts) {
        EXPECT_EQ(p.begin, at);
        EXPECT_GE(p.size(), 0);
        at = p.end;
      }
      EXPECT_EQ(at, n);
    }
  }
}

TEST(PartitionTest, Balanced) {
  const auto parts = PartitionRows(10, 4);
  EXPECT_EQ(parts[0].size(), 3);
  EXPECT_EQ(parts[1].size(), 3);
  EXPECT_EQ(parts[2].size(), 2);
  EXPECT_EQ(parts[3].size(), 2);
}

// --- SimCluster --------------------------------------------------------------------

TEST(SimClusterTest, ComputeChargesPerNode) {
  SimCluster sim(3, NetworkModel{});
  ASSERT_TRUE(sim.Compute([](int node) {
    // Unequal busy-work per node.
    volatile double x = 0;
    for (int i = 0; i < (node + 1) * 100000; ++i) x += i;
    return genbase::Status::OK();
  }).ok());
  EXPECT_GT(sim.elapsed(), 0.0);
  EXPECT_DOUBLE_EQ(sim.comm_elapsed(), 0.0);
}

TEST(SimClusterTest, SingleNodeCollectivesAreFree) {
  SimCluster sim(1, NetworkModel{});
  sim.AllReduce(1 << 30);
  sim.Gather(0, 1 << 30);
  sim.Broadcast(0, 1 << 30);
  sim.AllToAll(1 << 30);
  sim.Barrier();
  EXPECT_DOUBLE_EQ(sim.elapsed(), 0.0);
}

TEST(SimClusterTest, AllReduceCostMatchesRingModel) {
  NetworkModel net{100e6, 1e-3};
  SimCluster sim(4, net);
  sim.AllReduce(100'000'000);  // 1 second of bytes at full bandwidth.
  // Ring: 2*(P-1)*(latency + bytes/P/bw) = 6 * (1e-3 + 0.25) = 1.506.
  EXPECT_NEAR(sim.elapsed(), 1.506, 1e-9);
  EXPECT_NEAR(sim.comm_elapsed(), sim.elapsed(), 1e-12);
}

TEST(SimClusterTest, GatherSerializesAtRoot) {
  NetworkModel net{1e9, 0.0};
  SimCluster sim(4, net);
  sim.Gather(0, 1'000'000'000);  // 1 s per node.
  EXPECT_NEAR(sim.elapsed(), 3.0, 1e-9);
}

TEST(SimClusterTest, ChargeComputeAndAll) {
  SimCluster sim(2, NetworkModel{});
  sim.ChargeCompute(1, 5.0);
  EXPECT_DOUBLE_EQ(sim.elapsed(), 5.0);
  sim.ChargeAll(1.0);
  EXPECT_DOUBLE_EQ(sim.elapsed(), 6.0);
}

TEST(SimClusterTest, ErrorPropagatesFromCompute) {
  SimCluster sim(2, NetworkModel{});
  auto st = sim.Compute([](int node) {
    return node == 1 ? genbase::Status::Internal("boom")
                     : genbase::Status::OK();
  });
  EXPECT_FALSE(st.ok());
}

// --- distributed kernels vs single-node oracles -----------------------------------------

linalg::Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Gaussian();
  return m;
}

std::vector<linalg::Matrix> SplitRows(const linalg::Matrix& m, int nodes) {
  const auto parts = PartitionRows(m.rows(), nodes);
  std::vector<linalg::Matrix> blocks;
  for (const auto& p : parts) {
    linalg::Matrix b(p.size(), m.cols());
    for (int64_t i = 0; i < p.size(); ++i) {
      std::copy(m.Row(p.begin + i), m.Row(p.begin + i) + m.cols(),
                b.Row(i));
    }
    blocks.push_back(std::move(b));
  }
  return blocks;
}

class DistKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(DistKernelTest, LeastSquaresMatchesSingleNode) {
  const int nodes = GetParam();
  const int64_t m = 120, k = 10;
  linalg::Matrix x = RandomMatrix(m, k, 7);
  for (int64_t i = 0; i < m; ++i) x(i, 0) = 1.0;  // Intercept.
  Rng rng(8);
  std::vector<double> y(m);
  for (auto& v : y) v = rng.Gaussian();

  auto single = linalg::LeastSquaresQr(x, y);
  ASSERT_TRUE(single.ok());

  SimCluster sim(nodes, NetworkModel{});
  std::vector<std::vector<double>> y_blocks;
  const auto parts = PartitionRows(m, nodes);
  for (const auto& p : parts) {
    y_blocks.emplace_back(y.begin() + p.begin, y.begin() + p.end);
  }
  auto dist =
      DistributedLeastSquares(&sim, SplitRows(x, nodes), y_blocks, nullptr);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  ASSERT_EQ(dist->coefficients.size(), single->coefficients.size());
  for (size_t i = 0; i < single->coefficients.size(); ++i) {
    EXPECT_NEAR(dist->coefficients[i], single->coefficients[i], 1e-8);
  }
  EXPECT_NEAR(dist->residual_norm, single->residual_norm, 1e-8);
  EXPECT_NEAR(dist->r_squared, single->r_squared, 1e-10);
}

TEST_P(DistKernelTest, LeastSquaresShortBlocksFallback) {
  // Fewer rows per node than columns: exercises the raw-block path.
  const int nodes = GetParam();
  const int64_t m = 4 * nodes + 2, k = 6;
  if (m < k) GTEST_SKIP();
  linalg::Matrix x = RandomMatrix(m, k, 17);
  Rng rng(18);
  std::vector<double> y(m);
  for (auto& v : y) v = rng.Gaussian();
  auto single = linalg::LeastSquaresQr(x, y);
  ASSERT_TRUE(single.ok());
  SimCluster sim(nodes, NetworkModel{});
  std::vector<std::vector<double>> y_blocks;
  for (const auto& p : PartitionRows(m, nodes)) {
    y_blocks.emplace_back(y.begin() + p.begin, y.begin() + p.end);
  }
  auto dist =
      DistributedLeastSquares(&sim, SplitRows(x, nodes), y_blocks, nullptr);
  ASSERT_TRUE(dist.ok());
  for (size_t i = 0; i < single->coefficients.size(); ++i) {
    EXPECT_NEAR(dist->coefficients[i], single->coefficients[i], 1e-8);
  }
}

TEST_P(DistKernelTest, CovarianceMatchesSingleNode) {
  const int nodes = GetParam();
  linalg::Matrix x = RandomMatrix(90, 25, 9);
  auto single =
      linalg::CovarianceMatrix(linalg::MatrixView(x),
                               linalg::KernelQuality::kTuned);
  ASSERT_TRUE(single.ok());
  SimCluster sim(nodes, NetworkModel{});
  auto dist = DistributedCovariance(&sim, SplitRows(x, nodes),
                                    linalg::KernelQuality::kTuned, nullptr);
  ASSERT_TRUE(dist.ok());
  for (int64_t i = 0; i < single->size(); ++i) {
    EXPECT_NEAR(dist->data()[i], single->data()[i], 1e-9);
  }
  if (nodes > 1) EXPECT_GT(sim.comm_elapsed(), 0.0);
}

TEST_P(DistKernelTest, SvdMatchesSingleNode) {
  const int nodes = GetParam();
  linalg::Matrix a = RandomMatrix(80, 30, 11);
  linalg::SvdOptions opt;
  opt.rank = 8;
  auto single =
      linalg::TruncatedSingularValues(linalg::MatrixView(a), opt, nullptr);
  ASSERT_TRUE(single.ok());
  SimCluster sim(nodes, NetworkModel{});
  auto dist = DistributedTruncatedSvd(&sim, SplitRows(a, nodes), 8,
                                      linalg::KernelQuality::kTuned, 42,
                                      nullptr);
  ASSERT_TRUE(dist.ok());
  ASSERT_EQ(dist->singular_values.size(), single->singular_values.size());
  const double scale = single->singular_values[0];
  for (size_t i = 0; i < dist->singular_values.size(); ++i) {
    EXPECT_NEAR(dist->singular_values[i], single->singular_values[i],
                1e-6 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, DistKernelTest,
                         ::testing::Values(1, 2, 3, 4));

// --- multi-node engines vs reference ---------------------------------------------------

struct MnCase {
  const char* config;
  int nodes;
  QueryId query;
};

class MnAgreementTest : public ::testing::TestWithParam<MnCase> {};

TEST_P(MnAgreementTest, MatchesReference) {
  const auto& param = GetParam();
  ClusterEngine engine(ClusterConfig(param.config).At(param.nodes));
  if (!engine.SupportsQuery(param.query)) {
    GTEST_SKIP() << param.config << " does not support this query";
  }
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine.PrepareContext(&ctx);
  auto result = engine.RunQuery(param.query, TinyParams(), &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto expected =
      core::RunReferenceQuery(param.query, TinyData(), TinyParams());
  ASSERT_TRUE(expected.ok());
  // Distributed summation orders differ from the single-node reference;
  // compare with a slightly relaxed tolerance.
  const genbase::Status match =
      core::CompareQueryResults(*expected, *result, 1e-5);
  EXPECT_TRUE(match.ok()) << param.config << "@" << param.nodes << ": "
                          << match.ToString();
  // Multi-node cells must report virtual time.
  EXPECT_GT(ctx.clock().grand_total(), 0.0);
}

std::vector<MnCase> MnCases() {
  std::vector<MnCase> cases;
  for (const ClusterSpec& spec : MultiNodeSystems()) {
    for (int nodes : {1, 2, 4}) {
      for (QueryId q : core::kAllQueries) {
        cases.push_back({spec.key, nodes, q});
      }
    }
  }
  return cases;
}

std::string MnCaseName(const ::testing::TestParamInfo<MnCase>& info) {
  return std::string(info.param.config) + "_n" +
         std::to_string(info.param.nodes) + "_" +
         core::QueryName(info.param.query);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, MnAgreementTest,
                         ::testing::ValuesIn(MnCases()), MnCaseName);

TEST(MnEngineTest, FigureThreeLineupHasFiveSystems) {
  EXPECT_EQ(MultiNodeSystems().size(), 5u);
  for (const ClusterSpec& spec : ClusterConfigs()) {
    EXPECT_EQ(&ClusterConfig(spec.key), &spec) << spec.key;
  }
}

/// A multi-node query charges its data management once, as the simulated
/// critical path (modeled seconds): the query clock measures none of its
/// nodes' work. The single-node column store and Vanilla R time theirs on
/// the query clock.
TEST(MnEngineTest, DataManagementIsChargedOnce) {
  for (const ClusterSpec& spec : MultiNodeSystems()) {
    SCOPED_TRACE(spec.key);
    ClusterEngine engine(spec.At(2));
    ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
    ExecContext ctx;
    engine.PrepareContext(&ctx);
    ASSERT_TRUE(
        engine.RunQuery(QueryId::kRegression, TinyParams(), &ctx).ok());
    EXPECT_EQ(ctx.clock().measured(Phase::kDataManagement), 0.0);
    EXPECT_GT(ctx.clock().modeled(Phase::kDataManagement), 0.0);
  }
  for (const char* key : {"col_r", "r"}) {
    SCOPED_TRACE(key);
    auto single = engine::SingleNodeEngine(key).factory();
    ASSERT_TRUE(single->LoadDataset(TinyData()).ok());
    ExecContext ctx;
    single->PrepareContext(&ctx);
    ASSERT_TRUE(
        single->RunQuery(QueryId::kRegression, TinyParams(), &ctx).ok());
    EXPECT_GT(ctx.clock().measured(Phase::kDataManagement), 0.0);
  }
}

TEST(MnEngineTest, CommunicationGrowsWithNodes) {
  // The covariance Gram all-reduce must make multi-node communication
  // nonzero and the 4-node query must charge more glue-free comm time than
  // the 1-node query (which has none).
  core::QueryParams params = TinyParams();
  double analytics1 = 0, analytics4 = 0;
  for (int nodes : {1, 4}) {
    ClusterEngine engine(ClusterConfig("scidb").At(nodes));
    ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
    ExecContext ctx;
    engine.PrepareContext(&ctx);
    auto result = engine.RunQuery(QueryId::kCovariance, params, &ctx);
    ASSERT_TRUE(result.ok());
    (nodes == 1 ? analytics1 : analytics4) =
        ctx.clock().total(Phase::kAnalytics);
  }
  EXPECT_GT(analytics1, 0.0);
  EXPECT_GT(analytics4, 0.0);
}

TEST(MnEngineTest, PhiOffloadAgreesAndAccountsAnalytics) {
  ClusterEngine engine(ClusterConfig("scidb_phi").At(2));
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine.PrepareContext(&ctx);
  auto result = engine.RunQuery(QueryId::kCovariance, TinyParams(), &ctx);
  ASSERT_TRUE(result.ok());
  auto expected = core::RunReferenceQuery(QueryId::kCovariance, TinyData(),
                                          TinyParams());
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(core::CompareQueryResults(*expected, *result, 1e-5).ok());
  EXPECT_GT(ctx.clock().total(Phase::kAnalytics), 0.0);
}

}  // namespace
}  // namespace genbase::cluster
