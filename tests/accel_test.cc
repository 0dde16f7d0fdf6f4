#include <gtest/gtest.h>

#include "accel/coprocessor.h"
#include "accel/phi_engine.h"
#include "core/reference.h"
#include "core/verify.h"
#include "engine/engines.h"
#include "tiny_data.h"  // Same directory.

namespace genbase::accel {
namespace {

using testutil::TinyData;
using testutil::TinyParams;

using core::DatasetSize;
using core::QueryId;

// --- Coprocessor model ---------------------------------------------------------

TEST(CoprocessorTest, KernelClassMapping) {
  EXPECT_EQ(KernelClassFor(QueryId::kCovariance), KernelClass::kGemmBound);
  EXPECT_EQ(KernelClassFor(QueryId::kSvd), KernelClass::kGemmBound);
  EXPECT_EQ(KernelClassFor(QueryId::kRegression), KernelClass::kGemmBound);
  EXPECT_EQ(KernelClassFor(QueryId::kStatistics),
            KernelClass::kBandwidthBound);
  EXPECT_EQ(KernelClassFor(QueryId::kBiclustering),
            KernelClass::kLatencyBound);
}

TEST(CoprocessorTest, OffloadMathExact) {
  // speedup 4x gemm, 2x bw, 1 GB/s transfer, 10 ms launch, 1 GiB memory.
  Coprocessor phi(4.0, 2.0, 1e9, 0.01, 1LL << 30);
  // 100 MB transfer = 0.1 s; 8 s host gemm -> 2 s device.
  EXPECT_NEAR(phi.OffloadedSeconds(KernelClass::kGemmBound, 100'000'000,
                                   8.0),
              0.01 + 0.1 + 2.0, 1e-12);
  EXPECT_NEAR(phi.OffloadedSeconds(KernelClass::kBandwidthBound,
                                   100'000'000, 8.0),
              0.01 + 0.1 + 4.0, 1e-12);
}

TEST(CoprocessorTest, LargeKernelsWin_SmallKernelsLose) {
  Coprocessor phi(3.0, 1.5, 6e9, 0.01, 8LL << 30);
  // Long-running kernel: offload wins despite transfer.
  const double long_host = 10.0;
  EXPECT_LT(phi.OffloadedSeconds(KernelClass::kGemmBound, 1 << 30,
                                 long_host),
            long_host);
  // Tiny kernel: launch + transfer overheads dominate ("for small data
  // sets ... data transfer overheads dominate overall runtime").
  const double tiny_host = 0.001;
  EXPECT_GT(phi.OffloadedSeconds(KernelClass::kGemmBound, 1 << 30,
                                 tiny_host),
            tiny_host);
}

TEST(CoprocessorTest, OversizedWorkingSetStaysOnHost) {
  Coprocessor phi(4.0, 2.0, 1e9, 0.01, /*memory_bytes=*/1000);
  EXPECT_DOUBLE_EQ(
      phi.OffloadedSeconds(KernelClass::kGemmBound, 10'000, 5.0), 5.0);
}

TEST(CoprocessorTest, LatencyBoundBarelyAccelerates) {
  Coprocessor phi;
  EXPECT_LT(phi.ComputeSpeedup(KernelClass::kLatencyBound), 1.3);
  EXPECT_GT(phi.ComputeSpeedup(KernelClass::kGemmBound), 2.0);
}

// --- Phi SciDB engine ---------------------------------------------------------------

class PhiAgreementTest : public ::testing::TestWithParam<QueryId> {};

TEST_P(PhiAgreementTest, SameAnswerAsReference) {
  PhiSciDbEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine.PrepareContext(&ctx);
  auto result = engine.RunQuery(GetParam(), TinyParams(), &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto expected =
      core::RunReferenceQuery(GetParam(), TinyData(), TinyParams());
  ASSERT_TRUE(expected.ok());
  const genbase::Status match = core::CompareQueryResults(*expected, *result);
  EXPECT_TRUE(match.ok()) << match.ToString();
  // Analytics must be reported as modeled (virtual) device time.
  EXPECT_GT(ctx.clock().modeled(Phase::kAnalytics), 0.0);
  EXPECT_DOUBLE_EQ(ctx.clock().measured(Phase::kAnalytics), 0.0);
  // Data management is identical to plain SciDB: measured, not modeled.
  EXPECT_GT(ctx.clock().measured(Phase::kDataManagement), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, PhiAgreementTest,
                         ::testing::ValuesIn(std::vector<QueryId>(
                             std::begin(core::kAllQueries),
                             std::end(core::kAllQueries))),
                         [](const ::testing::TestParamInfo<QueryId>& info) {
                           return std::string(core::QueryName(info.param));
                         });

TEST(PhiEngineTest, NameDistinguishesConfiguration) {
  PhiSciDbEngine phi;
  EXPECT_EQ(phi.name(), "SciDB + Xeon Phi");
  EXPECT_EQ(engine::CreateSciDb()->name(), "SciDB");
}

}  // namespace
}  // namespace genbase::accel
