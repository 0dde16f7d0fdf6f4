#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/timer.h"
#include "core/driver.h"
#include "core/engine.h"
#include "core/generator.h"
#include "engine/engines.h"

namespace genbase {
namespace {

using core::CellResult;
using core::DatasetSize;
using core::DriverOptions;
using core::QueryId;
using core::QueryResult;

/// Scripted engine for driver-semantics tests.
class FakeEngine : public core::Engine {
 public:
  enum class Behavior { kOk, kOom, kSlow, kVirtualBlowup, kError };

  explicit FakeEngine(Behavior b) : behavior_(b) {}

  std::string name() const override { return "fake"; }
  genbase::Status DoLoadDataset(const core::GenBaseData&) override {
    return genbase::Status::OK();
  }
  void DoUnloadDataset() override {}
  void PrepareContext(ExecContext* ctx) override { ctx->set_pool(nullptr); }

  bool SupportsQuery(QueryId q) const override {
    return q != QueryId::kBiclustering;
  }

  genbase::Result<QueryResult> RunQuery(QueryId query,
                                        const core::QueryParams&,
                                        ExecContext* ctx) override {
    QueryResult out;
    out.query = query;
    switch (behavior_) {
      case Behavior::kOk:
        ctx->clock().AddMeasured(Phase::kDataManagement, 0.25);
        ctx->clock().AddMeasured(Phase::kAnalytics, 0.5);
        return out;
      case Behavior::kOom:
        return genbase::Status::OutOfMemory("synthetic");
      case Behavior::kSlow:
        // Cooperative deadline check after "working" past the budget.
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
        return out;
      case Behavior::kVirtualBlowup:
        // Fast in wall-clock, but the modeled deployment would blow the
        // budget (e.g. per-iteration MapReduce jobs).
        ctx->clock().AddVirtual(Phase::kAnalytics, 1e6);
        return out;
      case Behavior::kError:
        return genbase::Status::Internal("synthetic failure");
    }
    return genbase::Status::Internal("unreachable");
  }

 private:
  Behavior behavior_;
};

DriverOptions FastOptions() {
  DriverOptions o;
  o.timeout_seconds = 0.05;
  return o;
}

TEST(DriverTest, SuccessfulCellReportsPhases) {
  FakeEngine e(FakeEngine::Behavior::kOk);
  DriverOptions o;
  o.timeout_seconds = 10.0;
  const CellResult cell =
      core::RunCell(&e, QueryId::kRegression, DatasetSize::kSmall, o);
  EXPECT_TRUE(cell.status.ok());
  EXPECT_FALSE(cell.infinite);
  EXPECT_DOUBLE_EQ(cell.dm_s, 0.25);
  EXPECT_DOUBLE_EQ(cell.analytics_s, 0.5);
  EXPECT_DOUBLE_EQ(cell.total_s, 0.75);
  EXPECT_EQ(cell.Display(), "0.750");
}

TEST(DriverTest, OomBecomesInf) {
  FakeEngine e(FakeEngine::Behavior::kOom);
  const CellResult cell =
      core::RunCell(&e, QueryId::kRegression, DatasetSize::kSmall,
                    FastOptions());
  EXPECT_TRUE(cell.infinite);
  EXPECT_EQ(cell.Display(), "INF");
}

TEST(DriverTest, DeadlineBecomesInf) {
  FakeEngine e(FakeEngine::Behavior::kSlow);
  const CellResult cell =
      core::RunCell(&e, QueryId::kRegression, DatasetSize::kSmall,
                    FastOptions());
  EXPECT_TRUE(cell.infinite);
  EXPECT_TRUE(cell.status.IsDeadlineExceeded());
}

TEST(DriverTest, ModeledTimeOverBudgetBecomesInf) {
  FakeEngine e(FakeEngine::Behavior::kVirtualBlowup);
  const CellResult cell =
      core::RunCell(&e, QueryId::kRegression, DatasetSize::kSmall,
                    FastOptions());
  EXPECT_TRUE(cell.infinite);
}

TEST(DriverTest, HardErrorIsNotInf) {
  FakeEngine e(FakeEngine::Behavior::kError);
  const CellResult cell =
      core::RunCell(&e, QueryId::kRegression, DatasetSize::kSmall,
                    FastOptions());
  EXPECT_FALSE(cell.infinite);
  EXPECT_FALSE(cell.status.ok());
  EXPECT_EQ(cell.Display(), "ERR");
}

TEST(DriverTest, UnsupportedQueryIsNa) {
  FakeEngine e(FakeEngine::Behavior::kOk);
  const CellResult cell =
      core::RunCell(&e, QueryId::kBiclustering, DatasetSize::kSmall,
                    FastOptions());
  EXPECT_FALSE(cell.supported);
  EXPECT_EQ(cell.Display(), "n/a");
}

/// Column store + R keeps its glue scope open across the R analytics; the
/// analytics scope nested inside it must not be charged twice, so no cell's
/// measured total exceeds the wall time around it.
TEST(DriverTest, NestedPhasesNeverExceedCellWallTime) {
  auto data = core::GenerateDataset(DatasetSize::kSmall, 0.008);
  ASSERT_TRUE(data.ok());
  auto engine = engine::CreateColumnStoreR();
  ASSERT_TRUE(engine->LoadDataset(*data).ok());
  DriverOptions o;
  o.timeout_seconds = 30.0;
  o.params.svd_rank = 6;
  o.params.bicluster_count = 2;
  for (const QueryId q : core::kAllQueries) {
    ExecContext ctx;
    WallTimer wall;
    const CellResult cell =
        core::RunCellWithContext(engine.get(), q, DatasetSize::kSmall, o, &ctx);
    const double wall_s = wall.Seconds();
    ASSERT_TRUE(cell.status.ok()) << cell.status.ToString();
    EXPECT_GT(cell.analytics_s, 0.0) << core::QueryName(q);
    EXPECT_LE(cell.total_s - cell.modeled_s, wall_s) << core::QueryName(q);
  }
}

// --- real-engine capability matrix (paper Section 4.1/4.3) ---------------------------

TEST(CapabilityTest, MadlibLacksBiclustering) {
  auto e = engine::CreatePostgresMadlib();
  EXPECT_FALSE(e->SupportsQuery(QueryId::kBiclustering));
  EXPECT_TRUE(e->SupportsQuery(QueryId::kSvd));
  EXPECT_TRUE(e->SupportsQuery(QueryId::kStatistics));
}

TEST(CapabilityTest, HadoopRunsOnlyMahoutSubset) {
  auto e = engine::CreateHadoop();
  EXPECT_TRUE(e->SupportsQuery(QueryId::kRegression));
  EXPECT_TRUE(e->SupportsQuery(QueryId::kCovariance));
  EXPECT_TRUE(e->SupportsQuery(QueryId::kSvd));
  EXPECT_FALSE(e->SupportsQuery(QueryId::kBiclustering));
  EXPECT_FALSE(e->SupportsQuery(QueryId::kStatistics));
}

TEST(CapabilityTest, FullSupportEverywhereElse) {
  for (auto factory : {engine::CreateVanillaR, engine::CreatePostgresR,
                       engine::CreateColumnStoreR,
                       engine::CreateColumnStoreUdf, engine::CreateSciDb}) {
    auto e = factory();
    for (QueryId q : core::kAllQueries) {
      EXPECT_TRUE(e->SupportsQuery(q)) << e->name();
    }
  }
}

TEST(CapabilityTest, SevenSingleNodeConfigurations) {
  const auto engines = engine::CreateSingleNodeEngines();
  EXPECT_EQ(engines.size(), 7u);
}

// --- R-specific limits ------------------------------------------------------------

TEST(RLimitsTest, QueryWithoutLoadIsResourceFailure) {
  auto e = engine::CreateVanillaR();
  ExecContext ctx;
  e->PrepareContext(&ctx);
  auto result = e->RunQuery(QueryId::kRegression, core::QueryParams(), &ctx);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceFailure());
}

}  // namespace
}  // namespace genbase
