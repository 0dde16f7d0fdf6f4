#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "accel/phi_engine.h"
#include "cluster/cluster_engine.h"
#include "core/datasets.h"
#include "core/driver.h"
#include "core/generator.h"
#include "core/reference.h"
#include "core/verify.h"
#include "engine/engine_util.h"
#include "engine/engines.h"
#include "relational/col_ops.h"
#include "tiny_data.h"  // Same directory.

namespace genbase {
namespace {

using testutil::TinyData;
using testutil::TinyParams;
using testutil::kTinyScale;

using core::DatasetSize;
using core::GenBaseData;
using core::QueryId;
using core::QueryParams;
using core::QueryResult;

const QueryResult& Expected(QueryId q) {
  static auto* cache = new std::map<QueryId, QueryResult>();
  auto it = cache->find(q);
  if (it == cache->end()) {
    auto r = core::RunReferenceQuery(q, TinyData(), TinyParams());
    GENBASE_CHECK(r.ok());
    it = cache->emplace(q, std::move(r).ValueOrDie()).first;
  }
  return it->second;
}

struct AgreementCase {
  const engine::EngineSpec* spec;
  QueryId query;
};

void PrintTo(const AgreementCase& c, std::ostream* os) {
  *os << c.spec->display << "/" << core::QueryName(c.query);
}

class EngineAgreementTest : public ::testing::TestWithParam<AgreementCase> {};

/// Every engine must produce the reference answer: the paper's systems
/// differ in speed and architecture, never in what they compute.
TEST_P(EngineAgreementTest, MatchesReference) {
  const auto& param = GetParam();
  auto engine = param.spec->factory();
  if (!engine->SupportsQuery(param.query)) {
    GTEST_SKIP() << engine->name() << " does not support this query";
  }
  ASSERT_TRUE(engine->LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine->PrepareContext(&ctx);
  auto result = engine->RunQuery(param.query, TinyParams(), &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const genbase::Status match =
      core::CompareQueryResults(Expected(param.query), *result);
  EXPECT_TRUE(match.ok()) << engine->name() << ": " << match.ToString();
  engine->UnloadDataset();
}

std::vector<AgreementCase> AllCases() {
  std::vector<AgreementCase> cases;
  for (const engine::EngineSpec& spec : engine::kSingleNodeEngines) {
    for (QueryId q : core::kAllQueries) cases.push_back({&spec, q});
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<AgreementCase>& info) {
  return std::string(info.param.spec->key) + "_" +
         core::QueryName(info.param.query);
}

INSTANTIATE_TEST_SUITE_P(AllEnginesAllQueries, EngineAgreementTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

/// The paper's seven single-node configurations, then Figure 3's five
/// multi-node systems at 2 nodes.
std::vector<std::unique_ptr<core::Engine>> PaperEngines() {
  std::vector<std::unique_ptr<core::Engine>> engines;
  for (const engine::EngineSpec& spec : engine::kSingleNodeEngines) {
    engines.push_back(spec.factory());
  }
  for (const cluster::ClusterSpec& spec : cluster::MultiNodeSystems()) {
    engines.push_back(std::make_unique<cluster::ClusterEngine>(spec.At(2)));
  }
  return engines;
}

/// Phase accounting: every successful run must attribute nonzero time and
/// the glue phase must be zero for engines with no external bridge.
TEST(EnginePhasesTest, SciDbHasNoGlue) {
  auto engine = engine::CreateSciDb();
  ASSERT_TRUE(engine->LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine->PrepareContext(&ctx);
  auto result =
      engine->RunQuery(QueryId::kRegression, TinyParams(), &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(ctx.clock().total(Phase::kDataManagement), 0.0);
  EXPECT_GT(ctx.clock().total(Phase::kAnalytics), 0.0);
  EXPECT_DOUBLE_EQ(ctx.clock().total(Phase::kGlue), 0.0);
}

TEST(EnginePhasesTest, PostgresRPaysGlue) {
  auto engine = engine::CreatePostgresR();
  ASSERT_TRUE(engine->LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine->PrepareContext(&ctx);
  auto result =
      engine->RunQuery(QueryId::kRegression, TinyParams(), &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(ctx.clock().total(Phase::kGlue), 0.0);
}

TEST(EnginePhasesTest, ColumnUdfChargesVirtualGlue) {
  auto engine = engine::CreateColumnStoreUdf();
  ASSERT_TRUE(engine->LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine->PrepareContext(&ctx);
  auto result =
      engine->RunQuery(QueryId::kBiclustering, TinyParams(), &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(ctx.clock().modeled(Phase::kGlue), 0.0);
}

TEST(EnginePhasesTest, HadoopChargesJobStartups) {
  auto engine = engine::CreateHadoop();
  ASSERT_TRUE(engine->LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine->PrepareContext(&ctx);
  auto result =
      engine->RunQuery(QueryId::kRegression, TinyParams(), &ctx);
  ASSERT_TRUE(result.ok());
  // At least 3 jobs (filter, join, restructure) + 1 Mahout job.
  EXPECT_GE(ctx.clock().modeled(Phase::kDataManagement) +
                ctx.clock().modeled(Phase::kAnalytics),
            4 * 0.4);
}

/// Real cohort tables do not number their genes 0..n-1. With gene ids
/// spread out (g -> 1000g + 7), every engine, single-node and 2-node,
/// either still gives the reference answer (the columnar engines map ids to
/// positions) or fails with InvalidArgument where it uses ids as array
/// coordinates or score positions (SciDB, Postgres' Q5 scan, the cluster's
/// array nodes), never by indexing past an array.
TEST(SparseIdEngineTest, EnginesAnswerOrRejectIdsThatAreNotPositions) {
  auto generated = core::GenerateDataset(DatasetSize::kSmall, kTinyScale);
  ASSERT_TRUE(generated.ok());
  GenBaseData data = std::move(generated).ValueOrDie();
  for (std::vector<int64_t>* ids :
       {&data.microarray.MutableIntColumn(core::MicroarrayCols::kGeneId),
        &data.genes.MutableIntColumn(core::GeneCols::kGeneId),
        &data.ontology.MutableIntColumn(core::GoCols::kGeneId)}) {
    for (int64_t& id : *ids) id = 1000 * id + 7;
  }
  std::vector<std::unique_ptr<core::Engine>> engines = PaperEngines();
  int answered = 0;
  for (const auto& engine : engines) {
    SCOPED_TRACE(engine->name());
    const Status loaded = engine->LoadDataset(data);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument)
          << loaded.ToString();
      continue;
    }
    for (const QueryId q : core::kAllQueries) {
      if (!engine->SupportsQuery(q)) continue;
      SCOPED_TRACE(core::QueryName(q));
      ExecContext ctx;
      engine->PrepareContext(&ctx);
      auto result = engine->RunQuery(q, TinyParams(), &ctx);
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
            << result.status().ToString();
        continue;
      }
      ++answered;
      // Relaxed as in the cluster agreement test: distributed sums reorder.
      const Status match =
          core::CompareQueryResults(Expected(q), *result, 1e-5);
      EXPECT_TRUE(match.ok()) << match.ToString();
    }
  }
  // At least Vanilla R and the column store + R / UDFs answer all five.
  EXPECT_GE(answered, 15);
}

/// The array engines index their arrays by the ids a selection keeps: a
/// selected patient id that is no array row fails the query with
/// InvalidArgument instead of reading outside the array.
TEST(SparseIdEngineTest, ArrayEnginesRejectSelectedIdsOutsideTheArray) {
  auto generated = core::GenerateDataset(DatasetSize::kSmall, kTinyScale);
  ASSERT_TRUE(generated.ok());
  GenBaseData data = std::move(generated).ValueOrDie();
  for (int64_t& id :
       data.patients.MutableIntColumn(core::PatientCols::kPatientId)) {
    id += 1000;  // The microarray keeps its ids, so the loads succeed.
  }
  std::vector<std::unique_ptr<core::Engine>> engines;
  engines.push_back(engine::CreateSciDb());
  engines.push_back(std::make_unique<cluster::ClusterEngine>(
      cluster::ClusterConfig("scidb").At(2)));
  for (const auto& engine : engines) {
    SCOPED_TRACE(engine->name());
    ASSERT_TRUE(engine->LoadDataset(data).ok());
    ExecContext ctx;
    engine->PrepareContext(&ctx);
    auto result = engine->RunQuery(QueryId::kCovariance, TinyParams(), &ctx);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

/// Three non-default shape-param sets: each moves every field the five
/// selections read. Thresholds 237, 400 and 100 are function codes of tiny
/// genes and max_age 36 (gender 0), 40 and 51 (gender 1) are ages of tiny
/// patients, so an evaluator that reads `<` as `<=` selects one more.
std::vector<QueryParams> NonDefaultSelections() {
  struct Shape {
    int64_t function_threshold, disease_id, gender, max_age;
    double sample_fraction;
  };
  std::vector<QueryParams> sets;
  for (const Shape& s : {Shape{237, 4, 0, 36, 0.3}, Shape{400, 13, 1, 40, 0.5},
                         Shape{100, 1, 1, 51, 1.0}}) {
    QueryParams p = TinyParams();
    p.function_threshold = s.function_threshold;
    p.disease_id = s.disease_id;
    p.gender = s.gender;
    p.max_age = s.max_age;
    p.sample_fraction = s.sample_fraction;
    sets.push_back(p);
  }
  return sets;
}

/// Every engine, single-node, Phi and the five multi-node configurations at
/// 2 nodes, answers non-default selections as core/reference does: a
/// selection is fixed in one place (engine::SelectionFor), not per engine.
TEST(SelectionAgreementTest, EveryEngineAnswersNonDefaultSelections) {
  const GenBaseData& data = TinyData();
  engine::ColumnarTables tables;
  ASSERT_TRUE(engine::LoadColumnarTables(data, nullptr, &tables).ok());
  const auto holds = [](const std::vector<int64_t>& column, int64_t value) {
    return std::find(column.begin(), column.end(), value) != column.end();
  };
  for (const QueryParams& params : NonDefaultSelections()) {
    // The premise: the bounds sit on values, and no selection is empty.
    EXPECT_TRUE(holds(data.genes.IntColumn(core::GeneCols::kFunction),
                      params.function_threshold));
    EXPECT_TRUE(holds(data.patients.IntColumn(core::PatientCols::kAge),
                      params.max_age));
    for (const QueryId q : core::kAllQueries) {
      const engine::Selection sel = engine::SelectionFor(q, params, data.dims);
      auto selected = relational::FilterColumns(
          sel.on_genes ? tables.genes : tables.patients, sel.predicates,
          nullptr);
      ASSERT_TRUE(selected.ok());
      EXPECT_FALSE(selected->empty()) << core::QueryName(q);
    }
  }

  std::vector<std::unique_ptr<core::Engine>> engines = PaperEngines();
  engines.push_back(accel::CreatePhiSciDb());
  ASSERT_EQ(engines.size(), 13u);
  for (const auto& engine : engines) {
    SCOPED_TRACE(engine->name());
    ASSERT_TRUE(engine->LoadDataset(data).ok());
    for (const QueryParams& params : NonDefaultSelections()) {
      SCOPED_TRACE(params.function_threshold);
      for (const QueryId q : core::kAllQueries) {
        if (!engine->SupportsQuery(q)) continue;
        SCOPED_TRACE(core::QueryName(q));
        auto expected = core::RunReferenceQuery(q, data, params);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        ExecContext ctx;
        engine->PrepareContext(&ctx);
        auto result = engine->RunQuery(q, params, &ctx);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        // Relaxed as in the cluster agreement test: distributed sums
        // reorder.
        const Status match =
            core::CompareQueryResults(*expected, *result, 1e-5);
        EXPECT_TRUE(match.ok()) << match.ToString();
      }
    }
    engine->UnloadDataset();
  }
}

}  // namespace
}  // namespace genbase
