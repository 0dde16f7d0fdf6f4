#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/exec_context.h"
#include "common/memory_tracker.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/datasets.h"
#include "core/generator.h"
#include "core/queries.h"
#include "engine/engine_util.h"
#include "plan/arena.h"
#include "plan/compiled_plan.h"
#include "plan/memory_planner.h"
#include "plan/plan_builder.h"
#include "plan/plan_cache.h"
#include "plan/plan_engine.h"
#include "plan/plan_graph.h"
#include "plan/plan_stats.h"
#include "plan/scheduler.h"

namespace genbase {
namespace {

using core::DatasetSize;
using core::GenBaseData;
using core::QueryId;
using core::QueryParams;
using core::QueryResult;
using plan::BufferAssignment;
using plan::MemoryPlan;
using plan::OpDef;
using plan::OpKind;
using plan::PlanGraph;
using plan::TensorSpec;

constexpr double kTinyScale = 0.008;

const GenBaseData& TinyData() {
  static const GenBaseData* data = [] {
    auto r = core::GenerateDataset(DatasetSize::kSmall, kTinyScale);
    GENBASE_CHECK(r.ok());
    return new GenBaseData(std::move(r).ValueOrDie());
  }();
  return *data;
}

QueryParams TinyParams() {
  QueryParams p;
  p.svd_rank = 6;
  p.bicluster_count = 2;
  p.sample_fraction = 0.1;
  return p;
}

/// One columnar copy of the tiny dataset shared by the planned and legacy
/// paths, so bitwise comparisons read the exact same storage.
std::shared_ptr<const engine::ColumnarTables> TinyTables() {
  static const auto* tables = [] {
    static MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTestTables");
    auto t = std::make_shared<engine::ColumnarTables>();
    GENBASE_CHECK(
        engine::LoadColumnarTables(TinyData(), &tracker, t.get()).ok());
    return new std::shared_ptr<const engine::ColumnarTables>(std::move(t));
  }();
  return *tables;
}

/// --- bitwise result comparison ----------------------------------------------
/// Equality at the bit level, not within tolerance: planned kernels share
/// the exact inner implementations with the legacy path, so every double
/// must match bit for bit.

bool BitEq(double a, double b) {
  uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

bool BitEq(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitEq(a[i], b[i])) return false;
  }
  return true;
}

::testing::AssertionResult BitwiseEqual(const QueryResult& a,
                                        const QueryResult& b) {
  const auto fail = [&](const char* what) {
    return ::testing::AssertionFailure()
           << what << " differs:\n  planned: " << a.ToString()
           << "\n  legacy:  " << b.ToString();
  };
  if (a.query != b.query) return fail("query id");
  const auto& ar = a.regression;
  const auto& br = b.regression;
  if (ar.rows != br.rows || ar.predictors != br.predictors ||
      !BitEq(ar.r_squared, br.r_squared) || !BitEq(ar.coef_l2, br.coef_l2) ||
      !BitEq(ar.coef_head, br.coef_head)) {
    return fail("regression summary");
  }
  const auto& ac = a.covariance;
  const auto& bc = b.covariance;
  if (ac.samples != bc.samples || ac.genes != bc.genes ||
      ac.pairs_above != bc.pairs_above ||
      !BitEq(ac.threshold, bc.threshold) ||
      !BitEq(ac.cov_checksum, bc.cov_checksum) ||
      !BitEq(ac.meta_checksum, bc.meta_checksum)) {
    return fail("covariance summary");
  }
  const auto& ab = a.bicluster;
  const auto& bb = b.bicluster;
  if (ab.matrix_rows != bb.matrix_rows || ab.matrix_cols != bb.matrix_cols ||
      !BitEq(ab.delta, bb.delta) ||
      ab.biclusters.size() != bb.biclusters.size()) {
    return fail("bicluster summary");
  }
  for (size_t i = 0; i < ab.biclusters.size(); ++i) {
    if (ab.biclusters[i].rows != bb.biclusters[i].rows ||
        ab.biclusters[i].cols != bb.biclusters[i].cols ||
        !BitEq(ab.biclusters[i].msr, bb.biclusters[i].msr)) {
      return fail("bicluster entry");
    }
  }
  const auto& as = a.svd;
  const auto& bs = b.svd;
  if (as.rows != bs.rows || as.cols != bs.cols || as.rank != bs.rank ||
      !BitEq(as.singular_values, bs.singular_values)) {
    return fail("svd summary");
  }
  const auto& at = a.stats;
  const auto& bt = b.stats;
  if (at.samples != bt.samples || at.genes_ranked != bt.genes_ranked ||
      at.terms_tested != bt.terms_tested ||
      at.significant_terms != bt.significant_terms ||
      !BitEq(at.z_abs_sum, bt.z_abs_sum)) {
    return fail("stats summary");
  }
  return ::testing::AssertionSuccess();
}

/// The legacy column-store answer for `q` under `params` on TinyTables().
QueryResult LegacyAnswer(QueryId q, const QueryParams& params) {
  MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTestLegacy");
  ExecContext ctx;
  ctx.set_memory(&tracker);
  auto inputs = engine::PrepareInputsColumnar(*TinyTables(), q, params, &ctx);
  GENBASE_CHECK(inputs.ok());
  auto legacy = engine::RunStandardAnalytics(
      q, std::move(*inputs), params, linalg::KernelQuality::kTuned, &ctx);
  GENBASE_CHECK(legacy.ok());
  return std::move(legacy).ValueOrDie();
}

/// --- randomized DAGs for planner property tests ------------------------------

uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Builds a random valid DAG: each op reads 1-3 already-produced values and
/// writes one new value (sometimes in place over its first input). Sources
/// are scan ops with no inputs.
PlanGraph RandomGraph(uint64_t seed) {
  PlanGraph g;
  uint64_t s = seed;
  const int num_sources = 1 + static_cast<int>(NextRand(&s) % 3);
  std::vector<int> produced;
  for (int i = 0; i < num_sources; ++i) {
    TensorSpec spec{1 + static_cast<int64_t>(NextRand(&s) % 40),
                    1 + static_cast<int64_t>(NextRand(&s) % 12)};
    const int v = g.AddValue("src" + std::to_string(i), spec);
    OpDef op;
    op.kind = OpKind::kScan;
    op.name = "scan" + std::to_string(i);
    op.outputs = {v};
    g.AddOp(std::move(op));
    produced.push_back(v);
  }
  const int num_ops = 2 + static_cast<int>(NextRand(&s) % 10);
  for (int i = 0; i < num_ops; ++i) {
    OpDef op;
    op.kind = OpKind::kSelect;
    op.name = "op" + std::to_string(i);
    const int num_inputs = 1 + static_cast<int>(NextRand(&s) % 3);
    for (int k = 0; k < num_inputs; ++k) {
      op.inputs.push_back(
          produced[NextRand(&s) % produced.size()]);
    }
    const bool in_place = (NextRand(&s) % 4) == 0;
    TensorSpec spec;
    if (in_place) {
      // In-place ops must write a byte-identical shape over inputs[0].
      spec = g.values()[static_cast<size_t>(op.inputs[0])].spec;
      op.in_place = true;
    } else {
      spec = TensorSpec{1 + static_cast<int64_t>(NextRand(&s) % 40),
                        1 + static_cast<int64_t>(NextRand(&s) % 12)};
    }
    const int v = g.AddValue("v" + std::to_string(i), spec);
    op.outputs = {v};
    g.AddOp(std::move(op));
    produced.push_back(v);
  }
  return g;
}

/// Resolves a value to the root of its alias chain.
int AliasRoot(const MemoryPlan& mem, int v) {
  int root = v;
  while (mem.buffers[static_cast<size_t>(root)].alias_root >= 0) {
    root = mem.buffers[static_cast<size_t>(root)].alias_root;
  }
  return root;
}

/// --- planner property tests --------------------------------------------------

TEST(MemoryPlannerTest, RandomizedDagsNeverOverlapLiveBuffers) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    PlanGraph g = RandomGraph(seed);
    ASSERT_TRUE(g.Validate().ok()) << "seed " << seed;
    auto schedule = plan::TopologicalSchedule(g);
    ASSERT_TRUE(schedule.ok()) << "seed " << seed;
    auto mem = plan::PlanMemory(g, *schedule);
    ASSERT_TRUE(mem.ok()) << "seed " << seed;

    int64_t max_extent = 0;
    int64_t root_total = 0;
    std::set<int> roots;
    for (size_t v = 0; v < g.values().size(); ++v) {
      const BufferAssignment& b = mem->buffers[v];
      EXPECT_EQ(b.offset % mem->alignment, 0) << "seed " << seed;
      EXPECT_EQ(b.size % mem->alignment, 0) << "seed " << seed;
      EXPECT_GE(b.size, g.values()[v].spec.bytes()) << "seed " << seed;
      EXPECT_LE(b.def_step, b.last_use_step) << "seed " << seed;
      max_extent = std::max(max_extent, b.offset + b.size);
      const int root = AliasRoot(*mem, static_cast<int>(v));
      EXPECT_EQ(mem->buffers[static_cast<size_t>(root)].offset, b.offset)
          << "seed " << seed << ": alias offset mismatch";
      if (roots.insert(root).second) {
        root_total += mem->buffers[static_cast<size_t>(root)].size;
      }
    }
    EXPECT_EQ(mem->arena_bytes, max_extent) << "seed " << seed;
    EXPECT_EQ(mem->total_bytes_no_reuse, root_total) << "seed " << seed;
    EXPECT_EQ(mem->reused_bytes, root_total - mem->arena_bytes)
        << "seed " << seed;

    // The core property: two distinct roots whose lifetimes overlap must
    // occupy disjoint byte ranges.
    const std::vector<int> root_list(roots.begin(), roots.end());
    for (size_t i = 0; i < root_list.size(); ++i) {
      for (size_t j = i + 1; j < root_list.size(); ++j) {
        const BufferAssignment& a =
            mem->buffers[static_cast<size_t>(root_list[i])];
        const BufferAssignment& b =
            mem->buffers[static_cast<size_t>(root_list[j])];
        const bool lifetimes_overlap =
            a.def_step <= b.last_use_step && b.def_step <= a.last_use_step;
        const bool bytes_overlap =
            a.offset < b.offset + b.size && b.offset < a.offset + a.size;
        EXPECT_FALSE(lifetimes_overlap && bytes_overlap)
            << "seed " << seed << ": live buffers " << root_list[i] << " and "
            << root_list[j] << " overlap\n"
            << mem->Dump(g);
      }
    }
  }
}

TEST(MemoryPlannerTest, ScheduleIsDeterministic) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    PlanGraph g = RandomGraph(seed);
    auto s1 = plan::TopologicalSchedule(g);
    auto s2 = plan::TopologicalSchedule(g);
    ASSERT_TRUE(s1.ok() && s2.ok());
    EXPECT_EQ(*s1, *s2) << "seed " << seed;
    // Topological: every input's producer runs before the consumer.
    std::map<int, int> producer_step;
    for (size_t step = 0; step < s1->size(); ++step) {
      const OpDef& op = g.ops()[static_cast<size_t>((*s1)[step])];
      for (int out : op.outputs) producer_step[out] = static_cast<int>(step);
    }
    for (size_t step = 0; step < s1->size(); ++step) {
      const OpDef& op = g.ops()[static_cast<size_t>((*s1)[step])];
      for (int in : op.inputs) {
        EXPECT_LE(producer_step[in], static_cast<int>(step))
            << "seed " << seed;
      }
    }
  }
}

TEST(MemoryPlannerTest, CycleIsRejected) {
  PlanGraph g;
  const int a = g.AddValue("a", TensorSpec{4, 4});
  const int b = g.AddValue("b", TensorSpec{4, 4});
  OpDef op1;
  op1.kind = OpKind::kSelect;
  op1.name = "a_to_b";
  op1.inputs = {a};
  op1.outputs = {b};
  g.AddOp(std::move(op1));
  OpDef op2;
  op2.kind = OpKind::kSelect;
  op2.name = "b_to_a";
  op2.inputs = {b};
  op2.outputs = {a};
  g.AddOp(std::move(op2));
  ASSERT_TRUE(g.Validate().ok());
  auto schedule = plan::TopologicalSchedule(g);
  EXPECT_FALSE(schedule.ok());
  EXPECT_EQ(schedule.status().code(), StatusCode::kInvalidArgument);
}

TEST(MemoryPlannerTest, RejectsBadAlignment) {
  PlanGraph g = RandomGraph(1);
  auto schedule = plan::TopologicalSchedule(g);
  ASSERT_TRUE(schedule.ok());
  EXPECT_FALSE(plan::PlanMemory(g, *schedule, 16).ok());   // < 64.
  EXPECT_FALSE(plan::PlanMemory(g, *schedule, 96).ok());   // Not a power of 2.
  EXPECT_TRUE(plan::PlanMemory(g, *schedule, 128).ok());
}

TEST(PlanArenaTest, BaseIsAlignedAndSized) {
  MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTestArena");
  for (const int64_t alignment : {64, 128, 256}) {
    auto arena = plan::PlanArena::Create(1000, alignment, &tracker);
    ASSERT_TRUE(arena.ok());
    EXPECT_EQ(reinterpret_cast<uintptr_t>((*arena)->base()) %
                  static_cast<uintptr_t>(alignment),
              0u);
    EXPECT_GE((*arena)->size(), 1000);
    EXPECT_EQ((*arena)->size() % alignment, 0);
  }
  EXPECT_FALSE(plan::PlanArena::Create(1000, 32, &tracker).ok());
  EXPECT_FALSE(plan::PlanArena::Create(-1, 64, &tracker).ok());
}

/// --- compiled-plan properties over the five queries ---------------------------

class PlannedQueryTest : public ::testing::TestWithParam<QueryId> {};

TEST_P(PlannedQueryTest, BitwiseIdenticalToLegacyPath) {
  const QueryId q = GetParam();
  MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTest");
  ExecContext ctx;
  ctx.set_memory(&tracker);

  auto plan = plan::CompileQuery(TinyTables(), q, TinyParams(), &tracker,
                                 &ctx);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto planned = (*plan)->Execute(TinyParams(), &ctx);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_TRUE(BitwiseEqual(*planned, LegacyAnswer(q, TinyParams())));
}

TEST_P(PlannedQueryTest, ObservedPeakEqualsPredictedPeak) {
  const QueryId q = GetParam();
  MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTest");
  ExecContext ctx;
  ctx.set_memory(&tracker);
  auto plan = plan::CompileQuery(TinyTables(), q, TinyParams(), &tracker,
                                 &ctx);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Execute twice: pooled-arena reuse must not change the high-water mark.
  ASSERT_TRUE((*plan)->Execute(TinyParams(), &ctx).ok());
  ASSERT_TRUE((*plan)->Execute(TinyParams(), &ctx).ok());
  EXPECT_EQ((*plan)->observed_peak_bytes(),
            (*plan)->memory_plan().arena_bytes)
      << (*plan)->DumpAllocationPlan();
}

TEST_P(PlannedQueryTest, AllocationPlanIsAlignedAndDumps) {
  const QueryId q = GetParam();
  MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTest");
  ExecContext ctx;
  ctx.set_memory(&tracker);
  auto plan = plan::CompileQuery(TinyTables(), q, TinyParams(), &tracker,
                                 &ctx);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const MemoryPlan& mem = (*plan)->memory_plan();
  EXPECT_GE(mem.alignment, 64);
  for (const BufferAssignment& b : mem.buffers) {
    EXPECT_EQ(b.offset % 64, 0);
    EXPECT_EQ(b.size % 64, 0);
  }
  const std::string dump = (*plan)->DumpAllocationPlan();
  EXPECT_FALSE(dump.empty());
  for (const auto& v : (*plan)->graph().values()) {
    EXPECT_NE(dump.find(v.name), std::string::npos)
        << "value " << v.name << " missing from dump:\n" << dump;
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, PlannedQueryTest,
                         ::testing::ValuesIn(core::kAllQueries),
                         [](const auto& info) {
                           return std::string(core::QueryName(info.param));
                         });

TEST(PlannedQueryTest, CovarianceReusesArenaBytes) {
  MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTest");
  ExecContext ctx;
  ctx.set_memory(&tracker);
  auto plan = plan::CompileQuery(TinyTables(), QueryId::kCovariance,
                                 TinyParams(), &tracker, &ctx);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GT((*plan)->memory_plan().reused_bytes, 0)
      << (*plan)->DumpAllocationPlan();
  EXPECT_EQ((*plan)->memory_plan().reused_bytes,
            (*plan)->memory_plan().total_bytes_no_reuse -
                (*plan)->memory_plan().arena_bytes);
}

/// --- engine + cache behavior --------------------------------------------------

TEST(PlanEngineTest, CachesPlansPerQueryAndEpoch) {
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine.PrepareContext(&ctx);

  auto p1 = engine.CompileForTest(QueryId::kRegression, TinyParams(), &ctx);
  ASSERT_TRUE(p1.ok());
  auto p2 = engine.CompileForTest(QueryId::kRegression, TinyParams(), &ctx);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1->get(), p2->get()) << "same key must return the cached plan";
  EXPECT_EQ(engine.cached_plans(), 1);

  // A different shape param compiles a distinct plan.
  QueryParams other = TinyParams();
  other.function_threshold += 10;
  auto p3 = engine.CompileForTest(QueryId::kRegression, other, &ctx);
  ASSERT_TRUE(p3.ok());
  EXPECT_NE(p1->get(), p3->get());
  EXPECT_EQ(engine.cached_plans(), 2);

  // Reload bumps the epoch: old plans evict, results stay correct.
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  auto r = engine.RunQuery(QueryId::kRegression, TinyParams(), &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(engine.cached_plans(), 1);

  engine.UnloadDataset();
  EXPECT_EQ(engine.cached_plans(), 0);
  EXPECT_FALSE(engine.RunQuery(QueryId::kRegression, TinyParams(), &ctx).ok());
}

/// The first request of a new epoch evicts every older plan, and a
/// straggler still asking for an old epoch is served without re-entering
/// the cache — so after a reload plus one query only current-epoch plans
/// remain.
TEST(PlanCacheTest, EpochAdvanceLeavesOnlyCurrentEpochPlans) {
  MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTest");
  ExecContext ctx;
  ctx.set_memory(&tracker);
  plan::PlanCache cache;
  const auto get = [&](QueryId q, uint64_t epoch, bool* hit) {
    return cache.GetOrCompile(
        plan::PlanKey{q, /*shape_fingerprint=*/0, epoch},
        [&] {
          return plan::CompileQuery(TinyTables(), q, TinyParams(), &tracker,
                                    &ctx);
        },
        hit);
  };
  bool hit = true;
  for (const QueryId q : core::kAllQueries) {
    ASSERT_TRUE(get(q, /*epoch=*/1, &hit).ok());
    EXPECT_FALSE(hit);
  }
  EXPECT_EQ(cache.size(), 5);

  ASSERT_TRUE(get(QueryId::kRegression, /*epoch=*/2, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 1);

  auto straggler = get(QueryId::kCovariance, /*epoch=*/1, &hit);
  ASSERT_TRUE(straggler.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 1) << "an evicted epoch's plan re-entered the cache";

  ASSERT_TRUE(get(QueryId::kRegression, /*epoch=*/2, &hit).ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.size(), 1);
}

TEST(PlanEngineTest, ServesAllQueriesThroughRunQuery) {
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine.PrepareContext(&ctx);
  for (const QueryId q : core::kAllQueries) {
    auto r = engine.RunQuery(q, TinyParams(), &ctx);
    ASSERT_TRUE(r.ok()) << core::QueryName(q) << ": "
                        << r.status().ToString();
    EXPECT_EQ(r->query, q);
  }
  EXPECT_EQ(engine.cached_plans(), 5);
}

/// --- shape-keyed plans ------------------------------------------------------
/// Each QueryParams field either sets a plan's shape (it is in the plan key,
/// so changing it compiles a new plan) or is bound at execute (the plan is
/// reused and must answer exactly as the legacy path does under the new
/// value). The table below is the expected split, kept apart from
/// ShapeFingerprint so a misclassified field fails here either way.

static_assert(sizeof(QueryParams) == 72,
              "QueryParams changed: add the new field to ParamFields()");

struct ParamField {
  const char* name;
  void (*perturb)(QueryParams*);
  std::set<QueryId> shape_of;  ///< Queries whose plan key includes it.
  std::set<QueryId> bound_by;  ///< Queries that read it at execute.
};

std::vector<ParamField> ParamFields() {
  using Q = QueryId;
  return {
      {"function_threshold",
       [](QueryParams* p) { p->function_threshold += 10; },
       {Q::kRegression, Q::kSvd},
       {}},
      {"disease_id", [](QueryParams* p) { p->disease_id += 1; },
       {Q::kCovariance}, {}},
      {"covariance_quantile",
       [](QueryParams* p) { p->covariance_quantile = 0.8; },
       {},
       {Q::kCovariance}},
      {"max_age", [](QueryParams* p) { p->max_age += 10; },
       {Q::kBiclustering}, {}},
      {"gender", [](QueryParams* p) { p->gender = 1 - p->gender; },
       {Q::kBiclustering}, {}},
      {"bicluster_delta_fraction",
       [](QueryParams* p) { p->bicluster_delta_fraction = 0.5; },
       {},
       {Q::kBiclustering}},
      {"bicluster_count", [](QueryParams* p) { p->bicluster_count += 1; },
       {}, {Q::kBiclustering}},
      {"svd_rank", [](QueryParams* p) { p->svd_rank -= 2; }, {}, {Q::kSvd}},
      {"sample_fraction", [](QueryParams* p) { p->sample_fraction *= 2; },
       {Q::kStatistics}, {}},
      {"significance", [](QueryParams* p) { p->significance = 0.5; }, {},
       {Q::kStatistics}},
  };
}

TEST(ShapeKeyTest, EveryFieldIsShapeOrBoundAtExecute) {
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine.PrepareContext(&ctx);
  for (const ParamField& field : ParamFields()) {
    for (const QueryId q : core::kAllQueries) {
      SCOPED_TRACE(std::string(field.name) + " on " + core::QueryName(q));
      QueryParams perturbed = TinyParams();
      field.perturb(&perturbed);
      auto base_plan = engine.CompileForTest(q, TinyParams(), &ctx);
      auto plan = engine.CompileForTest(q, perturbed, &ctx);
      ASSERT_TRUE(base_plan.ok() && plan.ok());
      if (field.shape_of.count(q) > 0) {
        EXPECT_NE(plan->get(), base_plan->get())
            << "shape field reused another shape's plan";
      } else {
        EXPECT_EQ(plan->get(), base_plan->get())
            << "field outside the shape compiled a new plan";
      }
      const QueryResult legacy = LegacyAnswer(q, perturbed);
      if (field.bound_by.count(q) > 0) {
        ASSERT_FALSE(BitwiseEqual(legacy, LegacyAnswer(q, TinyParams())))
            << "perturbation does not change the answer, so it cannot "
               "show the field is bound";
      }
      auto planned = (*plan)->Execute(perturbed, &ctx);
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();
      EXPECT_TRUE(BitwiseEqual(*planned, legacy));
    }
  }
}

TEST(ShapeKeyTest, SeededBoundParamSweepSharesOnePlan) {
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine.PrepareContext(&ctx);
  Rng rng(20261017);
  for (const QueryId q : core::kAllQueries) {
    SCOPED_TRACE(core::QueryName(q));
    auto shared = engine.CompileForTest(q, TinyParams(), &ctx);
    ASSERT_TRUE(shared.ok());
    const plan::PlanStatsSnapshot before = plan::PlanStatsSnapshot::Capture();
    for (int draw = 0; draw < 8; ++draw) {
      QueryParams p = TinyParams();
      p.covariance_quantile = rng.Uniform(0.5, 0.99);
      p.bicluster_delta_fraction = rng.Uniform(0.2, 0.6);
      p.bicluster_count = static_cast<int>(rng.UniformInt(1, 3));
      p.svd_rank = static_cast<int>(rng.UniformInt(2, 8));
      p.significance = rng.Uniform(0.001, 0.5);
      auto planned = engine.RunQuery(q, p, &ctx);
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();
      EXPECT_TRUE(BitwiseEqual(*planned, LegacyAnswer(q, p)))
          << "draw " << draw;
    }
    const plan::PlanStatsSnapshot delta =
        plan::PlanStatsSnapshot::Capture() - before;
    EXPECT_EQ(delta.compiles, 0);
    EXPECT_EQ(delta.cache_hits, 8);
    EXPECT_EQ(delta.executes, 8);
  }
  EXPECT_EQ(engine.cached_plans(), 5);
}

}  // namespace
}  // namespace genbase
