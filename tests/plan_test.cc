#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
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
#include "bitwise_result.h"  // Same directory.

namespace genbase {
namespace {

using core::DatasetSize;
using core::GenBaseData;
using core::QueryId;
using core::QueryParams;
using core::QueryResult;
using plan::MemoryLayout;
using plan::OpDef;
using plan::OpKind;
using plan::PlanGraph;
using plan::Region;
using plan::Slot;
using plan::TensorSpec;
using testutil::BitwiseEqual;

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

/// --- randomized DAGs for layout property tests ------------------------------

uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Builds a random valid DAG: each op reads 1-3 already-produced values and
/// writes one new value. Sources are scan ops with no inputs.
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
    const TensorSpec spec{1 + static_cast<int64_t>(NextRand(&s) % 40),
                          1 + static_cast<int64_t>(NextRand(&s) % 12)};
    const int v = g.AddValue("v" + std::to_string(i), spec);
    op.outputs = {v};
    g.AddOp(std::move(op));
    produced.push_back(v);
  }
  return g;
}

/// --- layout property tests ---------------------------------------------------

TEST(PlanLayoutTest, RandomizedDagsGetDisjointAlignedSlots) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    PlanGraph g = RandomGraph(seed);
    ASSERT_TRUE(g.Validate().ok()) << "seed " << seed;
    uint64_t s = ~seed;
    std::vector<bool> folds;
    for (size_t o = 0; o < g.ops().size(); ++o) {
      folds.push_back(NextRand(&s) % 3 != 0);
    }
    const MemoryLayout layout = plan::LayOut(g, folds);
    ASSERT_EQ(layout.slots.size(), g.values().size());

    // The region rule: execute ops' values in the execute region, folded
    // values an execute op reads retained, the rest scratch.
    std::vector<Region> expected(g.values().size(), Region::kScratch);
    for (size_t o = 0; o < g.ops().size(); ++o) {
      if (folds[o]) continue;
      for (int v : g.ops()[o].outputs) {
        expected[static_cast<size_t>(v)] = Region::kExecute;
      }
    }
    for (size_t o = 0; o < g.ops().size(); ++o) {
      if (folds[o]) continue;
      for (int v : g.ops()[o].inputs) {
        if (expected[static_cast<size_t>(v)] == Region::kScratch) {
          expected[static_cast<size_t>(v)] = Region::kRetained;
        }
      }
    }

    std::map<Region, int64_t> slot_total;
    for (size_t v = 0; v < g.values().size(); ++v) {
      const Slot& a = layout.slots[v];
      EXPECT_EQ(a.region, expected[v]) << "seed " << seed << " value " << v;
      EXPECT_EQ(a.offset % 64, 0) << "seed " << seed;
      EXPECT_EQ(a.size % 64, 0) << "seed " << seed;
      EXPECT_GE(a.size - plan::kGuardBytes, g.values()[v].spec.bytes())
          << "seed " << seed;
      slot_total[a.region] += a.size;
      for (size_t w = v + 1; w < g.values().size(); ++w) {
        const Slot& b = layout.slots[w];
        if (a.region != b.region) continue;
        EXPECT_FALSE(a.offset < b.offset + b.size &&
                     b.offset < a.offset + a.size)
            << "seed " << seed << ": values " << v << " and " << w
            << " overlap\n"
            << layout.Dump(g);
      }
    }
    for (const Region r :
         {Region::kRetained, Region::kScratch, Region::kExecute}) {
      EXPECT_EQ(layout.bytes(r), slot_total[r]) << "seed " << seed;
    }
  }
}

/// Ops run in the order they were added, so an op may read only what an
/// earlier op wrote; that also rules out cycles.
TEST(PlanGraphTest, ValidateRejectsReadsOfLaterOps) {
  const auto select = [](std::string name, std::vector<int> in,
                         std::vector<int> out) {
    OpDef op;
    op.kind = OpKind::kSelect;
    op.name = std::move(name);
    op.inputs = std::move(in);
    op.outputs = std::move(out);
    return op;
  };
  PlanGraph out_of_order;
  const int a = out_of_order.AddValue("a", TensorSpec{4, 4});
  const int b = out_of_order.AddValue("b", TensorSpec{4, 4});
  out_of_order.AddOp(select("reads_b", {b}, {a}));
  out_of_order.AddOp(select("writes_b", {}, {b}));
  auto status = out_of_order.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("reads_b"), std::string::npos)
      << status.ToString();

  PlanGraph cycle;
  const int c = cycle.AddValue("c", TensorSpec{4, 4});
  const int d = cycle.AddValue("d", TensorSpec{4, 4});
  cycle.AddOp(select("c_to_d", {c}, {d}));
  cycle.AddOp(select("d_to_c", {d}, {c}));
  EXPECT_EQ(cycle.Validate().code(), StatusCode::kInvalidArgument);

  PlanGraph in_order;
  const int e = in_order.AddValue("e", TensorSpec{4, 4});
  const int f = in_order.AddValue("f", TensorSpec{4, 4});
  in_order.AddOp(select("writes_e", {}, {e}));
  in_order.AddOp(select("e_to_f", {e}, {f}));
  EXPECT_TRUE(in_order.Validate().ok());
}

/// A folded op writes a retained value at the address execute ops read it
/// from: no copy, so the compile holds the value once.
TEST(PlanLayoutTest, RetainedValuesAreWrittenInPlace) {
  constexpr int64_t kRows = 1000;
  MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTest");
  PlanGraph g;
  const int v = g.AddValue("v", TensorSpec{kRows, 1});
  OpDef write;
  write.kind = OpKind::kScan;
  write.name = "write_v";
  write.outputs = {v};
  g.AddOp(std::move(write));
  OpDef read;
  read.kind = OpKind::kCount;
  read.name = "read_v";
  read.inputs = {v};
  read.reads_params = true;
  g.AddOp(std::move(read));

  const double* written_at = nullptr;
  const double* read_at = nullptr;
  std::vector<plan::OpFn> ops;
  ops.push_back([&written_at, v](plan::ExecFrame* f, ExecContext*,
                                 QueryResult*) -> Status {
    double* d = f->Data(v);
    for (int64_t i = 0; i < kRows; ++i) d[i] = static_cast<double>(i);
    written_at = d;
    return Status::OK();
  });
  ops.push_back([&read_at, v](plan::ExecFrame* f, ExecContext*,
                              QueryResult* out) -> Status {
    read_at = f->In(v);
    out->stats.significant_terms =
        static_cast<int64_t>(read_at[kRows - 1]) + f->params().svd_rank;
    return Status::OK();
  });
  auto plan = plan::CompiledPlan::Build(QueryId::kStatistics, std::move(g),
                                        std::move(ops), plan::PlanStatics(),
                                        /*retained_static_bytes=*/0,
                                        &tracker, nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  QueryParams p;
  p.svd_rank = 5;
  auto r = (*plan)->Execute(p, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.significant_terms, kRows - 1 + 5);
  EXPECT_NE(written_at, nullptr);
  EXPECT_EQ(read_at, written_at) << "execute read a copy of the value";
  // The compile's whole tracked peak is the plan's one retained copy.
  EXPECT_EQ(tracker.peak(), (*plan)->retained_bytes());
  EXPECT_LT((*plan)->retained_bytes(), 2 * kRows * 8);
}

/// Each slot ends in a guard word: an op that writes one double past its
/// value fails its run with Internal, names the value and bumps
/// plan_peak_mismatch_total — folded (at compile) or at execute.
TEST(PlanLayoutTest, WritePastAValueFailsTheRun) {
  constexpr int64_t kRows = 8;  // 64 B: the next double is the guard word.
  const auto build = [](bool at_execute, MemoryTracker* tracker) {
    PlanGraph g;
    const int v = g.AddValue("overrun", TensorSpec{kRows, 1});
    OpDef op;
    op.kind = OpKind::kScan;
    op.name = "writes_past_overrun";
    op.outputs = {v};
    op.reads_params = at_execute;
    g.AddOp(std::move(op));
    std::vector<plan::OpFn> ops;
    ops.push_back([v](plan::ExecFrame* f, ExecContext*,
                      QueryResult*) -> Status {
      double* d = f->Data(v);
      for (int64_t i = 0; i <= kRows; ++i) d[i] = 1.0;
      return Status::OK();
    });
    return plan::CompiledPlan::Build(QueryId::kSvd, std::move(g),
                                     std::move(ops), plan::PlanStatics(),
                                     /*retained_static_bytes=*/0, tracker,
                                     nullptr);
  };
  const auto mismatches = [] {
    return plan::PlanStatsSnapshot::Capture().peak_mismatches;
  };
  MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTest");

  int64_t before = mismatches();
  auto folded = build(/*at_execute=*/false, &tracker);
  ASSERT_FALSE(folded.ok());
  EXPECT_EQ(folded.status().code(), StatusCode::kInternal);
  EXPECT_NE(folded.status().ToString().find("overrun"), std::string::npos)
      << folded.status().ToString();
  EXPECT_EQ(mismatches() - before, 1);

  auto executed = build(/*at_execute=*/true, &tracker);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  before = mismatches();
  auto r = (*executed)->Execute(QueryParams(), nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().ToString().find("overrun"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(mismatches() - before, 1);
  EXPECT_EQ(tracker.used(), (*executed)->retained_bytes())
      << "an arena with a broken guard went back to the pool";
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

TEST_P(PlannedQueryTest, GuardsStayIntact) {
  const QueryId q = GetParam();
  MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTest");
  ExecContext ctx;
  ctx.set_memory(&tracker);
  const int64_t before = plan::PlanStatsSnapshot::Capture().peak_mismatches;
  auto plan = plan::CompileQuery(TinyTables(), q, TinyParams(), &tracker,
                                 &ctx);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Execute twice: the second run reuses the pooled arena and its guards.
  ASSERT_TRUE((*plan)->Execute(TinyParams(), &ctx).ok());
  ASSERT_TRUE((*plan)->Execute(TinyParams(), &ctx).ok());
  EXPECT_EQ(plan::PlanStatsSnapshot::Capture().peak_mismatches, before)
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
  const MemoryLayout& layout = (*plan)->layout();
  ASSERT_EQ(layout.slots.size(), (*plan)->graph().values().size());
  for (const Slot& slot : layout.slots) {
    EXPECT_EQ(slot.offset % 64, 0);
    EXPECT_EQ(slot.size % 64, 0);
  }
  const std::string dump = (*plan)->DumpAllocationPlan();
  EXPECT_FALSE(dump.empty());
  for (size_t v = 0; v < layout.slots.size(); ++v) {
    const std::string& name = (*plan)->graph().values()[v].name;
    const size_t line = dump.find(" " + name + " ");
    ASSERT_NE(line, std::string::npos)
        << "value " << name << " missing from dump:\n" << dump;
    EXPECT_NE(dump.substr(line, dump.find('\n', line) - line)
                  .find(plan::RegionName(layout.slots[v].region)),
              std::string::npos)
        << "value " << name << " has no region in dump:\n" << dump;
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, PlannedQueryTest,
                         ::testing::ValuesIn(core::kAllQueries),
                         [](const auto& info) {
                           return std::string(core::QueryName(info.param));
                         });

/// --- folding ----------------------------------------------------------------
/// Each plan runs, once at compile, every op that reads no bound param and
/// only folded inputs; execute runs the rest. The expected split, kept apart
/// from the builders' reads_params declarations so a misdeclared op (or a
/// fold rule change) fails here:
///
///   query         folded at compile           left at execute
///   regression    scan_design, least_squares  -
///   covariance    scan .. partition_upper     quantile, threshold_join
///   biclustering  scan_matrix                 cheng_church
///   svd           scan_matrix                 truncated_svd
///   statistics    aggregate_scores, wilcoxon  count_significant

struct FoldSplit {
  QueryId query;
  std::vector<std::string> folded;    ///< In compile-time run order.
  std::vector<std::string> executed;  ///< In execute run order.
};

std::vector<FoldSplit> FoldTable() {
  return {
      {QueryId::kRegression, {"scan_design", "least_squares"}, {}},
      {QueryId::kCovariance,
       {"scan_matrix", "column_means", "syrk_centered", "extract_upper",
        "partition_upper"},
       {"quantile", "threshold_join"}},
      {QueryId::kBiclustering, {"scan_matrix"}, {"cheng_church"}},
      {QueryId::kSvd, {"scan_matrix"}, {"truncated_svd"}},
      {QueryId::kStatistics, {"aggregate_scores", "wilcoxon"},
       {"count_significant"}},
  };
}

std::vector<std::string> OpNames(const plan::CompiledPlan& plan,
                                 const std::vector<int>& op_ids) {
  std::vector<std::string> names;
  for (int id : op_ids) {
    names.push_back(plan.graph().ops()[static_cast<size_t>(id)].name);
  }
  return names;
}

TEST(FoldTest, PlansExecuteExactlyTheOpsThatReadBoundParams) {
  ASSERT_EQ(FoldTable().size(), std::size(core::kAllQueries));
  for (const FoldSplit& row : FoldTable()) {
    SCOPED_TRACE(core::QueryName(row.query));
    MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTest");
    ExecContext ctx;
    ctx.set_memory(&tracker);
    auto plan = plan::CompileQuery(TinyTables(), row.query, TinyParams(),
                                   &tracker, &ctx);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(OpNames(**plan, (*plan)->FoldedOps()), row.folded);
    EXPECT_EQ(OpNames(**plan, (*plan)->ExecuteOps()), row.executed);
  }
}

/// Plans keep only what execute reads: after compile the tracker holds
/// exactly the retained bytes, and a Q1 plan — folded whole — holds nothing
/// at all (no arena, matched rows or maps), before or after executing.
TEST(FoldTest, PlansRetainOnlyWhatExecuteReads) {
  for (const QueryId q : core::kAllQueries) {
    SCOPED_TRACE(core::QueryName(q));
    MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTest");
    ExecContext ctx;
    ctx.set_memory(&tracker);
    auto plan =
        plan::CompileQuery(TinyTables(), q, TinyParams(), &tracker, &ctx);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(tracker.used(), (*plan)->retained_bytes());
    if (q == QueryId::kRegression) {
      EXPECT_EQ((*plan)->retained_bytes(), 0);
      EXPECT_EQ((*plan)->layout().bytes(Region::kExecute), 0);
      ASSERT_TRUE((*plan)->Execute(TinyParams(), &ctx).ok());
      EXPECT_EQ(tracker.used(), 0) << "Q1 execute pinned an arena";
    }
  }
}

/// No plan pins the tables snapshot it was compiled from: execute ops read
/// only retained values and what their closures resolved at compile, so a
/// reload can free the old dataset while plans of its epoch still serve.
TEST(FoldTest, PlansDoNotPinTheirTables) {
  MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTest");
  ExecContext ctx;
  ctx.set_memory(&tracker);
  auto tables = std::make_shared<engine::ColumnarTables>();
  ASSERT_TRUE(
      engine::LoadColumnarTables(TinyData(), &tracker, tables.get()).ok());
  const std::weak_ptr<const engine::ColumnarTables> weak = tables;
  std::vector<std::shared_ptr<plan::CompiledPlan>> plans;
  for (const QueryId q : core::kAllQueries) {
    auto plan = plan::CompileQuery(tables, q, TinyParams(), &tracker, &ctx);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plans.push_back(std::move(plan).ValueOrDie());
  }
  tables.reset();
  EXPECT_TRUE(weak.expired()) << "a plan still holds its tables";
  for (const auto& plan : plans) {
    SCOPED_TRACE(core::QueryName(plan->query()));
    auto r = plan->Execute(TinyParams(), &ctx);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(BitwiseEqual(*r, LegacyAnswer(plan->query(), TinyParams())));
  }
}

/// The params guard: an op declared param-free is folded and runs on a
/// frame without params, so reading them fails the compile — it cannot bake
/// one request's params into a plan every request of the shape shares.
/// Declared honestly, the same op runs at execute with each request's own.
TEST(FoldTest, FoldedOpThatReadsParamsFailsCompile) {
  const auto compile = [](bool declared_reads_params,
                          MemoryTracker* tracker) {
    PlanGraph g;
    const int v = g.AddValue("rank", TensorSpec{1, 1});
    g.AddOp({OpKind::kScan, "reads_rank", {}, {v}, declared_reads_params});
    std::vector<plan::OpFn> ops;
    ops.push_back([v](plan::ExecFrame* f, ExecContext*,
                      QueryResult* out) -> Status {
      f->Data(v)[0] = f->params().svd_rank;
      out->svd.rank = f->params().svd_rank;
      return Status::OK();
    });
    return plan::CompiledPlan::Build(QueryId::kSvd, std::move(g),
                                     std::move(ops), plan::PlanStatics(),
                                     /*retained_static_bytes=*/0, tracker,
                                     nullptr);
  };
  MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTest");
  auto misdeclared = compile(/*declared_reads_params=*/false, &tracker);
  ASSERT_FALSE(misdeclared.ok());
  EXPECT_EQ(misdeclared.status().code(), StatusCode::kInternal);
  EXPECT_NE(misdeclared.status().ToString().find("reads_rank"),
            std::string::npos)
      << misdeclared.status().ToString();
  EXPECT_EQ(tracker.used(), 0) << "failed compile leaked its arena";

  auto honest = compile(/*declared_reads_params=*/true, &tracker);
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  for (const int rank : {3, 7}) {
    QueryParams p;
    p.svd_rank = rank;
    auto r = (*honest)->Execute(p, nullptr);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->svd.rank, rank);
  }
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

/// Callers queued behind a compile that fails are not handed its error:
/// they retry, one of them compiles, and the rest share that plan.
TEST(PlanCacheTest, FailedCompileIsRetriedByItsFollowers) {
  MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTest");
  plan::PlanCache cache;
  const plan::PlanKey key{QueryId::kRegression, /*shape_fingerprint=*/0,
                          /*epoch=*/1};
  constexpr int kCallers = 4;
  std::atomic<int> compiles{0};
  std::atomic<int> started{0};
  std::atomic<bool> gate_open{false};
  // The first compile waits at the gate, then fails; later ones succeed.
  const auto compile = [&]() -> Result<std::shared_ptr<plan::CompiledPlan>> {
    if (compiles.fetch_add(1) == 0) {
      while (!gate_open.load()) std::this_thread::yield();
      return Status::Internal("injected compile failure");
    }
    ExecContext ctx;
    ctx.set_memory(&tracker);
    return plan::CompileQuery(TinyTables(), key.query, TinyParams(),
                              &tracker, &ctx);
  };

  std::vector<Status> statuses(kCallers);
  std::vector<std::shared_ptr<plan::CompiledPlan>> plans(kCallers);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      started.fetch_add(1);
      bool hit = false;
      auto r = cache.GetOrCompile(key, compile, &hit);
      statuses[static_cast<size_t>(t)] = r.status();
      if (r.ok()) plans[static_cast<size_t>(t)] = *r;
    });
  }
  while (started.load() < kCallers) std::this_thread::yield();
  // Give the callers time to queue behind the gated compile. A caller that
  // arrives after the failure leads the retry itself, so the outcome below
  // holds on every schedule.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate_open.store(true);
  for (auto& caller : callers) caller.join();

  int errors = 0;
  std::set<const plan::CompiledPlan*> distinct;
  for (int t = 0; t < kCallers; ++t) {
    if (!statuses[static_cast<size_t>(t)].ok()) {
      ++errors;
    } else {
      distinct.insert(plans[static_cast<size_t>(t)].get());
    }
  }
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(distinct.size(), 1u);
  EXPECT_EQ(distinct.count(nullptr), 0u);
  EXPECT_EQ(compiles.load(), 2);
  EXPECT_EQ(cache.size(), 1);
}

/// A compile that a newer epoch or Clear() evicts while it runs still
/// answers its caller, but its plan never enters the cache.
TEST(PlanCacheTest, CompileOutlivingItsEvictionIsNotCached) {
  MemoryTracker tracker(MemoryTracker::kUnlimited, "PlanTest");
  const auto compile = [&](QueryId q) {
    ExecContext ctx;
    ctx.set_memory(&tracker);
    return plan::CompileQuery(TinyTables(), q, TinyParams(), &tracker, &ctx);
  };
  const plan::PlanKey key{QueryId::kRegression, /*shape_fingerprint=*/0,
                          /*epoch=*/1};
  // Compiles `key` on another thread and runs `evict` while that compile is
  // in progress. True if the compiling caller got its plan.
  const auto compile_across = [&](plan::PlanCache* cache,
                                  const std::function<void()>& evict) {
    std::atomic<bool> compiling{false};
    std::atomic<bool> evicted{false};
    bool served = false;
    std::thread caller([&] {
      bool hit = true;
      auto r = cache->GetOrCompile(
          key,
          [&] {
            compiling.store(true);
            while (!evicted.load()) std::this_thread::yield();
            return compile(key.query);
          },
          &hit);
      served = r.ok() && *r != nullptr && !hit;
    });
    while (!compiling.load()) std::this_thread::yield();
    evict();
    evicted.store(true);
    caller.join();
    return served;
  };

  {
    // A request for a newer epoch evicts the compiling one.
    plan::PlanCache cache;
    const plan::PlanKey newer{QueryId::kCovariance, /*shape_fingerprint=*/0,
                              /*epoch=*/2};
    const auto get_newer = [&](bool* hit) {
      return cache.GetOrCompile(
          newer, [&] { return compile(newer.query); }, hit);
    };
    bool hit = true;
    ASSERT_TRUE(compile_across(&cache, [&] {
      ASSERT_TRUE(get_newer(&hit).ok());
    }));
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.size(), 1) << "an evicted epoch's plan was cached";
    ASSERT_TRUE(get_newer(&hit).ok());
    EXPECT_TRUE(hit);
  }
  {
    // Clear() (a dataset unload) evicts it without an epoch change.
    plan::PlanCache cache;
    ASSERT_TRUE(compile_across(&cache, [&] { cache.Clear(); }));
    EXPECT_EQ(cache.size(), 0) << "a plan compiled across Clear() was cached";
    bool hit = true;
    ASSERT_TRUE(
        cache.GetOrCompile(key, [&] { return compile(key.query); }, &hit)
            .ok());
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.size(), 1);
  }
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

/// The quantile's end points on the shared Q2 plan: q = 0 selects the
/// smallest pair, q = 1 clamps to the largest (so no pair is above it).
TEST(ShapeKeyTest, QuantileEndpointsShareOnePlan) {
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine.PrepareContext(&ctx);
  for (const double q : {0.0, 1.0}) {
    SCOPED_TRACE(q);
    QueryParams p = TinyParams();
    p.covariance_quantile = q;
    auto planned = engine.RunQuery(QueryId::kCovariance, p, &ctx);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    EXPECT_TRUE(
        BitwiseEqual(*planned, LegacyAnswer(QueryId::kCovariance, p)));
    if (q == 1.0) {
      EXPECT_EQ(planned->covariance.pairs_above, 0);
    }
  }
  EXPECT_EQ(engine.cached_plans(), 1);
}

}  // namespace
}  // namespace genbase
