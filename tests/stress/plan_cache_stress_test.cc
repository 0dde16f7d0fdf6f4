// Plan-cache stress: the single-flight compile path, the pooled-arena
// execute path and epoch eviction all run concurrently in the serving tier,
// so they are hammered here the way serving would — a stampede of clients
// on one key, a mixed workload racing dataset reloads, and a pile-up of
// executions on one cached plan. Outcomes asserted are deterministic even
// though the interleavings are not.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/exec_context.h"
#include "common/rng.h"
#include "core/datasets.h"
#include "core/queries.h"
#include "engine/engine_util.h"
#include "obs/metrics.h"
#include "plan/plan_builder.h"
#include "plan/plan_engine.h"
#include "plan/plan_stats.h"
#include "tests/bitwise_result.h"
#include "tests/stress/stress_util.h"
#include "tests/tiny_data.h"

namespace genbase {
namespace {

using testutil::TinyData;
using testutil::TinyParams;

using core::DatasetSize;
using core::GenBaseData;
using core::QueryId;
using core::QueryParams;

/// One columnar copy of the tiny dataset, charged to its own tracker.
const std::shared_ptr<const engine::ColumnarTables>& TinyTables() {
  static const auto* tables = [] {
    static MemoryTracker tracker(MemoryTracker::kUnlimited, "StressTables");
    auto t = std::make_shared<engine::ColumnarTables>();
    GENBASE_CHECK(
        engine::LoadColumnarTables(TinyData(), &tracker, t.get()).ok());
    return new std::shared_ptr<const engine::ColumnarTables>(std::move(t));
  }();
  return *tables;
}

/// The legacy column-store answer for `q` under `params` on TinyTables().
core::QueryResult LegacyAnswer(QueryId q, const QueryParams& params) {
  MemoryTracker tracker(MemoryTracker::kUnlimited, "StressLegacy");
  ExecContext ctx;
  ctx.set_memory(&tracker);
  auto inputs = engine::PrepareInputsColumnar(*TinyTables(), q, params, &ctx);
  GENBASE_CHECK(inputs.ok());
  auto legacy = engine::RunStandardAnalytics(
      q, std::move(*inputs), params, linalg::KernelQuality::kTuned, &ctx);
  GENBASE_CHECK(legacy.ok());
  return std::move(legacy).ValueOrDie();
}

/// A stampede of clients on one cold key must compile exactly once: one
/// leader, everyone else coalesces onto the leader's plan and executes it.
TEST(PlanCacheStressTest, StampedeCompilesOnce) {
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  obs::MetricsWindow window(std::vector<std::string>{});

  constexpr int kThreads = 8;
  std::atomic<int> successes{0};
  stress::Hammer(kThreads, [&](int) {
    ExecContext ctx;
    engine.PrepareContext(&ctx);
    auto r = engine.RunQuery(QueryId::kCovariance, TinyParams(), &ctx);
    if (r.ok()) successes.fetch_add(1, std::memory_order_relaxed);
  });

  window.Stop();
  EXPECT_EQ(successes.load(std::memory_order_relaxed), kThreads);
  EXPECT_EQ(window.Change("plan_compiles_total"), 1)
      << "single-flight leaked extra compiles";
  EXPECT_EQ(window.Change("plan_cache_hits_total"), kThreads - 1);
  EXPECT_EQ(window.Change("plan_executes_total"), kThreads);
  EXPECT_EQ(window.Change("plan_peak_mismatch_total"), 0);
  EXPECT_EQ(engine.cached_plans(), 1);
}

/// Many threads executing one cached plan concurrently: the arena pool
/// hands each execution a private arena, results stay correct and no run
/// overwrites a guard word.
TEST(PlanCacheStressTest, ConcurrentExecutionsShareOnePlan) {
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  ExecContext warm_ctx;
  engine.PrepareContext(&warm_ctx);
  auto plan =
      engine.CompileForTest(QueryId::kRegression, TinyParams(), &warm_ctx);
  ASSERT_TRUE(plan.ok());
  auto expected = (*plan)->Execute(TinyParams(), &warm_ctx);
  ASSERT_TRUE(expected.ok());
  const obs::Counter* guard_hits = plan::PlanMetrics::Get().peak_mismatches;
  const int64_t before = guard_hits->Value();

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 16;
  std::atomic<int> mismatches{0};
  stress::Hammer(kThreads, [&](int) {
    ExecContext ctx;
    engine.PrepareContext(&ctx);
    for (int round = 0; round < kRoundsPerThread; ++round) {
      auto r = engine.RunQuery(QueryId::kRegression, TinyParams(), &ctx);
      if (!r.ok() ||
          r->regression.r_squared != expected->regression.r_squared ||
          r->regression.coef_l2 != expected->regression.coef_l2) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(mismatches.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(guard_hits->Value() - before, 0);
  EXPECT_EQ(engine.cached_plans(), 1);
}

/// Threads execute Q4 on one plan at ranks whose stops lie inside and past
/// the Lanczos record the fold seeded: odd threads walk the ranks upward,
/// so the record keeps growing while even threads read random ranks from
/// it. Every answer must equal legacy, whole and bit for bit, and the plan
/// must end holding the record a plan that served only the largest rank
/// holds.
TEST(PlanCacheStressTest, ConcurrentRanksShareOneSvdRecord) {
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  ExecContext ctx;
  engine.PrepareContext(&ctx);
  auto plan = engine.CompileForTest(QueryId::kSvd, TinyParams(), &ctx);
  ASSERT_TRUE(plan.ok());
  const int n = static_cast<int>((*plan)->graph().values()[0].spec.cols);
  ASSERT_GT(n, 2);
  const int64_t seeded_bytes = (*plan)->retained_bytes();
  std::vector<core::QueryResult> expected;
  for (int rank = 0; rank <= n; ++rank) {
    QueryParams p = TinyParams();
    p.svd_rank = rank;
    expected.push_back(LegacyAnswer(QueryId::kSvd, p));
  }

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 24;
  std::atomic<int> wrong_answers{0};
  stress::Hammer(kThreads, [&](int t) {
    ExecContext thread_ctx;
    engine.PrepareContext(&thread_ctx);
    uint64_t rng = 0x5bd1e995ULL * static_cast<uint64_t>(t + 1);
    for (int round = 0; round < kRoundsPerThread; ++round) {
      QueryParams p = TinyParams();
      p.svd_rank = t % 2 == 1
                       ? (round * n) / (kRoundsPerThread - 1)
                       : static_cast<int>(stress::NextRand(&rng) %
                                          static_cast<uint64_t>(n + 1));
      auto r = (*plan)->Execute(p, &thread_ctx);
      if (!r.ok() || !testutil::BitwiseEqual(
                         *r, expected[static_cast<size_t>(p.svd_rank)])) {
        wrong_answers.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(wrong_answers.load(std::memory_order_relaxed), 0);

  auto reference = engine.CompileForTest(QueryId::kSvd, TinyParams(), &ctx);
  ASSERT_TRUE(reference.ok());
  QueryParams largest = TinyParams();
  largest.svd_rank = n;
  ASSERT_TRUE((*reference)->Execute(largest, &ctx).ok());
  EXPECT_GT((*plan)->retained_bytes(), seeded_bytes);
  EXPECT_EQ((*plan)->retained_bytes(), (*reference)->retained_bytes());
  EXPECT_EQ(plan::PlanMetrics::Get().peak_mismatches->Value(), 0);
}

/// Q3 params at 16 delta fractions and counts 1-3.
std::vector<QueryParams> DeltaGrid() {
  std::vector<QueryParams> grid;
  for (int i = 0; i < 16; ++i) {
    for (int count = 1; count <= 3; ++count) {
      QueryParams p = TinyParams();
      p.bicluster_delta_fraction = 0.05 + 0.06 * i;
      p.bicluster_count = count;
      grid.push_back(p);
    }
  }
  return grid;
}

/// Threads execute Q3 on one plan at deltas inside and outside the pieces
/// its Cheng-Church record holds: odd threads walk the delta grid upward,
/// so every grid point is served while the record grows, and even threads
/// read random grid points. Every answer must equal legacy, whole and bit
/// for bit. A run that publishes a piece another run already published
/// (racing it between lookup and publish) must not add it twice: the plan
/// must end holding what a plan that served each grid point once holds,
/// and its tracker exactly the plan's retained bytes.
TEST(PlanCacheStressTest, ConcurrentDeltasShareOneBiclusterRecord) {
  const std::vector<QueryParams> grid = DeltaGrid();
  std::vector<core::QueryResult> expected;
  for (const QueryParams& p : grid) {
    expected.push_back(LegacyAnswer(QueryId::kBiclustering, p));
  }
  MemoryTracker tracker(MemoryTracker::kUnlimited, "StressPlan");
  ExecContext ctx;
  ctx.set_memory(&tracker);
  auto plan = plan::CompileQuery(TinyTables(), QueryId::kBiclustering,
                                 TinyParams(), &tracker, &ctx);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const int64_t seeded_bytes = (*plan)->retained_bytes();

  constexpr int kThreads = 8;
  const int rounds = static_cast<int>(grid.size());
  std::atomic<int> wrong_answers{0};
  stress::Hammer(kThreads, [&](int t) {
    ExecContext thread_ctx;
    thread_ctx.set_memory(&tracker);
    uint64_t rng = 0x2545f491ULL * static_cast<uint64_t>(t + 1);
    for (int round = 0; round < rounds; ++round) {
      const size_t i =
          t % 2 == 1 ? static_cast<size_t>(round)
                     : static_cast<size_t>(stress::NextRand(&rng) %
                                           grid.size());
      auto r = (*plan)->Execute(grid[i], &thread_ctx);
      if (!r.ok() || !testutil::BitwiseEqual(*r, expected[i])) {
        wrong_answers.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(wrong_answers.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(tracker.used(), (*plan)->retained_bytes());

  MemoryTracker reference_tracker(MemoryTracker::kUnlimited, "StressPlan");
  auto reference =
      plan::CompileQuery(TinyTables(), QueryId::kBiclustering, TinyParams(),
                         &reference_tracker, &ctx);
  ASSERT_TRUE(reference.ok());
  for (const QueryParams& p : grid) {
    ASSERT_TRUE((*reference)->Execute(p, &ctx).ok());
  }
  EXPECT_GT((*plan)->retained_bytes(), seeded_bytes);
  EXPECT_EQ((*plan)->retained_bytes(), (*reference)->retained_bytes());
  EXPECT_EQ(plan::PlanMetrics::Get().peak_mismatches->Value(), 0);
}

/// Params variants for the reload race: every bound-at-execute field drawn
/// per variant, plus two function thresholds, so Q1 and Q4 have two plan
/// shapes each and Q2/Q3/Q5 one.
constexpr int kVariants = 16;
constexpr int64_t kShapesPerEpoch = 2 + 1 + 1 + 2 + 1;

std::vector<QueryParams> BoundParamVariants() {
  std::vector<QueryParams> variants;
  Rng rng(0x5eed);
  for (int v = 0; v < kVariants; ++v) {
    QueryParams p = TinyParams();
    p.function_threshold += (v % 2) * 10;
    p.covariance_quantile = rng.Uniform(0.5, 0.99);
    p.bicluster_delta_fraction = rng.Uniform(0.2, 0.6);
    p.bicluster_count = static_cast<int>(rng.UniformInt(1, 3));
    p.svd_rank = static_cast<int>(rng.UniformInt(2, 8));
    p.significance = rng.Uniform(0.001, 0.5);
    variants.push_back(p);
  }
  return variants;
}

/// Mixed query traffic over many bound-param variants racing dataset
/// reloads: every request either serves from a plan keyed to a consistent
/// {tables, epoch} snapshot with its own params bound, or reports the
/// transient not-loaded window — never a crash, a stale mix, or a wrong
/// answer. After the churn settles, the cache holds exactly one plan per
/// (query, shape) of the current epoch.
TEST(PlanCacheStressTest, QueryTrafficRacesReloads) {
  plan::PlanEngine engine;
  ASSERT_TRUE(engine.LoadDataset(TinyData()).ok());
  const std::vector<QueryParams> variants = BoundParamVariants();

  // Legacy answers per (query, variant): the whole planned answer must
  // equal them bit for bit. The dataset is identical across reloads, so
  // every successful answer must match regardless of which epoch served it.
  std::vector<std::vector<core::QueryResult>> expected;
  {
    ExecContext ctx;
    engine.PrepareContext(&ctx);
    for (const QueryId q : core::kAllQueries) {
      expected.emplace_back();
      for (const QueryParams& p : variants) {
        expected.back().push_back(LegacyAnswer(q, p));
        auto r = engine.RunQuery(q, p, &ctx);
        ASSERT_TRUE(r.ok()) << core::QueryName(q) << ": "
                            << r.status().ToString();
        ASSERT_TRUE(testutil::BitwiseEqual(*r, expected.back().back()));
      }
    }
  }
  EXPECT_EQ(engine.cached_plans(), kShapesPerEpoch);

  constexpr int kClients = 6;
  constexpr int kRoundsPerClient = 24;
  constexpr int kReloads = 8;
  std::atomic<bool> done{false};
  std::atomic<int> wrong_answers{0};
  std::atomic<int> unexpected_errors{0};
  std::atomic<int> served{0};

  stress::Hammer(kClients + 1, [&](int t) {
    if (t == kClients) {  // Reloader thread.
      for (int i = 0; i < kReloads; ++i) {
        GENBASE_CHECK(engine.LoadDataset(TinyData()).ok());
      }
      done.store(true, std::memory_order_release);
      return;
    }
    uint64_t rng = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(t + 1);
    const auto attempt = [&](QueryId q, bool must_serve) {
      const size_t v = stress::NextRand(&rng) % variants.size();
      ExecContext ctx;
      engine.PrepareContext(&ctx);
      auto r = engine.RunQuery(q, variants[v], &ctx);
      if (r.ok()) {
        served.fetch_add(1, std::memory_order_relaxed);
        const auto& exp = expected[static_cast<size_t>(q) - 1][v];
        if (!testutil::BitwiseEqual(*r, exp)) {
          wrong_answers.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (must_serve ||
                 r.status().code() != StatusCode::kInternal) {
        // The only acceptable failure is the transient unloaded window
        // inside a reload swap — and only while the reloader is active.
        unexpected_errors.fetch_add(1, std::memory_order_relaxed);
      }
    };
    const auto random_query = [&] {
      return core::kAllQueries[stress::NextRand(&rng) %
                               (sizeof(core::kAllQueries) /
                                sizeof(core::kAllQueries[0]))];
    };
    int round = 0;
    while (round < kRoundsPerClient || !done.load(std::memory_order_acquire)) {
      attempt(random_query(), /*must_serve=*/false);
      ++round;
      if (round > kRoundsPerClient * 50) break;  // Reloader starvation guard.
    }
    // Once the churn has ended the dataset stays loaded, so one more request
    // must serve — guarantees coverage even if every raced round happened to
    // land inside a reload window. The guard above can trip while the
    // reloader is still active (failed rounds are much cheaper than
    // reloads), so wait for it before the guaranteed attempt.
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    attempt(random_query(), /*must_serve=*/true);
  });

  EXPECT_EQ(wrong_answers.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(unexpected_errors.load(std::memory_order_relaxed), 0);
  EXPECT_GE(served.load(std::memory_order_relaxed), kClients);

  // Settle: one pass over every query and variant on the final epoch, then
  // the cache must hold exactly one plan per (query, shape) — older epochs
  // evicted, bound-param variants sharing their shape's plan.
  ExecContext ctx;
  engine.PrepareContext(&ctx);
  for (const QueryId q : core::kAllQueries) {
    for (const QueryParams& p : variants) {
      auto r = engine.RunQuery(q, p, &ctx);
      ASSERT_TRUE(r.ok()) << core::QueryName(q) << ": "
                          << r.status().ToString();
    }
  }
  EXPECT_EQ(engine.cached_plans(), kShapesPerEpoch);
  EXPECT_EQ(plan::PlanMetrics::Get().peak_mismatches->Value(), 0);
}

}  // namespace
}  // namespace genbase
