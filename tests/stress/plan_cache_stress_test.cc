// Plan-cache stress: the single-flight compile path, the pooled-arena
// execute path and epoch eviction all run concurrently in the serving tier,
// so they are hammered here the way serving would — a stampede of clients
// on one key, a mixed workload racing dataset reloads, and a pile-up of
// executions on one cached plan. Outcomes asserted are deterministic even
// though the interleavings are not.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/exec_context.h"
#include "common/rng.h"
#include "core/datasets.h"
#include "core/generator.h"
#include "core/queries.h"
#include "engine/engine_util.h"
#include "plan/plan_engine.h"
#include "plan/plan_stats.h"
#include "tests/bitwise_result.h"
#include "tests/stress/stress_util.h"

namespace genbase {
namespace {

using core::DatasetSize;
using core::GenBaseData;
using core::QueryId;
using core::QueryParams;

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

/// The legacy column-store answer for `q` under `params` on its own
/// columnar copy of the tiny dataset.
core::QueryResult LegacyAnswer(QueryId q, const QueryParams& params) {
  static const auto* tables = [] {
    static MemoryTracker tracker(MemoryTracker::kUnlimited, "StressTables");
    auto* t = new engine::ColumnarTables();
    GENBASE_CHECK(engine::LoadColumnarTables(TinyData(), &tracker, t).ok());
    return t;
  }();
  MemoryTracker tracker(MemoryTracker::kUnlimited, "StressLegacy");
  ExecContext ctx;
  ctx.set_memory(&tracker);
  auto inputs = engine::PrepareInputsColumnar(*tables, q, params, &ctx);
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
  const plan::PlanStatsSnapshot before = plan::PlanStatsSnapshot::Capture();

  constexpr int kThreads = 8;
  std::atomic<int> successes{0};
  stress::Hammer(kThreads, [&](int) {
    ExecContext ctx;
    engine.PrepareContext(&ctx);
    auto r = engine.RunQuery(QueryId::kCovariance, TinyParams(), &ctx);
    if (r.ok()) successes.fetch_add(1, std::memory_order_relaxed);
  });

  const plan::PlanStatsSnapshot delta =
      plan::PlanStatsSnapshot::Capture() - before;
  EXPECT_EQ(successes.load(std::memory_order_relaxed), kThreads);
  EXPECT_EQ(delta.compiles, 1) << "single-flight leaked extra compiles";
  EXPECT_EQ(delta.cache_hits, kThreads - 1);
  EXPECT_EQ(delta.executes, kThreads);
  EXPECT_EQ(delta.peak_mismatches, 0);
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
  const plan::PlanStatsSnapshot before = plan::PlanStatsSnapshot::Capture();

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
  EXPECT_EQ((plan::PlanStatsSnapshot::Capture() - before).peak_mismatches,
            0);
  EXPECT_EQ(engine.cached_plans(), 1);
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
  EXPECT_EQ(plan::PlanStatsSnapshot::Capture().peak_mismatches, 0);
}

}  // namespace
}  // namespace genbase
