#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "engine/engines.h"
#include "obs/trace.h"
#include "plan/plan_engine.h"
#include "serving/faults.h"
#include "serving/serving_stack.h"
#include "workload/latency_histogram.h"
#include "workload/report.h"
#include "workload/runner.h"
#include "workload/workload_spec.h"
#include "tiny_data.h"  // Same directory.

namespace genbase::workload {
namespace {

using testutil::TinyData;
using testutil::TinyParams;

// --- latency histogram ------------------------------------------------------

TEST(LatencyHistogramTest, ExactStatsAndBucketedPercentiles) {
  LatencyHistogram h;
  // 1ms .. 1000ms, uniformly.
  for (int i = 1; i <= 1000; ++i) h.Record(i * 1e-3);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  EXPECT_NEAR(h.sum(), 500.5, 1e-9);
  EXPECT_NEAR(h.mean(), 0.5005, 1e-9);
  // Buckets grow by 5%, so percentiles resolve within ~5% relative error.
  EXPECT_NEAR(h.Percentile(50), 0.5, 0.5 * 0.06);
  EXPECT_NEAR(h.Percentile(90), 0.9, 0.9 * 0.06);
  EXPECT_NEAR(h.Percentile(99), 0.99, 0.99 * 0.06);
  // Extremes are exact.
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1e-3);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1.0);
}

TEST(LatencyHistogramTest, EmptyAndSingle) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  h.Record(0.25);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.25);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.25);
}

TEST(LatencyHistogramTest, ExtremePercentilesAreExact) {
  // p100 must return the tracked max even when the max sits above its
  // bucket's geometric midpoint (0.98 does), and p0 the tracked min.
  LatencyHistogram h;
  h.Record(0.001);
  h.Record(0.98);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 0.98);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 0.001);
}

TEST(LatencyHistogramTest, SingleSampleIsExactAtEveryPercentile) {
  LatencyHistogram h;
  h.Record(0.0375);
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(p), 0.0375) << p;
  }
}

TEST(LatencyHistogramTest, ValuesAtTheMicrosecondFloorAreExact) {
  // 1us is the bottom of the tracked range; values at (and below) it land
  // in the clamp bucket but min/max/percentile extremes stay exact.
  LatencyHistogram h;
  h.Record(1e-6);
  h.Record(1e-6);
  h.Record(5e-7);  // Below the floor: clamps, never crashes.
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.min(), 5e-7);
  EXPECT_DOUBLE_EQ(h.max(), 1e-6);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 5e-7);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1e-6);
  // Mid percentiles resolve within the clamp bucket, bounded by min/max.
  EXPECT_GE(h.Percentile(50), h.min());
  EXPECT_LE(h.Percentile(50), h.max());
}

TEST(LatencyHistogramTest, MergeIntoEmptyMatchesSource) {
  LatencyHistogram empty, filled;
  filled.Record(0.002);
  filled.Record(0.2);
  filled.Record(0.02);
  empty.Merge(filled);
  EXPECT_EQ(empty.count(), filled.count());
  EXPECT_DOUBLE_EQ(empty.sum(), filled.sum());
  EXPECT_DOUBLE_EQ(empty.min(), filled.min());
  EXPECT_DOUBLE_EQ(empty.max(), filled.max());
  for (double p : {0.0, 50.0, 100.0}) {
    EXPECT_DOUBLE_EQ(empty.Percentile(p), filled.Percentile(p)) << p;
  }
  // Merging an empty histogram in is a no-op.
  LatencyHistogram still_empty;
  empty.Merge(still_empty);
  EXPECT_EQ(empty.count(), 3);
  EXPECT_DOUBLE_EQ(empty.max(), 0.2);
}

TEST(LatencyHistogramTest, MergedHistogramKeepsExactExtremes) {
  // p0/p100 of a merged histogram are the cross-source min/max even when
  // those values sit away from their buckets' midpoints.
  LatencyHistogram a, b;
  a.Record(0.0011);
  a.Record(0.47);
  b.Record(0.98);
  b.Record(0.003);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Percentile(0), 0.0011);
  EXPECT_DOUBLE_EQ(a.Percentile(100), 0.98);
}

TEST(LatencyHistogramTest, QuantileEdgeCases) {
  LatencyHistogram h;
  // Empty: every quantile is a defined 0, not a read of stale min/max.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 0.0);
  h.Record(0.2);
  h.Record(0.4);
  // Extremes are tracked exactly, outside the bucket resolution.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.2);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 0.4);
  // Out-of-range q clamps instead of producing nonsense ranks.
  EXPECT_DOUBLE_EQ(h.Quantile(-3.0), 0.2);
  EXPECT_DOUBLE_EQ(h.Quantile(7.0), 0.4);
  // Percentile is a thin delegate: p on [0,100] == q on [0,1].
  EXPECT_DOUBLE_EQ(h.Percentile(100), h.Quantile(1.0));
  EXPECT_DOUBLE_EQ(h.Percentile(50), h.Quantile(0.5));
}

TEST(LatencyHistogramTest, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, combined;
  for (int i = 1; i <= 100; ++i) {
    const double v = i * 2e-3;
    (i % 2 == 0 ? a : b).Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), combined.Percentile(p)) << p;
  }
}

// --- schedule ---------------------------------------------------------------

TEST(WorkloadSpecTest, ValidateRejectsBadSpecs) {
  WorkloadSpec spec;
  EXPECT_TRUE(spec.Validate().ok());
  spec.clients = 0;
  EXPECT_FALSE(spec.Validate().ok());
  spec = WorkloadSpec();
  spec.measured_ops = 0;
  EXPECT_FALSE(spec.Validate().ok());
  spec = WorkloadSpec();
  spec.model = ClientModel::kOpenLoopPoisson;
  spec.arrival_rate_qps = 0;
  EXPECT_FALSE(spec.Validate().ok());
  spec = WorkloadSpec();
  spec.mix = {{core::QueryId::kRegression, -1.0}};
  EXPECT_FALSE(spec.Validate().ok());
  spec = WorkloadSpec();
  spec.param_variants = 0;
  EXPECT_FALSE(spec.Validate().ok());
}

TEST(WorkloadSpecTest, VariantParamsAreDeterministicMildAndDistinct) {
  const core::QueryParams base;
  // Variant 0 is the base itself.
  const core::QueryParams v0 = VariantParams(base, 0);
  EXPECT_EQ(v0.function_threshold, base.function_threshold);
  EXPECT_DOUBLE_EQ(v0.covariance_quantile, base.covariance_quantile);
  // Same variant twice -> same params; adjacent variants differ.
  const core::QueryParams a = VariantParams(base, 3);
  const core::QueryParams b = VariantParams(base, 3);
  EXPECT_EQ(a.function_threshold, b.function_threshold);
  EXPECT_EQ(a.max_age, b.max_age);
  const core::QueryParams c = VariantParams(base, 4);
  EXPECT_TRUE(a.function_threshold != c.function_threshold ||
              a.covariance_quantile != c.covariance_quantile ||
              a.max_age != c.max_age || a.svd_rank != c.svd_rank);
  // Every variant stays in ranges valid at tiny test scales.
  for (int v = 0; v < 64; ++v) {
    const core::QueryParams p = VariantParams(base, v);
    EXPECT_GE(p.function_threshold, 64) << v;
    EXPECT_GE(p.covariance_quantile, 0.5) << v;
    EXPECT_LE(p.covariance_quantile, 0.99) << v;
    EXPECT_GE(p.svd_rank, 2) << v;
    EXPECT_GE(p.max_age, base.max_age) << v;
  }
}

TEST(WorkloadSpecTest, ScheduleDrawsVariantsAcrossTheRange) {
  WorkloadSpec spec;
  spec.param_variants = 4;
  spec.measured_ops = 2000;
  const auto schedule = BuildSchedule(spec);
  std::map<int, int> counts;
  for (const auto& op : schedule) {
    ASSERT_GE(op.variant, 0);
    ASSERT_LT(op.variant, 4);
    ++counts[op.variant];
  }
  EXPECT_EQ(counts.size(), 4u);  // All variants appear.
  // Default of one variant pins everything to variant 0.
  spec.param_variants = 1;
  for (const auto& op : BuildSchedule(spec)) EXPECT_EQ(op.variant, 0);
}

TEST(WorkloadSpecTest, ScheduleIsDeterministic) {
  WorkloadSpec spec;
  spec.measured_ops = 500;
  spec.warmup_ops = 20;
  spec.model = ClientModel::kOpenLoopPoisson;
  spec.arrival_rate_qps = 100;
  spec.seed = 7;
  const auto a = BuildSchedule(spec);
  const auto b = BuildSchedule(spec);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 520u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query, b[i].query) << i;
    EXPECT_DOUBLE_EQ(a[i].arrival_offset_s, b[i].arrival_offset_s) << i;
  }
  // A different seed produces a different sequence.
  spec.seed = 8;
  const auto c = BuildSchedule(spec);
  int diffs = 0;
  for (size_t i = 0; i < a.size(); ++i) diffs += a[i].query != c[i].query;
  EXPECT_GT(diffs, 0);
}

TEST(WorkloadSpecTest, MixProportionsMatchWeights) {
  WorkloadSpec spec;
  spec.mix = {
      {core::QueryId::kRegression, 6},
      {core::QueryId::kCovariance, 3},
      {core::QueryId::kStatistics, 1},
  };
  spec.measured_ops = 20000;
  spec.warmup_ops = 0;
  spec.seed = 123;
  const auto schedule = BuildSchedule(spec);
  std::map<core::QueryId, int> counts;
  for (const auto& op : schedule) ++counts[op.query];
  EXPECT_EQ(counts.size(), 3u);
  EXPECT_NEAR(counts[core::QueryId::kRegression] / 20000.0, 0.6, 0.02);
  EXPECT_NEAR(counts[core::QueryId::kCovariance] / 20000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[core::QueryId::kStatistics] / 20000.0, 0.1, 0.02);
}

TEST(WorkloadSpecTest, OpenLoopArrivalsAreMonotoneAtTargetRate) {
  WorkloadSpec spec;
  spec.model = ClientModel::kOpenLoopUniform;
  spec.arrival_rate_qps = 200;
  spec.measured_ops = 400;
  const auto schedule = BuildSchedule(spec);
  for (size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_GT(schedule[i].arrival_offset_s, schedule[i - 1].arrival_offset_s);
  }
  // 400 ops at 200 qps span ~2 seconds.
  EXPECT_NEAR(schedule.back().arrival_offset_s, 2.0, 1e-9);
}

TEST(WorkloadSpecTest, OpenLoopOffsetsRebaseAtWarmupBoundary) {
  WorkloadSpec spec;
  spec.model = ClientModel::kOpenLoopUniform;
  spec.arrival_rate_qps = 100;
  spec.warmup_ops = 100;
  spec.measured_ops = 100;
  const auto schedule = BuildSchedule(spec);
  ASSERT_EQ(schedule.size(), 200u);
  // Warm-up ops issue immediately; the first measured op arrives one
  // interarrival after the measured phase starts, not warmup_ops/rate later.
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(schedule[i].arrival_offset_s, 0.0) << i;
  }
  EXPECT_NEAR(schedule[100].arrival_offset_s, 0.01, 1e-12);
  EXPECT_NEAR(schedule.back().arrival_offset_s, 1.0, 1e-9);
}

TEST(WorkloadSpecTest, ZeroWeightQueriesAreNeverScheduled) {
  WorkloadSpec spec;
  spec.mix = {
      {core::QueryId::kRegression, 1.0},
      {core::QueryId::kBiclustering, 0.0},
  };
  spec.measured_ops = 5000;
  const auto schedule = BuildSchedule(spec);
  for (const auto& op : schedule) {
    EXPECT_EQ(op.query, core::QueryId::kRegression);
  }
}

TEST(WorkloadSpecTest, AllZeroWeightsFallBackToUniform) {
  // Validate() rejects this spec, but BuildSchedule is a pure function
  // callable directly; it must degrade to the uniform mix, never schedule a
  // run of only the (excluded) last entry.
  WorkloadSpec spec;
  spec.mix = {
      {core::QueryId::kRegression, 0.0},
      {core::QueryId::kBiclustering, 0.0},
  };
  spec.measured_ops = 1000;
  const auto schedule = BuildSchedule(spec);
  std::map<core::QueryId, int> counts;
  for (const auto& op : schedule) ++counts[op.query];
  EXPECT_EQ(counts.size(), 5u);  // Uniform over Q1..Q5.
}

// --- runner smoke run -------------------------------------------------------

WorkloadSpec SmokeSpec() {
  WorkloadSpec spec;
  spec.name = "smoke";
  spec.params = TinyParams();
  spec.size = core::DatasetSize::kSmall;
  spec.clients = 4;
  spec.warmup_ops = 4;
  spec.measured_ops = 32;
  spec.seed = 99;
  spec.verify = true;
  return spec;
}

TEST(WorkloadRunnerTest, SmokeRunFourClientsVerifiesAgainstReference) {
  auto engine = engine::CreateColumnStoreUdf();
  WorkloadRunner runner(SmokeSpec());
  auto report = runner.Run(engine.get(), TinyData());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->clients, 4);
  EXPECT_EQ(report->total.ops, 32);
  EXPECT_EQ(report->total.errors, 0);
  EXPECT_EQ(report->total.infs, 0);
  EXPECT_EQ(report->total.verify_failures, 0);
  EXPECT_EQ(report->total.latency.count(), 32);
  EXPECT_GT(report->wall_seconds, 0.0);
  EXPECT_GT(report->achieved_qps(), 0.0);
  int64_t per_query_ops = 0;
  for (const auto& [query, stats] : report->per_query) {
    per_query_ops += stats.ops;
    EXPECT_EQ(stats.errors, 0) << core::QueryName(query);
    EXPECT_EQ(stats.verify_failures, 0) << core::QueryName(query);
  }
  EXPECT_EQ(per_query_ops, 32);
}

TEST(WorkloadRunnerTest, RepeatedRunsHaveIdenticalCountsAndMix) {
  auto spec = SmokeSpec();
  std::map<core::QueryId, int64_t> first;
  for (int run = 0; run < 2; ++run) {
    auto engine = engine::CreateSciDb();
    WorkloadRunner runner(spec);
    auto report = runner.Run(engine.get(), TinyData());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->total.ops, spec.measured_ops);
    std::map<core::QueryId, int64_t> counts;
    for (const auto& [query, stats] : report->per_query) {
      counts[query] = stats.ops;
    }
    if (run == 0) {
      first = counts;
    } else {
      EXPECT_EQ(first, counts);
    }
  }
}

TEST(WorkloadRunnerTest, UnsupportedQueriesCountAsErrors) {
  // Postgres+Madlib lacks biclustering; a bicluster-only mix must complete
  // with every op flagged as an error, not crash or hang.
  auto engine = engine::CreatePostgresMadlib();
  auto spec = SmokeSpec();
  spec.mix = {{core::QueryId::kBiclustering, 1.0}};
  spec.measured_ops = 8;
  spec.warmup_ops = 0;
  spec.verify = false;
  WorkloadRunner runner(spec);
  auto report = runner.Run(engine.get(), TinyData());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  if (!engine->SupportsQuery(core::QueryId::kBiclustering)) {
    EXPECT_EQ(report->total.errors, 8);
    // All-failure runs report zero goodput and an empty latency
    // distribution, not ~0ms percentiles at a positive qps.
    EXPECT_EQ(report->total.latency.count(), 0);
    EXPECT_DOUBLE_EQ(report->achieved_qps(), 0.0);
  }
}

TEST(WorkloadRunnerTest, OpenLoopPoissonSmoke) {
  auto engine = engine::CreateSciDb();
  auto spec = SmokeSpec();
  spec.model = ClientModel::kOpenLoopPoisson;
  spec.arrival_rate_qps = 500;  // Fast arrivals; run bounded by ops budget.
  spec.measured_ops = 16;
  WorkloadRunner runner(spec);
  auto report = runner.Run(engine.get(), TinyData());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->total.ops, 16);
  EXPECT_EQ(report->total.errors, 0);
  EXPECT_EQ(report->total.verify_failures, 0);
  EXPECT_DOUBLE_EQ(report->offered_qps, 500);
}

TEST(WorkloadRunnerTest, OpenLoopLatencyIsCoordinatedOmissionCorrected) {
  // Arrivals far outpace 2 clients: ops issue behind schedule, and the
  // honest latency of a late op runs from its *scheduled* arrival. The
  // queueing share (dispatch lag) is recorded in its own histogram, so
  // latency >= queue delay sample-for-sample (service time is the rest).
  auto engine = engine::CreateSciDb();
  auto spec = SmokeSpec();
  spec.model = ClientModel::kOpenLoopUniform;
  spec.arrival_rate_qps = 4000;
  spec.clients = 2;
  spec.measured_ops = 24;
  spec.warmup_ops = 0;
  WorkloadRunner runner(spec);
  auto report = runner.Run(engine.get(), TinyData());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->total.ops, 24);
  ASSERT_EQ(report->total.errors, 0);
  // Every served success has both a latency and a queue-delay sample.
  EXPECT_EQ(report->total.queue_delay.count(),
            report->total.latency.count());
  // With 24 ops scheduled inside 6ms against 2 clients, the backlog is
  // real: queueing delay must have been observed...
  EXPECT_GT(report->total.queue_delay.max(), 0.0);
  // ...and CO-corrected latency dominates both of its components.
  EXPECT_GE(report->total.latency.max(),
            report->total.queue_delay.max());
  EXPECT_GE(report->total.latency.sum(),
            report->total.queue_delay.sum());
}

// --- shared truth tables ----------------------------------------------------

TEST(WorkloadRunnerTest, VerifyOffComparesNothing) {
  // Every installed truth is wrong (an empty result matches no query), so
  // any comparison would count a failure and spend verify-stage time.
  WorkloadRunner::TruthTable wrong;
  for (core::QueryId q : core::kAllQueries) {
    wrong[{q, 0}] = core::QueryResult();
  }
  auto spec = SmokeSpec();
  spec.verify = false;
  WorkloadRunner runner(spec);
  runner.set_truths(&wrong);
  auto engine = engine::CreateColumnStoreUdf();
  auto report = runner.Run(engine.get(), TinyData());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->total.errors, 0);
  EXPECT_EQ(report->total.verify_failures, 0);
  const int verify = static_cast<int>(obs::RequestStage::kVerify);
  EXPECT_EQ(report->total.stage[verify].sum(), 0.0);
  EXPECT_EQ(wrong.size(), std::size(core::kAllQueries));  // Nothing added.
}

TEST(WorkloadRunnerTest, RunnersSharingATruthTableComputeEachTruthOnce) {
  auto spec = SmokeSpec();
  spec.param_variants = 2;
  std::set<WorkloadRunner::TruthKey> measured_keys;
  const std::vector<ScheduledOp> schedule = BuildSchedule(spec);
  for (size_t i = static_cast<size_t>(spec.warmup_ops); i < schedule.size();
       ++i) {
    measured_keys.insert({schedule[i].query, schedule[i].variant});
  }

  WorkloadRunner::TruthTable table;
  {
    auto engine = engine::CreateSciDb();
    WorkloadRunner runner(spec);
    runner.set_truths(&table);
    auto report = runner.Run(engine.get(), TinyData());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->total.verify_failures, 0);
  }
  std::set<WorkloadRunner::TruthKey> table_keys;
  for (const auto& [key, truth] : table) table_keys.insert(key);
  EXPECT_EQ(table_keys, measured_keys);

  // Corrupt one truth: a second runner that reads the table (rather than
  // recomputing it) fails exactly the measured ops with that key.
  const WorkloadRunner::TruthKey corrupted = table.begin()->first;
  table[corrupted] = core::QueryResult();
  int64_t corrupted_ops = 0;
  for (size_t i = static_cast<size_t>(spec.warmup_ops); i < schedule.size();
       ++i) {
    if (WorkloadRunner::TruthKey{schedule[i].query, schedule[i].variant} ==
        corrupted) {
      ++corrupted_ops;
    }
  }
  ASSERT_GT(corrupted_ops, 0);
  auto engine = engine::CreateSciDb();
  WorkloadRunner runner(spec);
  runner.set_truths(&table);
  auto report = runner.Run(engine.get(), TinyData());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->total.errors, 0);
  EXPECT_EQ(table.size(), measured_keys.size());
  EXPECT_EQ(report->total.verify_failures, corrupted_ops);
}

// --- tracing + per-stage breakdown ------------------------------------------

/// Scoped sample-rate override; restores the global rate on exit so these
/// tests do not leak a 100% rate into unrelated tests.
class ScopedSampleRate {
 public:
  explicit ScopedSampleRate(double rate)
      : saved_(obs::Tracer::Global().sample_rate()) {
    obs::Tracer::Global().set_sample_rate(rate);
  }
  ~ScopedSampleRate() { obs::Tracer::Global().set_sample_rate(saved_); }

 private:
  double saved_;
};

serving::ServingOptions TestServingOptions() {
  serving::ServingOptions options;
  options.shards = 2;
  options.cache_enabled = true;
  return options;
}

TEST(WorkloadRunnerTest, StageBreakdownSumsToEndToEndLatency) {
  auto stack = serving::ServingStack::Create(
      TestServingOptions(), engine::CreateColumnStoreUdf, TinyData());
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  WorkloadRunner runner(SmokeSpec());
  auto report = runner.Run(stack.ValueOrDie().get(), TinyData());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->total.errors, 0);
  ASSERT_EQ(report->total.verify_failures, 0);

  const OpStats& total = report->total;
  // Every successful op contributes one sample to every stage histogram
  // (zero-duration stages record 0) and one end-to-end sample.
  EXPECT_EQ(total.e2e_latency.count(), total.latency.count());
  for (int s = 0; s < obs::kNumRequestStages; ++s) {
    EXPECT_EQ(total.stage[s].count(), total.latency.count())
        << obs::RequestStageName(static_cast<obs::RequestStage>(s));
  }
  // Stage seconds partition the end-to-end seconds: summed over the run,
  // the six stages must reproduce e2e within float accumulation noise.
  double stage_sum = 0.0;
  for (int s = 0; s < obs::kNumRequestStages; ++s) {
    stage_sum += total.stage[s].sum();
  }
  EXPECT_NEAR(stage_sum, total.e2e_latency.sum(),
              1e-9 * std::max<double>(1, total.e2e_latency.count()));
  // e2e = latency + verify, and verification really ran (spec.verify).
  EXPECT_NEAR(total.e2e_latency.sum(),
              total.latency.sum() + total.stage[static_cast<int>(
                                        obs::RequestStage::kVerify)].sum(),
              1e-9 * std::max<double>(1, total.e2e_latency.count()));
  EXPECT_GT(
      total.stage[static_cast<int>(obs::RequestStage::kVerify)].sum(), 0.0);
  // queue + flight == queue_delay, summed.
  EXPECT_NEAR(
      total.stage[static_cast<int>(obs::RequestStage::kQueue)].sum() +
          total.stage[static_cast<int>(obs::RequestStage::kFlight)].sum(),
      total.queue_delay.sum(),
      1e-9 * std::max<double>(1, total.e2e_latency.count()));
}

TEST(WorkloadRunnerTest, SpansNestUnderConcurrentServingRun) {
  ScopedSampleRate rate(1.0);  // Sample everything: structure, not cost.
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.TakeCollected();  // Drain spans left by earlier tests.
  tracer.TakeSlowQueries();
  const int64_t dropped_before = tracer.spans_dropped();

  auto stack = serving::ServingStack::Create(
      TestServingOptions(), engine::CreateColumnStoreUdf, TinyData());
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  WorkloadRunner runner(SmokeSpec());
  auto report = runner.Run(stack.ValueOrDie().get(), TinyData());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const std::vector<obs::Span> spans = tracer.TakeCollected();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(tracer.spans_dropped(), dropped_before);

  // Index spans by (trace, span id); every parent reference must resolve
  // within its own trace, and every measured-phase trace has exactly one
  // root — the runner's "request" span.
  std::map<std::pair<uint64_t, uint64_t>, const obs::Span*> by_id;
  for (const obs::Span& s : spans) {
    EXPECT_NE(s.trace_id, 0u);
    by_id[{s.trace_id, s.span_id}] = &s;
  }
  std::map<uint64_t, int> roots;
  for (const obs::Span& s : spans) {
    if (s.parent_id == 0) {
      EXPECT_STREQ(s.name, "request");
      ++roots[s.trace_id];
      continue;
    }
    const auto parent = by_id.find({s.trace_id, s.parent_id});
    ASSERT_NE(parent, by_id.end())
        << s.name << " has a dangling parent id " << s.parent_id;
    // A child span never starts before its parent.
    EXPECT_GE(s.start_s, parent->second->start_s - 1e-9) << s.name;
  }
  const int measured_ops = SmokeSpec().measured_ops;
  EXPECT_EQ(static_cast<int>(roots.size()), measured_ops);
  for (const auto& [trace_id, count] : roots) {
    EXPECT_EQ(count, 1) << "trace " << trace_id;
  }

  // The slow-query log kept the slowest-N successful requests.
  const std::vector<obs::SlowQueryRecord> slow = tracer.TakeSlowQueries();
  ASSERT_FALSE(slow.empty());
  for (const obs::SlowQueryRecord& rec : slow) {
    EXPECT_TRUE(rec.slowest);
    EXPECT_GT(rec.latency_s, 0.0);
    EXPECT_EQ(rec.workload, "smoke");
  }
}

TEST(WorkloadRunnerTest, TraceSamplingIsDeterministicAcrossRuns) {
  ScopedSampleRate rate(0.5);
  obs::Tracer& tracer = obs::Tracer::Global();
  std::set<uint64_t> first_ids;
  for (int run = 0; run < 2; ++run) {
    tracer.TakeCollected();
    tracer.TakeSlowQueries();
    auto engine = engine::CreateSciDb();
    WorkloadRunner runner(SmokeSpec());
    auto report = runner.Run(engine.get(), TinyData());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    std::set<uint64_t> ids;
    for (const obs::Span& s : tracer.TakeCollected()) {
      // Skip tail-kept synthetic spans: which requests end up slowest-N is
      // timing-dependent by design; only head sampling is deterministic.
      if (!s.synthetic) ids.insert(s.trace_id);
    }
    ASSERT_FALSE(ids.empty());
    if (run == 0) {
      first_ids = ids;
    } else {
      // Same seed, same schedule, same hash: the sampled set is identical.
      EXPECT_EQ(first_ids, ids);
    }
  }
}

// --- report counter blocks -----------------------------------------------------

std::vector<std::string> Keys(const json::Value& object) {
  std::vector<std::string> keys;
  for (const auto& member : object.object) keys.push_back(member.first);
  return keys;
}

TEST(WorkloadReportTest, CounterBlocksCoverOnlyTheMeasuredPhase) {
  // One client, so the schedule, the fault ticks and every retry draw are
  // deterministic. The crash fires during the six warm-up ops and the
  // recover inside the measured phase: a report that leaked warm-up counts
  // would show the crash too.
  auto script = serving::FaultScript::Parse(
      "seed 7\n@3 crash 1\n@9 recover 1\n@0..200 error * 0.2\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto injector = serving::FaultInjector::Create(*script);
  ASSERT_TRUE(injector.ok()) << injector.status().ToString();
  serving::ServingOptions options;
  options.shards = 2;
  options.cache_enabled = true;
  options.single_flight = true;
  options.admission.max_inflight = 2;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff_s = 0.0;
  options.fault_injector = injector->get();
  auto stack = serving::ServingStack::Create(options, plan::CreatePlanStore,
                                             TinyData());
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();

  WorkloadSpec spec;
  spec.name = "report-blocks";
  spec.params = TinyParams();
  spec.size = core::DatasetSize::kSmall;
  spec.clients = 1;
  spec.warmup_ops = 6;
  spec.measured_ops = 40;
  spec.param_variants = 3;
  WorkloadRunner runner(spec);
  auto report = runner.Run(stack->get(), TinyData());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto doc = json::Parse(report->ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* serving = doc->Find("serving");
  ASSERT_NE(serving, nullptr);
  using Names = std::vector<std::string>;
  EXPECT_EQ(Keys(*serving),
            (Names{"cache", "admission", "single_flight", "retry", "faults",
                   "stale_hits", "reloads", "shards"}));
  const json::Value& cache = *serving->Find("cache");
  EXPECT_EQ(Keys(cache),
            (Names{"hits", "misses", "hit_ratio", "insertions", "evictions",
                   "invalidated", "rejected_oversize", "entries", "bytes"}));
  const json::Value& admission = *serving->Find("admission");
  EXPECT_EQ(Keys(admission),
            (Names{"admitted", "shed_queue_full", "shed_timeout",
                   "shed_brownout", "peak_queue", "current_limit",
                   "shed_by_class"}));
  // One client under a two-slot limit never sheds.
  EXPECT_EQ(Keys(*admission.Find("shed_by_class")), Names{});
  EXPECT_EQ(Keys(*serving->Find("single_flight")),
            (Names{"leaders", "coalesced", "coalesced_served",
                   "follower_fallbacks", "shed_wait_timeout"}));
  const json::Value& retry = *serving->Find("retry");
  EXPECT_EQ(Keys(retry),
            (Names{"retries", "retry_successes",
                   "retry_deadline_giveups"}));
  const json::Value& faults = *serving->Find("faults");
  EXPECT_EQ(Keys(faults),
            (Names{"crashes", "recoveries", "latency_spikes",
                   "transient_errors", "reload_failures"}));
  const json::Value& shards = *serving->Find("shards");
  ASSERT_EQ(shards.array.size(), 2u);
  for (const json::Value& shard : shards.array) {
    EXPECT_EQ(Keys(shard), (Names{"ops", "errors", "infs", "busy_s",
                                  "breaker_opens", "health"}));
  }
  const json::Value* plan = doc->Find("plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(Keys(*plan), (Names{"compiles", "cache_hits", "executes",
                                "compile_ns", "peak_mismatches",
                                "peak_bytes"}));

  EXPECT_EQ(faults.NumberOr("crashes", -1), 0);
  EXPECT_EQ(faults.NumberOr("recoveries", -1), 1);
  EXPECT_EQ(cache.NumberOr("hits", -1) + cache.NumberOr("misses", -1), 40);
  double shard_ops = 0;
  double shard_errors = 0;
  for (const json::Value& shard : shards.array) {
    shard_ops += shard.NumberOr("ops", -1);
    shard_errors += shard.NumberOr("errors", -1);
  }
  // Every admitted miss runs one attempt plus its retries; every shard
  // error is an injected transient one (the crashed shard is routed
  // around).
  EXPECT_EQ(shard_ops, admission.NumberOr("admitted", -1) +
                           retry.NumberOr("retries", -1));
  EXPECT_EQ(faults.NumberOr("transient_errors", -1), shard_errors);

  testing::internal::CaptureStdout();
  report->Print();
  std::fflush(stdout);
  const std::string text = testing::internal::GetCapturedStdout();
  for (const char* line :
       {"  serving cache: ", "  serving admission: ",
        "  serving single_flight: ", "  serving retry: ", "  serving faults: ",
        "    shard 0: ", "    shard 1: ", "  plan: "}) {
    EXPECT_NE(text.find(std::string("\n") + line), std::string::npos)
        << line << "\n" << text;
  }
}

}  // namespace
}  // namespace genbase::workload
