#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/verify.h"
#include "engine/engines.h"
#include "obs/metrics.h"
#include "serving/admission.h"
#include "serving/faults.h"
#include "serving/result_cache.h"
#include "serving/shard_router.h"
#include "serving/serving_stack.h"
#include "workload/runner.h"
#include "tiny_data.h"  // Same directory.

namespace genbase::serving {
namespace {

using testutil::TinyData;
using testutil::TinyParams;

core::DriverOptions TinyOptions() {
  core::DriverOptions options;
  options.timeout_seconds = 30.0;
  options.params = TinyParams();
  return options;
}

/// A fresh registry instance label, so each test's components count alone.
std::string NewInstance() {
  return obs::MetricsRegistry::NextInstanceId("test");
}

/// A stopped window over `instances`: End() reads each instrument's total
/// since its (fresh) instance was created.
obs::MetricsWindow CountersNow(std::vector<std::string> instances) {
  obs::MetricsWindow window(std::move(instances));
  window.Stop();
  return window;
}

ShardHealth Health(const obs::MetricsWindow& counters, int shard) {
  return static_cast<ShardHealth>(static_cast<int>(counters.End(
      "serving_shard_health", {{"shard", std::to_string(shard)}})));
}

double ShardOps(const obs::MetricsWindow& counters, int shard) {
  return counters.End("serving_shard_ops_total",
                      {{"shard", std::to_string(shard)}});
}

// --- params fingerprint -----------------------------------------------------

TEST(FingerprintTest, EqualParamsShareAFingerprint) {
  core::QueryParams a, b;
  EXPECT_EQ(FingerprintParams(a), FingerprintParams(b));
}

TEST(FingerprintTest, EveryFieldChangesTheFingerprint) {
  const core::QueryParams base;
  const uint64_t h = FingerprintParams(base);
  core::QueryParams p = base;
  p.function_threshold += 1;
  EXPECT_NE(FingerprintParams(p), h);
  p = base;
  p.disease_id += 1;
  EXPECT_NE(FingerprintParams(p), h);
  p = base;
  p.covariance_quantile += 1e-9;
  EXPECT_NE(FingerprintParams(p), h);
  p = base;
  p.svd_rank += 1;
  EXPECT_NE(FingerprintParams(p), h);
  p = base;
  p.sample_fraction *= 2;
  EXPECT_NE(FingerprintParams(p), h);
}

TEST(FingerprintTest, EveryWorkloadVariantIsADistinctCacheKey) {
  // The contract behind hit-ratio sweeps: V variants => V distinct keys per
  // query, even past the period of the visible perturbations.
  const core::QueryParams base;
  std::set<uint64_t> fingerprints;
  for (int v = 0; v < 64; ++v) {
    fingerprints.insert(FingerprintParams(workload::VariantParams(base, v)));
  }
  EXPECT_EQ(fingerprints.size(), 64u);
}

// --- result cache -----------------------------------------------------------

core::QueryResult SvdResultWithValues(int n, double scale) {
  core::QueryResult r;
  r.query = core::QueryId::kSvd;
  for (int i = 0; i < n; ++i) {
    r.svd.singular_values.push_back(scale * (n - i));
  }
  return r;
}

CacheKey KeyWithFingerprint(uint64_t fp) {
  return CacheKey{core::QueryId::kSvd, fp, core::DatasetSize::kSmall};
}

TEST(ResultCacheTest, HitRefreshesRecencyAndEvictionIsLru) {
  const std::string instance = NewInstance();
  ResultCache cache(/*max_entries=*/2, /*max_bytes=*/1 << 20, instance);
  core::QueryResult out;
  EXPECT_FALSE(cache.Lookup(KeyWithFingerprint(1), &out));  // Miss.
  cache.Insert(KeyWithFingerprint(1), SvdResultWithValues(3, 1.0));
  cache.Insert(KeyWithFingerprint(2), SvdResultWithValues(3, 2.0));
  // Touch key 1 so key 2 is now the LRU entry.
  EXPECT_TRUE(cache.Lookup(KeyWithFingerprint(1), &out));
  EXPECT_DOUBLE_EQ(out.svd.singular_values[0], 3.0);
  cache.Insert(KeyWithFingerprint(3), SvdResultWithValues(3, 3.0));
  EXPECT_FALSE(cache.Lookup(KeyWithFingerprint(2), &out));  // Evicted.
  EXPECT_TRUE(cache.Lookup(KeyWithFingerprint(1), &out));
  EXPECT_TRUE(cache.Lookup(KeyWithFingerprint(3), &out));
  EXPECT_DOUBLE_EQ(out.svd.singular_values[0], 9.0);

  const obs::MetricsWindow stats = CountersNow({instance});
  EXPECT_EQ(stats.End("serving_cache_entries"), 2);
  EXPECT_EQ(stats.End("serving_cache_insertions_total"), 3);
  EXPECT_EQ(stats.End("serving_cache_evictions_total"), 1);
  const double hits = stats.End("serving_cache_hits_total");
  const double misses = stats.End("serving_cache_misses_total");
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(misses, 2);
  EXPECT_NEAR(hits / (hits + misses), 3.0 / 5.0, 1e-12);
}

TEST(ResultCacheTest, ByteBoundEvictsAndTracksBytes) {
  const int64_t one = ApproxResultBytes(SvdResultWithValues(64, 1.0));
  const std::string instance = NewInstance();
  ResultCache cache(/*max_entries=*/16, /*max_bytes=*/one + one / 2,
                    instance);
  cache.Insert(KeyWithFingerprint(1), SvdResultWithValues(64, 1.0));
  EXPECT_EQ(CountersNow({instance}).End("serving_cache_bytes"), one);
  cache.Insert(KeyWithFingerprint(2), SvdResultWithValues(64, 2.0));
  // Both do not fit; the older entry is evicted.
  const obs::MetricsWindow stats = CountersNow({instance});
  EXPECT_EQ(stats.End("serving_cache_entries"), 1);
  EXPECT_EQ(stats.End("serving_cache_evictions_total"), 1);
  EXPECT_EQ(stats.End("serving_cache_bytes"), one);
  core::QueryResult out;
  EXPECT_FALSE(cache.Lookup(KeyWithFingerprint(1), &out));
  EXPECT_TRUE(cache.Lookup(KeyWithFingerprint(2), &out));
}

TEST(ResultCacheTest, OversizedValueIsCountedAsRejected) {
  const std::string instance = NewInstance();
  ResultCache cache(/*max_entries=*/4, /*max_bytes=*/64, instance);
  cache.Insert(KeyWithFingerprint(1), SvdResultWithValues(64, 1.0));
  const obs::MetricsWindow stats = CountersNow({instance});
  EXPECT_EQ(stats.End("serving_cache_entries"), 0);
  EXPECT_EQ(stats.End("serving_cache_insertions_total"), 0);
  EXPECT_EQ(stats.End("serving_cache_rejected_oversize_total"), 1);
}

CacheKey KeyWithEpoch(uint64_t fp, uint64_t epoch) {
  CacheKey key = KeyWithFingerprint(fp);
  key.epoch = epoch;
  return key;
}

TEST(ResultCacheTest, EpochIsPartOfTheKey) {
  ResultCache cache(/*max_entries=*/8, /*max_bytes=*/1 << 20, NewInstance());
  cache.Insert(KeyWithEpoch(1, 1), SvdResultWithValues(3, 1.0));
  core::QueryResult out;
  // Same (query, fingerprint, size), later epoch: a distinct key — the
  // post-reload lookup cannot resolve pre-reload entries.
  EXPECT_FALSE(cache.Lookup(KeyWithEpoch(1, 2), &out));
  uint64_t entry_epoch = 0;
  EXPECT_TRUE(cache.Lookup(KeyWithEpoch(1, 1), &out, &entry_epoch));
  EXPECT_EQ(entry_epoch, 1u);
}

TEST(ResultCacheTest, InvalidateEpochsBelowRemovesExactlyOldEpochs) {
  const std::string instance = NewInstance();
  ResultCache cache(/*max_entries=*/16, /*max_bytes=*/1 << 20, instance);
  cache.Insert(KeyWithEpoch(1, 1), SvdResultWithValues(3, 1.0));
  cache.Insert(KeyWithEpoch(2, 1), SvdResultWithValues(3, 2.0));
  cache.Insert(KeyWithEpoch(3, 2), SvdResultWithValues(3, 3.0));
  EXPECT_EQ(cache.InvalidateEpochsBelow(2), 2);
  core::QueryResult out;
  EXPECT_FALSE(cache.Lookup(KeyWithEpoch(1, 1), &out));
  EXPECT_FALSE(cache.Lookup(KeyWithEpoch(2, 1), &out));
  EXPECT_TRUE(cache.Lookup(KeyWithEpoch(3, 2), &out));

  const obs::MetricsWindow stats = CountersNow({instance});
  EXPECT_EQ(stats.End("serving_cache_invalidated_total"), 2);
  EXPECT_EQ(stats.End("serving_cache_evictions_total"), 0);
  EXPECT_EQ(stats.End("serving_cache_entries"), 1);
  // The removal accounting reconciles.
  EXPECT_EQ(stats.End("serving_cache_entries"),
            stats.End("serving_cache_insertions_total") -
                stats.End("serving_cache_evictions_total") -
                stats.End("serving_cache_invalidated_total"));
}

// --- admission controller ---------------------------------------------------

TEST(AdmissionTest, DisabledControllerAdmitsEverything) {
  AdmissionController ac(AdmissionOptions{}, NewInstance());
  EXPECT_FALSE(ac.enabled());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ac.Admit(std::nullopt), AdmissionOutcome::kAdmitted);
  }
}

TEST(AdmissionTest, FullQueueShedsOnArrival) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = 0;
  const std::string instance = NewInstance();
  AdmissionController ac(options, instance);
  EXPECT_EQ(ac.Admit(std::nullopt), AdmissionOutcome::kAdmitted);
  // Slot busy and no queue slots: immediate shed, no blocking.
  EXPECT_EQ(ac.Admit(std::nullopt), AdmissionOutcome::kShedQueueFull);
  ac.Release();
  EXPECT_EQ(ac.Admit(std::nullopt), AdmissionOutcome::kAdmitted);
  ac.Release();
  const obs::MetricsWindow stats = CountersNow({instance});
  EXPECT_EQ(stats.End("serving_admission_admitted_total"), 2);
  EXPECT_EQ(stats.End("serving_admission_shed_queue_full_total"), 1);
  EXPECT_EQ(stats.End("serving_admission_shed_timeout_total"), 0);
}

TEST(AdmissionTest, QueuedOpShedsAtItsStartDeadline) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = 4;
  options.max_queue_delay_s = 1.0;  // Policy enabled; deadline passed in.
  const std::string instance = NewInstance();
  AdmissionController ac(options, instance);
  ASSERT_EQ(ac.Admit(std::nullopt), AdmissionOutcome::kAdmitted);
  double waited = 0;
  const auto outcome = ac.Admit(
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30),
      &waited);
  EXPECT_EQ(outcome, AdmissionOutcome::kShedTimeout);
  EXPECT_GE(waited, 0.02);
  ac.Release();
  EXPECT_EQ(CountersNow({instance}).End("serving_admission_shed_timeout_total"),
            1);
}

TEST(AdmissionTest, WaiterIsAdmittedWhenSlotFrees) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = 4;
  const std::string instance = NewInstance();
  AdmissionController ac(options, instance);
  ASSERT_EQ(ac.Admit(std::nullopt), AdmissionOutcome::kAdmitted);
  AdmissionOutcome waiter_outcome = AdmissionOutcome::kShedTimeout;
  double waited = 0;
  std::thread waiter([&] {
    waiter_outcome = ac.Admit(std::nullopt, &waited);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ac.Release();
  waiter.join();
  EXPECT_EQ(waiter_outcome, AdmissionOutcome::kAdmitted);
  EXPECT_GE(waited, 0.01);
  ac.Release();
  const obs::MetricsWindow stats = CountersNow({instance});
  EXPECT_EQ(stats.End("serving_admission_admitted_total"), 2);
  EXPECT_EQ(stats.End("serving_admission_shed_queue_full_total") +
                stats.End("serving_admission_shed_timeout_total"),
            0);
  EXPECT_GE(stats.End("serving_admission_peak_queue"), 1);
}

TEST(AdmissionTest, StaleArrivalShedsWithoutQueueing) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = 4;
  options.max_queue_delay_s = 0.01;
  AdmissionController ac(options, NewInstance());
  ASSERT_EQ(ac.Admit(std::nullopt), AdmissionOutcome::kAdmitted);
  // Deadline already in the past (client dispatched the op late): shed
  // immediately rather than occupying a queue slot.
  EXPECT_EQ(ac.Admit(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(5)),
            AdmissionOutcome::kShedTimeout);
  ac.Release();
}

// --- serving stack ----------------------------------------------------------

ServingOptions CacheOnlyOptions(int shards) {
  ServingOptions options;
  options.shards = shards;
  options.cache_enabled = true;
  return options;
}

/// Checks the accounting every Serve branch owes its result: the flags name
/// the branch, and the cell's stages (cache + dispatch + execute) sum to the
/// cell total. A shed op's cell and stages are all zero, so it holds there
/// too.
void ExpectBranch(const ServeResult& result, bool shed, bool cache_hit,
                  bool coalesced) {
  EXPECT_EQ(result.shed, shed);
  EXPECT_EQ(result.cache_hit, cache_hit);
  EXPECT_EQ(result.coalesced, coalesced);
  EXPECT_FALSE(result.stale_tripwire);
  EXPECT_DOUBLE_EQ(result.stages[obs::RequestStage::kCache] +
                       result.stages[obs::RequestStage::kDispatch] +
                       result.stages[obs::RequestStage::kExecute],
                   result.cell.total_s);
}

TEST(ServingStackTest, CacheHitReturnsTheIdenticalResult) {
  auto stack = ServingStack::Create(CacheOnlyOptions(1),
                                    engine::CreateSciDb, TinyData());
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  ExecContext ctx;
  const auto first = (*stack)->Serve(core::QueryId::kRegression,
                                     core::DatasetSize::kSmall, TinyOptions(),
                                     &ctx);
  ASSERT_FALSE(first.shed);
  ASSERT_TRUE(first.cell.status.ok()) << first.cell.status.ToString();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.shard, 0);
  ExpectBranch(first, /*shed=*/false, /*cache_hit=*/false,
               /*coalesced=*/false);

  const auto second = (*stack)->Serve(core::QueryId::kRegression,
                                      core::DatasetSize::kSmall,
                                      TinyOptions(), &ctx);
  ASSERT_FALSE(second.shed);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.shard, -1);
  ExpectBranch(second, /*shed=*/false, /*cache_hit=*/true,
               /*coalesced=*/false);
  EXPECT_TRUE(core::CompareQueryResults(first.cell.result,
                                        second.cell.result).ok());
  // A hit is not free: it pays the modeled network round trip.
  EXPECT_GT(second.cell.total_s, 0.0);
  EXPECT_GT(second.cell.modeled_s, 0.0);

  const obs::MetricsWindow counters =
      CountersNow((*stack)->metric_instances());
  EXPECT_EQ(counters.End("serving_cache_hits_total"), 1);
  EXPECT_EQ(counters.End("serving_cache_misses_total"), 1);
  ASSERT_EQ(counters.LabelValues("serving_shard_ops_total", "shard").size(),
            1u);
  EXPECT_EQ(ShardOps(counters, 0), 1);
}

TEST(ServingStackTest, DistinctParamsAreDistinctCacheKeys) {
  auto stack = ServingStack::Create(CacheOnlyOptions(1),
                                    engine::CreateSciDb, TinyData());
  ASSERT_TRUE(stack.ok());
  ExecContext ctx;
  core::DriverOptions a = TinyOptions();
  core::DriverOptions b = TinyOptions();
  b.params.function_threshold -= 16;
  (void)(*stack)->Serve(core::QueryId::kRegression,
                        core::DatasetSize::kSmall, a, &ctx);
  const auto r = (*stack)->Serve(core::QueryId::kRegression,
                                 core::DatasetSize::kSmall, b, &ctx);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(CountersNow((*stack)->metric_instances())
                .End("serving_cache_misses_total"),
            2);
}

workload::WorkloadSpec SmokeSpec() {
  workload::WorkloadSpec spec;
  spec.name = "serving-smoke";
  spec.params = TinyParams();
  spec.size = core::DatasetSize::kSmall;
  spec.clients = 4;
  spec.warmup_ops = 4;
  spec.measured_ops = 24;
  spec.seed = 99;
  spec.verify = true;
  return spec;
}

TEST(ServingStackTest, ShardedRunMatchesSingleInstanceResults) {
  // The merge step combines per-shard statistics, never partial results:
  // a 4-shard run must serve the identical deterministic schedule with the
  // identical per-op results (every op reference-verified) as 1 shard.
  std::map<int, workload::WorkloadReport> reports;
  for (int shards : {1, 4}) {
    ServingOptions options;
    options.shards = shards;
    options.cache_enabled = false;  // Force every op through a shard.
    auto stack = ServingStack::Create(options, engine::CreateColumnStoreUdf,
                                      TinyData());
    ASSERT_TRUE(stack.ok()) << stack.status().ToString();
    workload::WorkloadRunner runner(SmokeSpec());
    auto report = runner.Run(stack->get(), TinyData());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    reports[shards] = std::move(report).ValueOrDie();
  }
  for (auto& [shards, report] : reports) {
    EXPECT_EQ(report.total.ops, 24) << shards;
    EXPECT_EQ(report.total.errors, 0) << shards;
    EXPECT_EQ(report.total.verify_failures, 0) << shards;
    EXPECT_EQ(report.total.shed(), 0) << shards;
    EXPECT_EQ(report.shards, shards);
    EXPECT_TRUE(report.has_serving);
  }
  // Identical schedule => identical per-query op counts.
  ASSERT_EQ(reports[1].per_query.size(), reports[4].per_query.size());
  for (const auto& [query, stats] : reports[1].per_query) {
    ASSERT_TRUE(reports[4].per_query.count(query));
    EXPECT_EQ(stats.ops, reports[4].per_query.at(query).ops);
  }
  // The 4-shard run spread ops over shards, and the merge accounts for all.
  const obs::MetricsWindow& four = reports[4].counters;
  EXPECT_EQ(four.Change("serving_shard_ops_total"), 24);
  EXPECT_GT(four.LabelValues("serving_shard_ops_total", "shard").size(), 1u);
}

TEST(ServingStackTest, CachedWorkloadRunVerifiesAndCountsHits) {
  ServingOptions options = CacheOnlyOptions(2);
  auto stack = ServingStack::Create(options, engine::CreateSciDb, TinyData());
  ASSERT_TRUE(stack.ok());
  workload::WorkloadSpec spec = SmokeSpec();
  spec.param_variants = 3;
  workload::WorkloadRunner runner(spec);
  auto report = runner.Run(stack->get(), TinyData());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Cached results pass the same reference verification as executed ones.
  EXPECT_EQ(report->total.verify_failures, 0);
  EXPECT_EQ(report->total.errors, 0);
  EXPECT_EQ(report->total.ops, 24);
  // Every measured op probed the cache; repeats beyond the <= 5*3 distinct
  // keys must hit.
  EXPECT_EQ(report->counters.Change("serving_cache_hits_total") +
                report->counters.Change("serving_cache_misses_total"),
            24);
  EXPECT_GT(report->counters.Change("serving_cache_hits_total"), 0);
}

TEST(ServingStackTest, OverloadShedsAndAccountsSeparately) {
  ServingOptions options;
  options.shards = 1;
  options.cache_enabled = false;  // Hits would bypass admission.
  options.admission.max_inflight = 1;
  // Zero queue slots plus a 0.1ms start budget: any op arriving while the
  // slot is busy sheds queue-full, and any op dispatched behind its
  // scheduled arrival by more than the budget is stale and sheds outright.
  // The whole schedule arrives within ~32us while each biclustering op
  // takes hundreds of microseconds, so ops past the first dispatch wave
  // are guaranteed stale — shedding does not depend on thread timing.
  options.admission.max_queue = 0;
  options.admission.max_queue_delay_s = 1e-4;
  auto stack = ServingStack::Create(options, engine::CreateSciDb, TinyData());
  ASSERT_TRUE(stack.ok());

  workload::WorkloadSpec spec = SmokeSpec();
  spec.mix = {{core::QueryId::kBiclustering, 1.0}};
  spec.model = workload::ClientModel::kOpenLoopUniform;
  spec.arrival_rate_qps = 1e6;  // Entire schedule arrives within ~32us.
  spec.clients = 8;
  spec.measured_ops = 32;
  spec.warmup_ops = 0;
  spec.verify = false;
  workload::WorkloadRunner runner(spec);
  auto report = runner.Run(stack->get(), TinyData());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Every scheduled op is accounted exactly once: served or shed.
  EXPECT_EQ(report->total.ops, 32);
  EXPECT_GT(report->total.shed(), 0);
  const int64_t served = report->served_ops();
  EXPECT_EQ(served + report->total.shed(), 32);
  // Latency histograms hold served successes only.
  EXPECT_EQ(report->total.latency.count(),
            served - report->total.errors - report->total.infs);
  EXPECT_EQ(report->total.queue_delay.count(),
            report->total.latency.count());
  // Stack-level and runner-level shed accounting agree.
  EXPECT_EQ(
      report->counters.Change("serving_admission_shed_queue_full_total") +
          report->counters.Change("serving_admission_shed_timeout_total"),
      report->total.shed());
  EXPECT_EQ(report->has_serving, true);

  // The admission-shed branch on its own: an op whose scheduled arrival is
  // already past its start budget sheds without executing.
  ExecContext ctx;
  const ServeResult shed = (*stack)->Serve(
      core::QueryId::kBiclustering, core::DatasetSize::kSmall, TinyOptions(),
      &ctx, std::chrono::steady_clock::now() - std::chrono::milliseconds(5));
  EXPECT_EQ(shed.admission, AdmissionOutcome::kShedTimeout);
  EXPECT_EQ(shed.shard, -1);
  ExpectBranch(shed, /*shed=*/true, /*cache_hit=*/false,
               /*coalesced=*/false);
}

// --- single flight ----------------------------------------------------------

TEST(ServingStackTest, ConcurrentMissesOnOneKeyRunOneCompute) {
  ServingOptions options = CacheOnlyOptions(2);
  options.single_flight = true;
  auto stack = ServingStack::Create(options, engine::CreateSciDb, TinyData());
  ASSERT_TRUE(stack.ok());

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<ServeResult> results(kThreads);
  std::vector<ExecContext> ctxs(kThreads);
  std::atomic<int> ready{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Barrier so the misses are genuinely concurrent.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      results[static_cast<size_t>(t)] =
          (*stack)->Serve(core::QueryId::kSvd, core::DatasetSize::kSmall,
                          TinyOptions(), &ctxs[static_cast<size_t>(t)]);
    });
  }
  for (auto& thread : threads) thread.join();

  // However the threads interleaved (leader + followers, or stragglers that
  // hit the already-populated cache), the engines ran the query exactly
  // once, and every caller got that one correct result.
  const obs::MetricsWindow counters =
      CountersNow((*stack)->metric_instances());
  EXPECT_EQ(counters.End("serving_shard_ops_total"), 1);
  // Usually exactly one flight; a straggler that misses, then joins after
  // the publish, opens a second flight but is answered by the leader's
  // double-check peek — never by a second execution (asserted above).
  EXPECT_GE(counters.End("serving_flight_leaders_total"), 1);
  EXPECT_EQ(counters.End("serving_flight_coalesced_total"),
            counters.End("serving_flight_coalesced_served_total"));
  // One caller executed (the leader); every other was answered at the
  // serving tier, coalesced onto the flight or (a straggler) by the cache.
  int executed = 0;
  int coalesced = 0;
  for (const auto& result : results) {
    ASSERT_FALSE(result.shed);
    ASSERT_TRUE(result.cell.status.ok()) << result.cell.status.ToString();
    EXPECT_TRUE(core::CompareQueryResults(results[0].cell.result,
                                          result.cell.result).ok());
    executed += result.cache_hit ? 0 : 1;
    coalesced += result.coalesced ? 1 : 0;
    ExpectBranch(result, /*shed=*/false, /*cache_hit=*/result.shard == -1,
                 result.coalesced);
    if (result.coalesced) {
      EXPECT_EQ(result.stages[obs::RequestStage::kExecute], 0.0);
    }
  }
  EXPECT_EQ(executed, 1);
  EXPECT_EQ(coalesced, counters.End("serving_flight_coalesced_served_total"));
  EXPECT_EQ(counters.End("serving_stack_stale_hits_total"), 0);
}

// --- adaptive admission -----------------------------------------------------

TEST(AdaptiveAdmissionTest, NextLimitConvergesOnBimodalServiceMix) {
  AdmissionOptions options;
  options.adaptive = true;
  options.target_queue_delay_s = 0.05;
  options.min_inflight = 1;
  options.max_inflight_cap = 32;

  // Synthetic bimodal mix: 80% lookups at 1ms, 20% biclustering at 96ms —
  // completion-weighted mean service 20ms. The backlog a limit produces is
  // modeled as the unserved share of a demand of 12 concurrent ops (more
  // slots, shorter queue). Iterating the controller's own step function
  // from both extremes must settle in the band around the Little's-law
  // fixed point limit = ceil(queue(limit) * 0.020 / 0.050):
  // queue(l) = 2*(12-l), so l* solves l = 0.8*(12-l) -> l* ~ 5.3.
  const double mean_service = 0.020;
  const auto queue_for_limit = [](int limit) {
    return 2.0 * std::max(0, 12 - limit);
  };
  for (int start : {1, 32}) {
    int limit = start;
    for (int i = 0; i < 64; ++i) {
      limit = AdaptiveNextLimit(options, limit, mean_service,
                                queue_for_limit(limit));
    }
    EXPECT_GE(limit, 4) << "from " << start;
    EXPECT_LE(limit, 7) << "from " << start;
  }
  // Degenerate inputs stay clamped: unknown service times hold the limit,
  // an empty queue decays to min, a huge backlog saturates at the cap.
  EXPECT_EQ(AdaptiveNextLimit(options, 5, 0.0, 100.0), 5);
  int idle = 32;
  for (int i = 0; i < 64; ++i) {
    idle = AdaptiveNextLimit(options, idle, mean_service, 0.0);
  }
  EXPECT_EQ(idle, 1);
  int slammed = 1;
  for (int i = 0; i < 64; ++i) {
    slammed = AdaptiveNextLimit(options, slammed, 1.0, 1000.0);
  }
  EXPECT_EQ(slammed, 32);
}

TEST(AdaptiveAdmissionTest, ShedPressureUnpinsAFastServiceLimit) {
  // Services much faster than the target delay: the Little's-law term
  // alone wants limit 1 forever (the adaptive queue bound caps the
  // observable backlog at 2 x limit, so `needed` never exceeds the
  // current limit), while queue-full sheds rage on. Shed pressure must
  // climb the limit until demand fits; without it the loop below pins at
  // the minimum.
  AdmissionOptions options;
  options.adaptive = true;
  options.target_queue_delay_s = 0.05;
  options.min_inflight = 1;
  options.max_inflight_cap = 64;
  const double mean_service = 0.001;  // 1ms ops, target 50ms.
  const int demand = 12;
  int limit = 1;
  for (int i = 0; i < 64; ++i) {
    const double queue = std::min(2 * limit, std::max(0, demand - limit));
    const int64_t sheds = std::max(0, demand - limit - 2 * limit);
    limit = AdaptiveNextLimit(options, limit, mean_service, queue, sheds);
  }
  // Sheds stop once limit + 2*limit >= demand (limit 4); the delay term
  // then pulls back toward 1 and shed pressure pushes up again — the
  // orbit must stay off the pinned minimum and inside a sane band.
  EXPECT_GE(limit, 3);
  EXPECT_LE(limit, 6);
}

TEST(AdaptiveAdmissionTest, HeavyClassIsLearnedFromServiceTimes) {
  AdmissionOptions options;
  options.adaptive = true;
  options.min_inflight = 4;
  AdmissionController ac(options, NewInstance());
  ASSERT_TRUE(ac.enabled());

  constexpr int kCheap = 1;
  constexpr int kHeavy = 3;
  // Teach the model: cheap ops at ~1ms, heavy at ~50ms.
  for (int i = 0; i < 5; ++i) {
    bool heavy = false;
    ASSERT_EQ(ac.Admit(std::nullopt, nullptr, kCheap, &heavy),
              AdmissionOutcome::kAdmitted);
    ac.Release(kCheap, 0.001, heavy);
    ASSERT_EQ(ac.Admit(std::nullopt, nullptr, kHeavy, &heavy),
              AdmissionOutcome::kAdmitted);
    ac.Release(kHeavy, 0.050, heavy);
  }
  EXPECT_FALSE(ac.IsHeavyClass(kCheap));
  EXPECT_TRUE(ac.IsHeavyClass(kHeavy));
  EXPECT_NEAR(ac.ClassServiceEwma(kCheap), 0.001, 1e-9);
  EXPECT_NEAR(ac.ClassServiceEwma(kHeavy), 0.050, 1e-9);
}

TEST(AdaptiveAdmissionTest, CheapOpsAreNotShedBehindHeavyOnes) {
  AdmissionOptions options;
  options.adaptive = true;
  // Limit stays 4 (no adjustments yet): with kHeavyShare = 0.5 heavy ops
  // may hold 2 of the 4 slots.
  options.min_inflight = 4;
  options.adjust_interval = 1000; // Keep the limit fixed for the test.
  const std::string instance = NewInstance();
  AdmissionController ac(options, instance);

  constexpr int kCheap = 1;
  constexpr int kHeavy = 3;
  for (int i = 0; i < 5; ++i) {
    bool heavy = false;
    ASSERT_EQ(ac.Admit(std::nullopt, nullptr, kCheap, &heavy),
              AdmissionOutcome::kAdmitted);
    ac.Release(kCheap, 0.001, heavy);
    ASSERT_EQ(ac.Admit(std::nullopt, nullptr, kHeavy, &heavy),
              AdmissionOutcome::kAdmitted);
    ac.Release(kHeavy, 0.050, heavy);
  }

  // Saturate the heavy share: two heavy ops occupy their slot cap.
  bool h1 = false, h2 = false;
  ASSERT_EQ(ac.Admit(std::nullopt, nullptr, kHeavy, &h1),
            AdmissionOutcome::kAdmitted);
  ASSERT_EQ(ac.Admit(std::nullopt, nullptr, kHeavy, &h2),
            AdmissionOutcome::kAdmitted);
  EXPECT_TRUE(h1);
  EXPECT_TRUE(h2);
  // A third heavy op cannot start (share exhausted) and sheds at its start
  // deadline even though two general slots are free...
  double waited = 0;
  EXPECT_EQ(ac.Admit(std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(20),
                     &waited, kHeavy),
            AdmissionOutcome::kShedTimeout);
  // ...while a cheap op walks straight into one of those free slots — the
  // biclustering burst cannot starve the lookups.
  bool cheap_heavy = true;
  EXPECT_EQ(ac.Admit(std::nullopt, nullptr, kCheap, &cheap_heavy),
            AdmissionOutcome::kAdmitted);
  EXPECT_FALSE(cheap_heavy);
  ac.Release(kCheap, 0.001, cheap_heavy);
  ac.Release(kHeavy, 0.050, h1);
  ac.Release(kHeavy, 0.050, h2);
  EXPECT_EQ(CountersNow({instance}).End("serving_admission_shed_timeout_total"),
            1);
}

// --- reload / epochs through the stack --------------------------------------

TEST(ServingStackTest, ReloadInvalidatesCacheAndAdvancesEpoch) {
  auto stack = ServingStack::Create(CacheOnlyOptions(2),
                                    engine::CreateColumnStoreUdf, TinyData());
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  ExecContext ctx;
  const uint64_t epoch_before = (*stack)->current_epoch();
  const auto first = (*stack)->Serve(core::QueryId::kRegression,
                                     core::DatasetSize::kSmall, TinyOptions(),
                                     &ctx);
  ASSERT_TRUE(first.cell.status.ok()) << first.cell.status.ToString();
  EXPECT_FALSE(first.cache_hit);
  ASSERT_TRUE((*stack)->ReloadDataset(TinyData()).ok());
  EXPECT_GT((*stack)->current_epoch(), epoch_before);

  // Identical op after the reload: the old entry is unreachable (new epoch
  // in the key), so this recomputes — and the result still matches, because
  // the reloaded data is the same.
  const auto second = (*stack)->Serve(core::QueryId::kRegression,
                                      core::DatasetSize::kSmall,
                                      TinyOptions(), &ctx);
  EXPECT_FALSE(second.cache_hit);
  ASSERT_TRUE(second.cell.status.ok());
  EXPECT_TRUE(core::CompareQueryResults(first.cell.result,
                                        second.cell.result).ok());
  // And a third serve hits the new-epoch entry.
  const auto third = (*stack)->Serve(core::QueryId::kRegression,
                                     core::DatasetSize::kSmall, TinyOptions(),
                                     &ctx);
  EXPECT_TRUE(third.cache_hit);

  const obs::MetricsWindow counters =
      CountersNow((*stack)->metric_instances());
  EXPECT_EQ(counters.End("serving_stack_reloads_total"), 1);
  EXPECT_EQ(counters.End("serving_cache_invalidated_total"), 1);
  EXPECT_EQ(counters.End("serving_stack_stale_hits_total"), 0);
  EXPECT_EQ(counters.End("serving_cache_entries"),
            counters.End("serving_cache_insertions_total") -
                counters.End("serving_cache_evictions_total") -
                counters.End("serving_cache_invalidated_total"));
}

/// Wraps a real engine but fails DoLoadDataset while the shared failure
/// budget is positive — for driving mid-roll reload failures.
class FailingLoadEngine : public core::Engine {
 public:
  static std::atomic<int>& fail_next_loads() {
    static std::atomic<int> count{0};
    return count;
  }

  FailingLoadEngine() : inner_(engine::CreateSciDb()) {}
  std::string name() const override { return inner_->name(); }
  bool SupportsQuery(core::QueryId query) const override {
    return inner_->SupportsQuery(query);
  }
  void PrepareContext(ExecContext* ctx) override {
    inner_->PrepareContext(ctx);
  }
  genbase::Result<core::QueryResult> RunQuery(
      core::QueryId query, const core::QueryParams& params,
      ExecContext* ctx) override {
    return inner_->RunQuery(query, params, ctx);
  }

 protected:
  genbase::Status DoLoadDataset(const core::GenBaseData& data) override {
    int budget = fail_next_loads().load();
    while (budget > 0 &&
           !fail_next_loads().compare_exchange_weak(budget, budget - 1)) {
    }
    if (budget > 0) return genbase::Status::Internal("injected load failure");
    return inner_->LoadDataset(data);
  }
  void DoUnloadDataset() override { inner_->UnloadDataset(); }

 private:
  std::unique_ptr<core::Engine> inner_;
};

TEST(ServingStackTest, FailedReloadHealsOnRetry) {
  FailingLoadEngine::fail_next_loads() = 0;
  auto stack = ServingStack::Create(
      CacheOnlyOptions(2), [] { return std::make_unique<FailingLoadEngine>(); },
      TinyData());
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  const uint64_t epoch0 = (*stack)->current_epoch();

  // Mid-roll failure: the first shard's reload fails, the roll aborts, and
  // the stack must NOT advance its epoch (the fleet still serves — and
  // caches under — the old generation).
  FailingLoadEngine::fail_next_loads() = 1;
  EXPECT_FALSE((*stack)->ReloadDataset(TinyData()).ok());
  EXPECT_EQ((*stack)->current_epoch(), epoch0);

  // The retry targets the same generation again, so the fleet converges
  // instead of drifting — and crucially, post-retry results are cacheable:
  // a serve executes once and its repeat hits.
  ASSERT_TRUE((*stack)->ReloadDataset(TinyData()).ok());
  EXPECT_EQ((*stack)->current_epoch(), epoch0 + 1);
  ExecContext ctx;
  const auto first = (*stack)->Serve(core::QueryId::kRegression,
                                     core::DatasetSize::kSmall, TinyOptions(),
                                     &ctx);
  ASSERT_TRUE(first.cell.status.ok()) << first.cell.status.ToString();
  EXPECT_FALSE(first.cache_hit);
  const auto second = (*stack)->Serve(core::QueryId::kRegression,
                                      core::DatasetSize::kSmall,
                                      TinyOptions(), &ctx);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(CountersNow((*stack)->metric_instances())
                .End("serving_stack_stale_hits_total"),
            0);
}

TEST(ServingStackTest, ReloadWhileServingStaysCorrect) {
  ServingOptions options = CacheOnlyOptions(2);
  options.single_flight = true;
  auto stack = ServingStack::Create(options, engine::CreateSciDb, TinyData());
  ASSERT_TRUE(stack.ok());

  workload::WorkloadSpec spec = SmokeSpec();
  spec.param_variants = 2;
  spec.measured_ops = 32;
  workload::WorkloadRunner runner(spec);

  std::atomic<bool> stop{false};
  std::thread churn;
  runner.set_on_measure_start([&] {
    ASSERT_TRUE((*stack)->ReloadDataset(TinyData()).ok());
    churn = std::thread([&] {
      while (!stop.load()) {
        ASSERT_TRUE((*stack)->ReloadDataset(TinyData()).ok());
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  });
  auto report = runner.Run(stack->get(), TinyData());
  stop.store(true);
  if (churn.joinable()) churn.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Under continuous rolling reloads: every op still verified correct,
  // no epoch-mismatched serve, and the measured delta saw the churn.
  EXPECT_EQ(report->total.errors, 0);
  EXPECT_EQ(report->total.verify_failures, 0);
  EXPECT_EQ(report->total.shed(), 0);
  EXPECT_EQ(report->counters.Change("serving_stack_stale_hits_total"), 0);
  EXPECT_GE(report->counters.Change("serving_stack_reloads_total"), 1);
}

// --- fault scripts and retry policy -----------------------------------------

TEST(FaultScriptTest, ParsesSeedPhasesWindowsAndComments) {
  auto script = FaultScript::Parse(
      "# fleet chaos drill\n"
      "seed 42\n"
      "@3 crash 1\n"
      "phase fault\n"
      "@0..40 error * 0.25  # any shard\n"
      "@10..20 latency 2 0.004\n"
      "@5 reload-fail 0\n"
      "phase healed\n"
      "@0 recover 1\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script->seed, 42u);
  ASSERT_EQ(script->phases.size(), 3u);
  EXPECT_EQ(script->phases[0].name, "main");
  ASSERT_EQ(script->phases[0].actions.size(), 1u);
  EXPECT_EQ(script->phases[0].actions[0].kind, FaultKind::kCrash);
  EXPECT_EQ(script->phases[0].actions[0].shard, 1);
  EXPECT_EQ(script->phases[0].actions[0].at_op, 3u);
  EXPECT_EQ(script->phases[0].actions[0].until_op, 0u);  // Point action.
  EXPECT_EQ(script->phases[1].name, "fault");
  ASSERT_EQ(script->phases[1].actions.size(), 3u);
  const FaultAction& error = script->phases[1].actions[0];
  EXPECT_EQ(error.kind, FaultKind::kTransientError);
  EXPECT_EQ(error.shard, -1);  // '*' = any shard.
  EXPECT_EQ(error.at_op, 0u);
  EXPECT_EQ(error.until_op, 40u);
  EXPECT_DOUBLE_EQ(error.param, 0.25);
  const FaultAction& spike = script->phases[1].actions[1];
  EXPECT_EQ(spike.kind, FaultKind::kLatencySpike);
  EXPECT_EQ(spike.shard, 2);
  EXPECT_DOUBLE_EQ(spike.param, 0.004);
  EXPECT_EQ(script->phases[2].name, "healed");
  ASSERT_EQ(script->phases[2].actions.size(), 1u);
  EXPECT_EQ(script->phases[2].actions[0].kind, FaultKind::kRecover);
}

TEST(FaultScriptTest, KeepsEmptyLeadingAndConsecutivePhases) {
  // The fig9 recovery shape: a deliberately fault-free 'pre' phase opens
  // the script. Only the implicit empty "main" preamble may be dropped —
  // every named phase survives, even with no actions, or every phase label
  // after it misaligns by one run.
  auto script = FaultScript::Parse(
      "seed 902\n"
      "phase pre\n"
      "phase fault\n@0 crash 1\n"
      "phase healed\n@0 recover 1\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script->phases.size(), 3u);
  EXPECT_EQ(script->phases[0].name, "pre");
  EXPECT_TRUE(script->phases[0].actions.empty());
  EXPECT_EQ(script->phases[1].name, "fault");
  ASSERT_EQ(script->phases[1].actions.size(), 1u);
  EXPECT_EQ(script->phases[1].actions[0].kind, FaultKind::kCrash);
  EXPECT_EQ(script->phases[2].name, "healed");
  ASSERT_EQ(script->phases[2].actions.size(), 1u);
  EXPECT_EQ(script->phases[2].actions[0].kind, FaultKind::kRecover);

  // Consecutive and trailing empty phases are all kept too.
  auto gaps = FaultScript::Parse(
      "@1 crash 0\nphase a\nphase b\n@2 recover 0\nphase c\n");
  ASSERT_TRUE(gaps.ok()) << gaps.status().ToString();
  ASSERT_EQ(gaps->phases.size(), 4u);
  EXPECT_EQ(gaps->phases[0].name, "main");  // Preamble with actions stays.
  EXPECT_EQ(gaps->phases[1].name, "a");
  EXPECT_TRUE(gaps->phases[1].actions.empty());
  EXPECT_EQ(gaps->phases[2].name, "b");
  EXPECT_EQ(gaps->phases[3].name, "c");
  EXPECT_TRUE(gaps->phases[3].actions.empty());

  // An empty script still parses to a single (disabled) "main" phase.
  auto empty = FaultScript::Parse("# nothing\n");
  ASSERT_TRUE(empty.ok());
  ASSERT_EQ(empty->phases.size(), 1u);
  EXPECT_EQ(empty->phases[0].name, "main");
}

TEST(FaultScriptTest, RejectsMalformedLines) {
  for (const char* bad : {
           "seed x",                // Non-numeric seed.
           "@5 crash",              // Missing shard.
           "@5..9 crash 1",         // Point action with a window.
           "@5 error * 0.5",        // Window action without a window.
           "@0..9 error * 1.5",     // Probability out of [0, 1].
           "@0..9 latency * 0.01",  // Latency needs a concrete shard.
           "@0..9 frobnicate 1 2",  // Unknown kind.
           "crash 1",               // Missing @op.
       }) {
    EXPECT_FALSE(FaultScript::Parse(bad).ok()) << bad;
  }
}

TEST(RetryPolicyTest, BackoffIsDeterministicJitteredAndCapped) {
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_s = 0.001;
  policy.max_backoff_s = 0.010;
  for (int attempt = 1; attempt <= 12; ++attempt) {
    // Pure in (seed, op, attempt): identical across calls and runs.
    const double backoff = RetryBackoffSeconds(policy, 7, 13, attempt);
    EXPECT_EQ(backoff, RetryBackoffSeconds(policy, 7, 13, attempt));
    // Exponential base, capped, with jitter in [0.5, 1.0] x the base.
    double base = policy.initial_backoff_s;
    for (int i = 1; i < attempt && base < policy.max_backoff_s; ++i) {
      base *= kRetryBackoffMultiplier;
    }
    base = std::min(base, policy.max_backoff_s);
    EXPECT_GE(backoff, 0.5 * base) << attempt;
    EXPECT_LE(backoff, base) << attempt;
  }
  // A pathological attempt count cannot overflow past the cap.
  EXPECT_LE(RetryBackoffSeconds(policy, 7, 13, 1 << 30),
            policy.max_backoff_s);
  // Jitter decorrelates ops: one attempt number drawn across many ops
  // spreads instead of thundering in lockstep.
  std::set<double> draws;
  for (uint64_t op = 0; op < 16; ++op) {
    draws.insert(RetryBackoffSeconds(policy, 7, op, 3));
  }
  EXPECT_GT(draws.size(), 8u);
}

TEST(RetryPolicyTest, ScheduleRetryHonorsAttemptAndDeadlineBudgets) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  double backoff = -1.0;
  // Attempt budget: after attempt 4 of 4 there is no retry left.
  EXPECT_FALSE(ScheduleRetry(policy, 1, 1, 4, 1e9, &backoff));
  // Within budget: grants exactly the deterministic backoff.
  ASSERT_TRUE(ScheduleRetry(policy, 1, 1, 1, 1e9, &backoff));
  EXPECT_EQ(backoff, RetryBackoffSeconds(policy, 1, 1, 1));
  // Deadline budget: a backoff that does not fit is refused outright, so
  // the caller gives up instead of sleeping past the deadline.
  EXPECT_FALSE(ScheduleRetry(policy, 1, 1, 1, backoff / 2, &backoff));
  // Property: for any (seed, op), the sum of granted backoffs never
  // exceeds the starting budget — total retry wall-time is bounded by the
  // request deadline by construction.
  policy.max_attempts = 64;
  for (uint64_t seed : {0u, 7u, 99u}) {
    for (uint64_t op = 1; op <= 32; ++op) {
      const double budget = 0.004;
      double remaining = budget;
      double total = 0.0;
      double step = 0.0;
      int attempt = 1;
      while (ScheduleRetry(policy, seed, op, attempt, remaining, &step)) {
        total += step;
        remaining -= step;
        ++attempt;
      }
      EXPECT_LE(total, budget + 1e-12) << "seed " << seed << " op " << op;
    }
  }
}

// --- fault injector ----------------------------------------------------------

TEST(FaultInjectorTest, AppliesScheduleOnOpTicksAndPersistsCrashAcrossPhases) {
  auto script = FaultScript::Parse(
      "seed 5\n"
      "@2 crash 1\n"
      "@4..6 latency 0 0.004\n"
      "phase second\n"
      "@1 recover 1\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto injector = FaultInjector::Create(*script);
  ASSERT_TRUE(injector.ok());
  FaultInjector& faults = **injector;
  EXPECT_TRUE(faults.enabled());

  EXPECT_EQ(faults.OnServe(), 1u);
  EXPECT_FALSE(faults.ShardCrashed(1));
  EXPECT_EQ(faults.OnServe(), 2u);  // The crash applies exactly at its op.
  EXPECT_TRUE(faults.ShardCrashed(1));
  EXPECT_FALSE(faults.ShardCrashed(0));
  EXPECT_DOUBLE_EQ(faults.ShardLatencySeconds(0), 0.0);
  faults.OnServe();  // 3.
  faults.OnServe();  // 4: the latency window [4, 6) opens.
  EXPECT_DOUBLE_EQ(faults.ShardLatencySeconds(0), 0.004);
  faults.OnServe();  // 5: still inside.
  EXPECT_DOUBLE_EQ(faults.ShardLatencySeconds(0), 0.004);
  faults.OnServe();  // 6: exclusive end — the spike is gone.
  EXPECT_DOUBLE_EQ(faults.ShardLatencySeconds(0), 0.0);

  // Phase boundary: windows die with their phase, crash state persists,
  // and op indices restart (the recover scheduled at phase-local op 1
  // fires on the next tick, not at global op 7).
  ASSERT_TRUE(faults.AdvancePhase());
  EXPECT_TRUE(faults.ShardCrashed(1));
  EXPECT_EQ(faults.OnServe(), 1u);
  EXPECT_FALSE(faults.ShardCrashed(1));
  EXPECT_FALSE(faults.AdvancePhase());  // No third phase.

  EXPECT_EQ(faults.injected(FaultKind::kCrash), 1);
  EXPECT_EQ(faults.injected(FaultKind::kRecover), 1);
  EXPECT_EQ(faults.injected(FaultKind::kLatencySpike), 1);
  EXPECT_EQ(faults.injected_total(), 3);
}

TEST(FaultInjectorTest, TransientDrawsAndEventLogAreDeterministic) {
  auto script = FaultScript::Parse("seed 11\n@0..1000 error * 0.5\n");
  ASSERT_TRUE(script.ok());
  auto replay_a = FaultInjector::Create(*script);
  auto replay_b = FaultInjector::Create(*script);
  ASSERT_TRUE(replay_a.ok() && replay_b.ok());
  (*replay_a)->OnServe();  // Activates the window in both replicas.
  (*replay_b)->OnServe();
  int fired = 0;
  bool attempts_differ = false;
  for (uint64_t op = 1; op <= 64; ++op) {
    const bool first = (*replay_a)->DrawTransientError(0, op, 1);
    const bool second = (*replay_a)->DrawTransientError(0, op, 2);
    // The replay draws identically, call for call.
    EXPECT_EQ((*replay_b)->DrawTransientError(0, op, 1), first) << op;
    EXPECT_EQ((*replay_b)->DrawTransientError(0, op, 2), second) << op;
    fired += (first ? 1 : 0) + (second ? 1 : 0);
    attempts_differ |= first != second;
  }
  // p=0.5 over 128 draws sits comfortably between "never" and "always" —
  // and the draws are deterministic, so these bounds can never flake.
  EXPECT_GT(fired, 32);
  EXPECT_LT(fired, 96);
  // The attempt number salts the draw: a faulted op is not doomed to fail
  // every retry the same way.
  EXPECT_TRUE(attempts_differ);
  // Identical call sequences leave byte-identical event logs.
  EXPECT_FALSE((*replay_a)->EventLog().empty());
  EXPECT_EQ((*replay_a)->EventLog(), (*replay_b)->EventLog());
  EXPECT_EQ((*replay_a)->injected(FaultKind::kTransientError),
            (*replay_b)->injected(FaultKind::kTransientError));
}

TEST(FaultInjectorTest, ReloadFailureArmsAtItsOpAndIsConsumedOnce) {
  auto script = FaultScript::Parse("seed 1\n@1 reload-fail 0\n");
  ASSERT_TRUE(script.ok());
  auto injector = FaultInjector::Create(*script);
  ASSERT_TRUE(injector.ok());
  FaultInjector& faults = **injector;
  // Not armed until the scheduled op ticks.
  EXPECT_FALSE(faults.ConsumeReloadFailure(0));
  faults.OnServe();
  EXPECT_FALSE(faults.ConsumeReloadFailure(1));  // Wrong shard.
  EXPECT_TRUE(faults.ConsumeReloadFailure(0));
  EXPECT_FALSE(faults.ConsumeReloadFailure(0));  // Already consumed.
  EXPECT_EQ(faults.injected(FaultKind::kReloadFailure), 1);
}

// --- failure-aware routing and the circuit breaker ---------------------------

TEST(ShardRouterTest, CrashedShardIsRoutedAroundUntilRecovery) {
  auto script = FaultScript::Parse("seed 9\n@1 crash 0\n@5 recover 0\n");
  ASSERT_TRUE(script.ok());
  auto injector = FaultInjector::Create(*script);
  ASSERT_TRUE(injector.ok());
  const std::string instance = NewInstance();
  auto router =
      ShardRouter::Create(2, engine::CreateSciDb, TinyData(), instance);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  (*router)->SetFaultInjector(injector->get());
  ExecContext ctx;

  (*injector)->OnServe();  // Op 1: shard 0 goes down.
  for (uint64_t op = 2; op <= 4; ++op) {
    (*injector)->OnServe();
    const int s = (*router)->AcquireShard();
    EXPECT_EQ(s, 1) << op;  // JSQ would tie to shard 0; down skips it.
    const auto cell = (*router)->RunOnShard(
        s, core::QueryId::kStatistics, core::DatasetSize::kSmall,
        TinyOptions(), &ctx, nullptr, op, 1);
    EXPECT_TRUE(cell.status.ok()) << cell.status.ToString();
  }
  EXPECT_EQ((*router)->capacity_fraction(), 0.5);
  const obs::MetricsWindow stats = CountersNow({instance});
  EXPECT_EQ(Health(stats, 0), ShardHealth::kDown);
  EXPECT_EQ(ShardOps(stats, 0), 0);
  EXPECT_EQ(ShardOps(stats, 1), 3);

  (*injector)->OnServe();  // Op 5: recover.
  const int healed = (*router)->AcquireShard();
  EXPECT_EQ(healed, 0);  // Ties go to the lowest id again.
  const auto cell = (*router)->RunOnShard(
      healed, core::QueryId::kStatistics, core::DatasetSize::kSmall,
      TinyOptions(), &ctx, nullptr, 5, 1);
  EXPECT_TRUE(cell.status.ok());
  EXPECT_EQ((*router)->capacity_fraction(), 1.0);
}

TEST(ShardRouterTest, AllShardsDownFailsFastInsteadOfHanging) {
  auto script = FaultScript::Parse("seed 9\n@1 crash 0\n@1 crash 1\n");
  ASSERT_TRUE(script.ok());
  auto injector = FaultInjector::Create(*script);
  ASSERT_TRUE(injector.ok());
  const std::string instance = NewInstance();
  auto router =
      ShardRouter::Create(2, engine::CreateSciDb, TinyData(), instance);
  ASSERT_TRUE(router.ok());
  (*router)->SetFaultInjector(injector->get());
  ExecContext ctx;

  (*injector)->OnServe();  // Both shards down.
  const int s = (*router)->AcquireShard();  // Least-loaded down shard.
  const auto cell = (*router)->RunOnShard(
      s, core::QueryId::kStatistics, core::DatasetSize::kSmall, TinyOptions(),
      &ctx, nullptr, 1, 1);
  // Fails fast with an error instead of touching the engine or blocking —
  // the caller's retry budget stays spendable on a recovery.
  EXPECT_FALSE(cell.status.ok());
  EXPECT_EQ((*router)->capacity_fraction(), 0.0);
  EXPECT_EQ(CountersNow({instance})
                .End("serving_shard_errors_total",
                     {{"shard", std::to_string(s)}}),
            1);
  EXPECT_EQ((*injector)->injected(FaultKind::kCrash), 2);
}

TEST(ShardRouterTest, BreakerOpensGoesHalfOpenAndClosesOnSuccess) {
  // Phase 'err' makes every execute on shard 0 fail; phase 'clean' clears
  // the window so the half-open probe can succeed.
  auto script = FaultScript::Parse(
      "seed 3\nphase err\n@0..100000 error 0 1\nphase clean\n");
  ASSERT_TRUE(script.ok());
  auto injector = FaultInjector::Create(*script);
  ASSERT_TRUE(injector.ok());
  const std::string instance = NewInstance();
  auto router =
      ShardRouter::Create(2, engine::CreateSciDb, TinyData(), instance);
  ASSERT_TRUE(router.ok());
  (*router)->SetFaultInjector(injector->get());
  ExecContext ctx;

  // Three consecutive injected errors on shard 0 open its breaker.
  for (int i = 0; i < ShardRouter::kBreakerErrorThreshold; ++i) {
    const uint64_t op = (*injector)->OnServe();
    const int s = (*router)->AcquireShard(/*exclude=*/1);
    ASSERT_EQ(s, 0);
    const auto cell = (*router)->RunOnShard(
        s, core::QueryId::kStatistics, core::DatasetSize::kSmall,
        TinyOptions(), &ctx, nullptr, op, 1);
    EXPECT_FALSE(cell.status.ok());
  }
  const obs::MetricsWindow opened = CountersNow({instance});
  EXPECT_EQ(Health(opened, 0), ShardHealth::kDown);
  EXPECT_EQ(opened.End("serving_shard_breaker_opens_total", {{"shard", "0"}}),
            1);
  EXPECT_EQ((*router)->capacity_fraction(), 0.5);

  // The cooldown clock is fleet-wide acquires. Serve the cooldown's worth
  // of traffic on the healthy replica; the final acquire flips the breaker
  // half-open (degraded: probed again, at the back of the queue).
  ASSERT_TRUE((*injector)->AdvancePhase());  // 'clean': error window gone.
  for (uint64_t i = 0; i < ShardRouter::kBreakerCooldownOps; ++i) {
    const uint64_t op = (*injector)->OnServe();
    const int s = (*router)->AcquireShard();
    EXPECT_EQ(s, 1);
    const auto cell = (*router)->RunOnShard(
        s, core::QueryId::kStatistics, core::DatasetSize::kSmall,
        TinyOptions(), &ctx, nullptr, op, 1);
    EXPECT_TRUE(cell.status.ok());
  }
  EXPECT_EQ(Health(CountersNow({instance}), 0), ShardHealth::kDegraded);

  // One successful probe closes the breaker for good.
  const uint64_t op = (*injector)->OnServe();
  const int probe = (*router)->AcquireShard(/*exclude=*/1);
  EXPECT_EQ(probe, 0);
  const auto cell = (*router)->RunOnShard(
      probe, core::QueryId::kStatistics, core::DatasetSize::kSmall,
      TinyOptions(), &ctx, nullptr, op, 1);
  EXPECT_TRUE(cell.status.ok());
  const obs::MetricsWindow healed = CountersNow({instance});
  EXPECT_EQ(Health(healed, 0), ShardHealth::kHealthy);
  EXPECT_EQ(healed.End("serving_shard_breaker_opens_total", {{"shard", "0"}}),
            1);
  EXPECT_EQ((*router)->capacity_fraction(), 1.0);
}

// --- brown-out degradation ---------------------------------------------------

TEST(AdaptiveAdmissionTest, BrownOutShedsHeavyArrivalsAndSparesCheap) {
  AdmissionOptions options;
  options.adaptive = true;
  options.min_inflight = 4;
  options.adjust_interval = 1000;  // Keep the limit fixed for the test.
  const std::string instance = NewInstance();
  AdmissionController ac(options, instance);
  constexpr int kCheap = 1;
  constexpr int kHeavy = 3;
  // Teach the class model: cheap at ~1ms, heavy at ~50ms.
  for (int i = 0; i < 5; ++i) {
    bool heavy = false;
    ASSERT_EQ(ac.Admit(std::nullopt, nullptr, kCheap, &heavy),
              AdmissionOutcome::kAdmitted);
    ac.Release(kCheap, 0.001, heavy);
    ASSERT_EQ(ac.Admit(std::nullopt, nullptr, kHeavy, &heavy),
              AdmissionOutcome::kAdmitted);
    ac.Release(kHeavy, 0.050, heavy);
  }

  // Brown-out: at 40% fleet capacity the heavy cap (4 slots x 0.5 share x
  // 0.4) rounds to zero, so heavy arrivals shed on arrival instead of
  // queueing against the cheap traffic that still fits.
  ac.SetCapacityFactor(0.4);
  bool heavy = false;
  EXPECT_EQ(ac.Admit(std::nullopt, nullptr, kHeavy, &heavy),
            AdmissionOutcome::kShedQueueFull);
  EXPECT_EQ(ac.Admit(std::nullopt, nullptr, kCheap, &heavy),
            AdmissionOutcome::kAdmitted);
  EXPECT_FALSE(heavy);
  ac.Release(kCheap, 0.001, heavy);
  const obs::MetricsWindow browned = CountersNow({instance});
  EXPECT_EQ(browned.End("serving_admission_shed_brownout_total"), 1);
  // Attribution is a subset count.
  EXPECT_EQ(browned.End("serving_admission_shed_queue_full_total"), 1);

  // Mild degradation — one slow shard in a 32-fleet (31.5/32 = 0.984) —
  // stays above the brown-out threshold: heavy arrivals queue and admit
  // normally instead of hitting a shed-on-arrival cliff.
  ac.SetCapacityFactor(31.5 / 32.0);
  EXPECT_EQ(ac.Admit(std::nullopt, nullptr, kHeavy, &heavy),
            AdmissionOutcome::kAdmitted);
  EXPECT_TRUE(heavy);
  ac.Release(kHeavy, 0.050, heavy);

  // Capacity restored: heavy flows again (the cap floors at one slot at
  // full health).
  ac.SetCapacityFactor(1.0);
  EXPECT_EQ(ac.Admit(std::nullopt, nullptr, kHeavy, &heavy),
            AdmissionOutcome::kAdmitted);
  EXPECT_TRUE(heavy);
  ac.Release(kHeavy, 0.050, heavy);
  EXPECT_EQ(
      CountersNow({instance}).End("serving_admission_shed_brownout_total"),
      1);
}

// --- fault tolerance through the stack ---------------------------------------

TEST(ServingStackTest, RetriesRecoverFromInjectedTransientErrors) {
  auto script = FaultScript::Parse("seed 21\n@0..100000 error * 0.4\n");
  ASSERT_TRUE(script.ok());
  auto injector = FaultInjector::Create(*script);
  ASSERT_TRUE(injector.ok());

  ServingOptions options;
  options.shards = 2;
  options.cache_enabled = false;  // A hit never reaches the fault machinery.
  options.retry.max_attempts = 6;
  options.retry.initial_backoff_s = 1e-4;
  options.retry.max_backoff_s = 1e-3;
  options.fault_injector = injector->get();
  auto stack = ServingStack::Create(options, engine::CreateSciDb, TinyData());
  ASSERT_TRUE(stack.ok());

  ExecContext ctx;
  int64_t errors = 0;
  int64_t retried_ops = 0;
  for (int i = 0; i < 12; ++i) {
    const auto result = (*stack)->Serve(core::QueryId::kStatistics,
                                        core::DatasetSize::kSmall,
                                        TinyOptions(), &ctx);
    EXPECT_FALSE(result.shed);
    errors += result.cell.status.ok() ? 0 : 1;
    retried_ops += result.retries > 0 ? 1 : 0;
  }
  const obs::MetricsWindow counters =
      CountersNow((*stack)->metric_instances());
  // A 40% per-attempt error rate against a 6-attempt budget: every op
  // recovers. Deterministic — the draws are pure in (seed, op, attempt,
  // shard), so this can never flake.
  EXPECT_EQ(errors, 0);
  EXPECT_GT(retried_ops, 0);
  EXPECT_EQ(counters.End("serving_retry_successes_total"), retried_ops);
  // No deadline configured, no op exhausted its attempts: every injected
  // failure was paid for with exactly one retry.
  EXPECT_EQ(counters.End("serving_retries_total"),
            (*injector)->injected(FaultKind::kTransientError));
  EXPECT_EQ(counters.End("serving_retry_deadline_giveups_total"), 0);
  EXPECT_EQ(counters.End("serving_fault_injected_total", {{"kind", "error"}}),
            (*injector)->injected(FaultKind::kTransientError));
}

TEST(ServingStackTest, RetryBackoffIsChargedAsMeasuredTime) {
  auto script = FaultScript::Parse("seed 21\n@0..100000 error * 0.4\n");
  ASSERT_TRUE(script.ok());
  auto injector = FaultInjector::Create(*script);
  ASSERT_TRUE(injector.ok());

  ServingOptions options;
  options.shards = 2;
  options.cache_enabled = false;  // A hit never reaches the fault machinery.
  options.retry.max_attempts = 6;
  // Pinned 5ms base: with jitter in [0.5, 1.0] every sleep is >= 2.5ms.
  options.retry.initial_backoff_s = 0.005;
  options.retry.max_backoff_s = 0.005;
  options.fault_injector = injector->get();
  auto stack = ServingStack::Create(options, engine::CreateSciDb, TinyData());
  ASSERT_TRUE(stack.ok());

  ExecContext ctx;
  int retried_ops = 0;
  for (int i = 0; i < 12; ++i) {
    const auto result = (*stack)->Serve(core::QueryId::kStatistics,
                                        core::DatasetSize::kSmall,
                                        TinyOptions(), &ctx);
    ExpectBranch(result, /*shed=*/false, /*cache_hit=*/false,
                 /*coalesced=*/false);
    if (result.retries == 0) continue;
    ++retried_ops;
    // Backoff sleeps are real seconds the op's client waited: they land in
    // the cell's measured share, never in its modeled seconds, and in the
    // dispatch stage beside the modeled round trip.
    const core::CellResult& cell = result.cell;
    EXPECT_GE(cell.total_s - cell.modeled_s, 0.0025 * result.retries)
        << "op " << i << " retries=" << result.retries
        << " total=" << cell.total_s << " modeled=" << cell.modeled_s;
    EXPECT_GE(result.stages[obs::RequestStage::kDispatch],
              0.0025 * result.retries);
  }
  // Deterministic draws (seed 21, same as the recovery test above).
  EXPECT_GT(retried_ops, 0);
}

TEST(ServingStackTest, RetryBudgetIsBoundedByTheStartDeadline) {
  auto script = FaultScript::Parse("seed 23\n@0..100000 error * 1\n");
  ASSERT_TRUE(script.ok());
  auto injector = FaultInjector::Create(*script);
  ASSERT_TRUE(injector.ok());

  ServingOptions options;
  options.shards = 2;
  options.cache_enabled = false;
  options.admission.max_inflight = 4;
  options.admission.max_queue = 4;
  options.admission.max_queue_delay_s = 0.01;  // 10ms start budget.
  options.retry.max_attempts = 8;
  options.retry.initial_backoff_s = 0.1;  // Min jittered backoff: 50ms.
  options.retry.max_backoff_s = 0.1;
  options.fault_injector = injector->get();
  auto stack = ServingStack::Create(options, engine::CreateSciDb, TinyData());
  ASSERT_TRUE(stack.ok());

  ExecContext ctx;
  const auto result = (*stack)->Serve(core::QueryId::kStatistics,
                                      core::DatasetSize::kSmall, TinyOptions(),
                                      &ctx);
  // Every attempt fails by script, and the first retry's backoff alone
  // exceeds the whole 10ms budget: the op errors out with zero retries
  // rather than sleeping past its deadline.
  EXPECT_FALSE(result.shed);
  EXPECT_FALSE(result.cell.status.ok());
  EXPECT_EQ(result.retries, 0);
  const obs::MetricsWindow counters =
      CountersNow((*stack)->metric_instances());
  EXPECT_EQ(counters.End("serving_retries_total"), 0);
  EXPECT_EQ(counters.End("serving_retry_deadline_giveups_total"), 1);
}

TEST(ServingStackTest, InjectedReloadFailureQuarantinesThenHeals) {
  auto script = FaultScript::Parse("seed 31\n@1 reload-fail 0\n");
  ASSERT_TRUE(script.ok());
  auto injector = FaultInjector::Create(*script);
  ASSERT_TRUE(injector.ok());

  ServingOptions options = CacheOnlyOptions(2);
  options.fault_injector = injector->get();
  auto stack = ServingStack::Create(options, engine::CreateSciDb, TinyData());
  ASSERT_TRUE(stack.ok());
  ExecContext ctx;

  // One serve ticks the script (arming the failure) and fills the cache.
  const auto first = (*stack)->Serve(core::QueryId::kRegression,
                                     core::DatasetSize::kSmall, TinyOptions(),
                                     &ctx);
  ASSERT_TRUE(first.cell.status.ok());
  const uint64_t epoch0 = (*stack)->current_epoch();

  // Mid-roll failure: shard 0's load fails, the roll aborts, the epoch
  // stays pinned to the old generation, and shard 0 is quarantined.
  EXPECT_FALSE((*stack)->ReloadDataset(TinyData()).ok());
  EXPECT_EQ((*stack)->current_epoch(), epoch0);
  EXPECT_EQ(Health(CountersNow((*stack)->metric_instances()), 0),
            ShardHealth::kDown);

  // The fleet keeps serving through the window: old-generation cache
  // entries are still valid (the epoch never moved), and new work routes
  // to the surviving replica.
  const auto hit = (*stack)->Serve(core::QueryId::kRegression,
                                   core::DatasetSize::kSmall, TinyOptions(),
                                   &ctx);
  EXPECT_TRUE(hit.cache_hit);
  const auto routed = (*stack)->Serve(core::QueryId::kStatistics,
                                      core::DatasetSize::kSmall, TinyOptions(),
                                      &ctx);
  ASSERT_TRUE(routed.cell.status.ok());
  EXPECT_EQ(routed.shard, 1);

  // The next roll succeeds (the armed failure was consumed), advances the
  // epoch, and heals the quarantined shard — with zero stale hits anywhere.
  ASSERT_TRUE((*stack)->ReloadDataset(TinyData()).ok());
  EXPECT_EQ((*stack)->current_epoch(), epoch0 + 1);
  const obs::MetricsWindow counters =
      CountersNow((*stack)->metric_instances());
  EXPECT_EQ(Health(counters, 0), ShardHealth::kHealthy);
  EXPECT_EQ(counters.End("serving_stack_stale_hits_total"), 0);
  // Only completed rolls count.
  EXPECT_EQ(counters.End("serving_stack_reloads_total"), 1);
  EXPECT_EQ(counters.End("serving_fault_injected_total",
                         {{"kind", "reload-fail"}}),
            1);
  EXPECT_EQ((*injector)->injected(FaultKind::kReloadFailure), 1);
}

TEST(ServingStackTest, HealthGaugeFollowsAFaultAppliedOnACacheHit) {
  // The second serve is a cache hit, so it never reaches the router; its
  // injector tick crashes shard 0 all the same, and the published health
  // must say so.
  auto script = FaultScript::Parse("seed 5\n@2 crash 0\n");
  ASSERT_TRUE(script.ok());
  auto injector = FaultInjector::Create(*script);
  ASSERT_TRUE(injector.ok());
  ServingOptions options = CacheOnlyOptions(2);
  options.fault_injector = injector->get();
  auto stack = ServingStack::Create(options, engine::CreateSciDb, TinyData());
  ASSERT_TRUE(stack.ok());
  ExecContext ctx;
  const auto miss = (*stack)->Serve(core::QueryId::kRegression,
                                    core::DatasetSize::kSmall, TinyOptions(),
                                    &ctx);
  ASSERT_FALSE(miss.cache_hit);
  const auto hit = (*stack)->Serve(core::QueryId::kRegression,
                                   core::DatasetSize::kSmall, TinyOptions(),
                                   &ctx);
  ASSERT_TRUE(hit.cache_hit);
  EXPECT_EQ((*injector)->injected(FaultKind::kCrash), 1);
  EXPECT_EQ(Health(CountersNow((*stack)->metric_instances()), 0),
            ShardHealth::kDown);
}

/// Wraps a real engine but parks RunQuery on a gate and fails it while
/// `failing` is up — for orchestrating single-flight leader failures with
/// controlled timing.
class GatedErrorEngine : public core::Engine {
 public:
  static std::atomic<bool>& failing() {
    static std::atomic<bool> flag{false};
    return flag;
  }
  static std::atomic<bool>& release() {
    static std::atomic<bool> flag{false};
    return flag;
  }
  static std::atomic<int>& entered() {
    static std::atomic<int> count{0};
    return count;
  }

  GatedErrorEngine() : inner_(engine::CreateSciDb()) {}
  std::string name() const override { return inner_->name(); }
  bool SupportsQuery(core::QueryId query) const override {
    return inner_->SupportsQuery(query);
  }
  void PrepareContext(ExecContext* ctx) override {
    inner_->PrepareContext(ctx);
  }
  genbase::Result<core::QueryResult> RunQuery(
      core::QueryId query, const core::QueryParams& params,
      ExecContext* ctx) override {
    if (!failing().load()) return inner_->RunQuery(query, params, ctx);
    entered().fetch_add(1);
    while (!release().load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return genbase::Status::Internal("gated failure");
  }

 protected:
  genbase::Status DoLoadDataset(const core::GenBaseData& data) override {
    return inner_->LoadDataset(data);
  }
  void DoUnloadDataset() override { inner_->UnloadDataset(); }

 private:
  std::unique_ptr<core::Engine> inner_;
};

TEST(ServingStackTest, FollowerFallbackKeepsTheOriginalDeadline) {
  GatedErrorEngine::failing() = true;
  GatedErrorEngine::release() = false;
  GatedErrorEngine::entered() = 0;

  ServingOptions options;
  options.shards = 2;
  options.cache_enabled = true;
  options.single_flight = true;
  options.admission.max_inflight = 4;
  options.admission.max_queue = 4;
  options.admission.max_queue_delay_s = 1.0;  // 1s start budget per op.
  options.retry.max_attempts = 4;
  options.retry.initial_backoff_s = 1.0;  // Min jittered backoff: 0.5s.
  options.retry.max_backoff_s = 1.0;
  auto stack = ServingStack::Create(
      options, [] { return std::make_unique<GatedErrorEngine>(); },
      TinyData());
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();

  ServeResult leader_result;
  ExecContext leader_ctx;
  std::thread leader([&] {
    leader_result = (*stack)->Serve(core::QueryId::kSvd,
                                    core::DatasetSize::kSmall, TinyOptions(),
                                    &leader_ctx);
  });
  // Wait until the leader is parked inside the engine, then send in a
  // follower on the same key; it joins the leader's flight.
  while (GatedErrorEngine::entered().load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ServeResult follower_result;
  ExecContext follower_ctx;
  std::thread follower([&] {
    follower_result = (*stack)->Serve(core::QueryId::kSvd,
                                      core::DatasetSize::kSmall, TinyOptions(),
                                      &follower_ctx);
  });
  while (CountersNow((*stack)->metric_instances())
             .End("serving_flight_coalesced_total") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Burn ~80% of the follower's budget on the gate, then fail the leader.
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  GatedErrorEngine::release() = true;
  leader.join();
  follower.join();
  GatedErrorEngine::failing() = false;

  // The leader's only attempt failed; with ~0.2s of budget left, the 0.5s+
  // backoff does not fit, so it gave up instead of retrying.
  EXPECT_FALSE(leader_result.cell.status.ok());
  EXPECT_EQ(leader_result.retries, 0);
  // The follower fell back to its own execution — on the op's ORIGINAL
  // deadline. A fresh 1s budget would have granted its retry; the ~0.2s
  // actually left did not, so it too failed without retrying.
  EXPECT_FALSE(follower_result.shed);
  EXPECT_FALSE(follower_result.cell.status.ok());
  EXPECT_FALSE(follower_result.cache_hit);
  EXPECT_EQ(follower_result.retries, 0);
  ExpectBranch(leader_result, /*shed=*/false, /*cache_hit=*/false,
               /*coalesced=*/false);
  ExpectBranch(follower_result, /*shed=*/false, /*cache_hit=*/false,
               /*coalesced=*/false);
  // The fallback keeps the ~0.8s it waited on the flight as queueing.
  EXPECT_GE(follower_result.stages[obs::RequestStage::kFlight], 0.5);
  EXPECT_EQ(leader_result.stages[obs::RequestStage::kFlight], 0.0);

  const obs::MetricsWindow counters =
      CountersNow((*stack)->metric_instances());
  EXPECT_EQ(counters.End("serving_flight_leaders_total"), 1);
  EXPECT_EQ(counters.End("serving_flight_coalesced_total"), 1);
  EXPECT_EQ(counters.End("serving_flight_follower_fallbacks_total"), 1);
  // Every follower is accounted exactly once across the three outcomes.
  EXPECT_EQ(counters.End("serving_flight_coalesced_total"),
            counters.End("serving_flight_coalesced_served_total") +
                counters.End("serving_flight_follower_fallbacks_total") +
                counters.End("serving_flight_shed_wait_timeout_total"));
  EXPECT_EQ(counters.End("serving_retries_total"), 0);
  EXPECT_EQ(counters.End("serving_retry_deadline_giveups_total"), 2);
  // One leader attempt + one follower fallback.
  EXPECT_EQ(counters.End("serving_shard_ops_total"), 2);
}

}  // namespace
}  // namespace genbase::serving
