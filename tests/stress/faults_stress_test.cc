// Race-hunting stress for the fault-tolerance layer: a scripted injector
// (crashes, recovery, transient-error and latency windows, armed reload
// failures) replayed against a live stack while a stampede of clients and a
// rolling-reload churn thread hammer it, plus a direct stress of the
// injector's lock-free tick path.
//
// The correctness claims under test are the ones bench/fig9_faults gates on
// at the macro level, here driven at maximum contention:
//   * no interleaving of crash/failover/retry/reload ever serves a
//     cross-epoch (stale) result — the tripwire must stay silent,
//   * every op is accounted exactly once (served or errored; nothing lost
//     inside the retry/fallback plumbing),
//   * failed execute attempts reconcile: per-shard errors equal retries
//     plus client-observed errors,
//   * failed reloads reconcile one-to-one with consumed reload-fail arms,
//     and the fleet heals once the script runs dry,
//   * the injector's op tick is lossless under concurrency and each
//     scheduled action applies exactly once.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "common/exec_context.h"
#include "engine/engines.h"
#include "obs/metrics.h"
#include "serving/faults.h"
#include "serving/serving_stack.h"
#include "tests/stress/stress_util.h"
#include "tests/tiny_data.h"

namespace genbase::serving {
namespace {

using stress::Hammer;
using stress::NextRand;
using testutil::TinyData;
using testutil::TinyParams;

core::DriverOptions TinyOptions(int variant = 0) {
  core::DriverOptions options;
  options.timeout_seconds = 30.0;
  options.params = TinyParams();
  // Distinct cache keys per variant without changing the workload class.
  options.params.function_threshold += variant;
  return options;
}

TEST(FaultsStressTest, CrashRecoverScriptRacesStampedeAndReloads) {
  // Ops are fleet-wide Serve ticks (6 clients x 60 ops = 360 total): shard 1
  // crashes and recovers, shard 0 crashes later, an any-shard error window
  // and a latency spike overlap them, and two reload-fail arms wait for the
  // churn thread. Everything is healed / expired well before the last op.
  auto script = FaultScript::Parse(
      "seed 77\n"
      "@5 crash 1\n"
      "@20 reload-fail 0\n"
      "@40..200 error * 0.25\n"
      "@60..220 latency 2 0.002\n"
      "@90 reload-fail 2\n"
      "@120 recover 1\n"
      "@150 crash 0\n"
      "@260 recover 0\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto injector = FaultInjector::Create(*script);
  ASSERT_TRUE(injector.ok());

  ServingOptions options;
  options.shards = 3;
  options.cache_enabled = true;
  options.cache_max_entries = 16;  // Small: eviction churns alongside.
  options.single_flight = true;
  options.retry.max_attempts = 6;
  options.retry.initial_backoff_s = 50e-6;
  options.retry.max_backoff_s = 400e-6;
  options.fault_injector = injector->get();
  auto stack = ServingStack::Create(options, engine::CreateSciDb, TinyData());
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();

  constexpr int kClients = 6;
  constexpr int kOpsPerClient = 60;
  constexpr int kVariants = 3;  // Few keys -> constant stampedes.
  constexpr int kReloads = 10;

  std::atomic<bool> churn_done{false};
  std::atomic<int64_t> reload_failures{0};
  std::atomic<int64_t> stale_tripwires{0};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> served{0};

  // Churn thread: rolling reloads racing the fault schedule — some consume
  // an armed reload-fail and abort mid-roll (quarantining a shard), the
  // next one heals it.
  std::thread churn([&] {
    for (int r = 0; r < kReloads; ++r) {
      const genbase::Status st = (*stack)->ReloadDataset(TinyData());
      if (!st.ok()) reload_failures.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    churn_done.store(true, std::memory_order_release);
  });

  Hammer(kClients, [&](int t) {
    ExecContext ctx;
    uint64_t rng = 0xfa1u + static_cast<uint64_t>(t);
    for (int i = 0; i < kOpsPerClient; ++i) {
      // Cheap queries only — the point is fault-path contention, not FLOPs.
      const core::QueryId query = (NextRand(&rng) % 2 == 0)
                                      ? core::QueryId::kRegression
                                      : core::QueryId::kStatistics;
      const int variant = static_cast<int>(NextRand(&rng) % kVariants);
      const ServeResult r = (*stack)->Serve(
          query, core::DatasetSize::kSmall, TinyOptions(variant), &ctx);
      if (r.stale_tripwire) {
        stale_tripwires.fetch_add(1, std::memory_order_relaxed);
      }
      if (r.shed) continue;  // Admission is off, but stay defensive.
      if (!r.cell.status.ok()) {
        errors.fetch_add(1, std::memory_order_relaxed);
      } else {
        served.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  churn.join();
  EXPECT_TRUE(churn_done.load());

  // The load-bearing gate: however crashes, retries, reload failures and
  // invalidation interleaved, no op ever saw a cross-epoch result.
  EXPECT_EQ(stale_tripwires.load(), 0) << "cross-epoch result served";
  // Every op accounted exactly once.
  EXPECT_EQ(served.load() + errors.load(),
            int64_t{kClients} * kOpsPerClient);

  // Leftover reload-fail arms (the churn may outpace the op clock) are
  // consumed by at most one aborted roll each; then the fleet must heal.
  genbase::Status final_reload = (*stack)->ReloadDataset(TinyData());
  int final_reload_failures = 0;
  for (int i = 0; i < 4 && !final_reload.ok(); ++i) {
    ++final_reload_failures;
    final_reload = (*stack)->ReloadDataset(TinyData());
  }
  EXPECT_TRUE(final_reload.ok()) << final_reload.ToString();

  obs::MetricsWindow counters((*stack)->metric_instances());
  counters.Stop();
  EXPECT_EQ(counters.End("serving_stack_stale_hits_total"), 0);
  // A successful full roll heals every quarantined shard.
  for (const std::string& shard :
       counters.LabelValues("serving_shard_health", "shard")) {
    EXPECT_EQ(counters.End("serving_shard_health", {{"shard", shard}}),
              static_cast<double>(ShardHealth::kHealthy))
        << "shard " << shard;
  }
  // Cache reconciliation survives eviction + epoch invalidation racing
  // retried inserts.
  EXPECT_EQ(counters.End("serving_cache_entries"),
            counters.End("serving_cache_insertions_total") -
                counters.End("serving_cache_evictions_total") -
                counters.End("serving_cache_invalidated_total"));
  EXPECT_EQ(counters.End("serving_cache_hits_total") +
                counters.End("serving_cache_misses_total"),
            int64_t{kClients} * kOpsPerClient);
  // Single-flight bookkeeping: every follower resolved exactly one way.
  EXPECT_EQ(counters.End("serving_flight_coalesced_total"),
            counters.End("serving_flight_coalesced_served_total") +
                counters.End("serving_flight_follower_fallbacks_total") +
                counters.End("serving_flight_shed_wait_timeout_total"));
  // Failed-attempt reconciliation: every failed execute attempt (injected
  // transient, crashed-shard fail-fast, quarantined-shard fail-fast) was
  // either retried or surfaced as the op's error — none vanished.
  EXPECT_EQ(counters.End("serving_shard_errors_total"),
            counters.End("serving_retries_total") + errors.load());
  EXPECT_LE(counters.End("serving_retry_successes_total"),
            counters.End("serving_retries_total"));
  // Reload failures reconcile one-to-one with consumed reload-fail arms.
  EXPECT_EQ(
      counters.End("serving_fault_injected_total", {{"kind", "reload-fail"}}),
      reload_failures.load() + final_reload_failures);
  EXPECT_EQ(counters.End("serving_fault_injected_total", {{"kind", "error"}}),
            (*injector)->injected(FaultKind::kTransientError));
  EXPECT_EQ((*injector)->injected(FaultKind::kCrash), 2);
  EXPECT_EQ((*injector)->injected(FaultKind::kRecover), 2);
}

TEST(FaultsStressTest, ConcurrentTicksApplyEachScheduledActionExactlyOnce) {
  auto script = FaultScript::Parse(
      "seed 13\n"
      "@100 crash 0\n"
      "@150..500 error * 0.3\n"
      "@200..400 latency 1 0.001\n"
      "@250 recover 0\n");
  ASSERT_TRUE(script.ok());
  auto injector = FaultInjector::Create(*script);
  ASSERT_TRUE(injector.ok());
  FaultInjector& faults = **injector;

  constexpr int kThreads = 8;
  constexpr int kTicks = 200;  // 1600 ticks total: far past every event.
  std::atomic<int64_t> draws_fired{0};
  Hammer(kThreads, [&](int t) {
    uint64_t rng = 0xfa17 + static_cast<uint64_t>(t);
    for (int i = 0; i < kTicks; ++i) {
      const uint64_t op = faults.OnServe();
      // Hot-path reads race the scheduled flips on purpose.
      (void)faults.ShardCrashed(0);
      (void)faults.ShardLatencySeconds(1);
      const int shard = static_cast<int>(NextRand(&rng) % 2);
      if (faults.DrawTransientError(shard, op, 1)) {
        draws_fired.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // The tick is lossless: the next op continues right after the stampede.
  EXPECT_EQ(faults.OnServe(), uint64_t{kThreads} * kTicks + 1);
  // Each scheduled action applied (and was counted) exactly once.
  EXPECT_EQ(faults.injected(FaultKind::kCrash), 1);
  EXPECT_EQ(faults.injected(FaultKind::kRecover), 1);
  EXPECT_EQ(faults.injected(FaultKind::kLatencySpike), 1);
  EXPECT_EQ(faults.injected(FaultKind::kTransientError), draws_fired.load());
  EXPECT_FALSE(faults.ShardCrashed(0));  // Recovered by the end.
  EXPECT_DOUBLE_EQ(faults.ShardLatencySeconds(1), 0.0);  // Window expired.

  const std::string log = faults.EventLog();
  const size_t crash_line = log.find("@100 crash shard=0");
  ASSERT_NE(crash_line, std::string::npos);
  EXPECT_EQ(log.find("@100 crash shard=0", crash_line + 1),
            std::string::npos);
  const size_t recover_line = log.find("@250 recover shard=0");
  ASSERT_NE(recover_line, std::string::npos);
  EXPECT_EQ(log.find("@250 recover shard=0", recover_line + 1),
            std::string::npos);
}

}  // namespace
}  // namespace genbase::serving
