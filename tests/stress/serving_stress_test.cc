// Race-hunting stress for the serving tier: ResultCache + single-flight
// stampedes racing ReloadDataset's epoch bump and invalidation, and the
// AdmissionController's adaptive limit churning under concurrent
// Admit/Release traffic.
//
// The correctness claims under test are the ones fig7/fig8 gate on at the
// macro level, here driven at maximum contention with no workload runner in
// between:
//   * a Serve() racing a reload never observes a cross-epoch (stale) result
//     — the tripwire must stay silent,
//   * cache counter reconciliation (entries == insertions - evictions -
//     invalidated) holds after any interleaving,
//   * a single-flight leader's publish reaches exactly the followers of its
//     own flight; follower counts stay consistent,
//   * the adaptive limit stays inside [min_inflight, max_inflight_cap] at
//     every instant, and slots are never leaked (inflight returns to 0).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/exec_context.h"
#include "common/single_flight.h"
#include "engine/engines.h"
#include "obs/metrics.h"
#include "serving/admission.h"
#include "serving/result_cache.h"
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

TEST(ServingStressTest, StampedeRacesReloadWithoutStaleness) {
  ServingOptions options;
  options.shards = 2;
  options.cache_enabled = true;
  options.cache_max_entries = 16;  // Small: eviction churns alongside.
  options.single_flight = true;
  auto stack =
      ServingStack::Create(options, engine::CreateSciDb, TinyData());
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();

  constexpr int kClients = 6;
  constexpr int kOpsPerClient = 40;
  constexpr int kVariants = 3;  // Few keys -> constant stampedes.
  constexpr int kReloads = 8;

  std::atomic<bool> churn_done{false};
  std::atomic<int64_t> stale_tripwires{0};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> served{0};

  // Churn thread: rolling drain-and-reload back to back while clients fire.
  std::thread churn([&] {
    for (int r = 0; r < kReloads; ++r) {
      const genbase::Status st = (*stack)->ReloadDataset(TinyData());
      if (!st.ok()) errors.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    churn_done.store(true, std::memory_order_release);
  });

  Hammer(kClients, [&](int t) {
    ExecContext ctx;
    uint64_t rng = 0xc0ffee + static_cast<uint64_t>(t);
    for (int i = 0; i < kOpsPerClient; ++i) {
      // Cheap queries only — the point is key-level contention, not FLOPs.
      const core::QueryId query = (NextRand(&rng) % 2 == 0)
                                      ? core::QueryId::kRegression
                                      : core::QueryId::kStatistics;
      const int variant = static_cast<int>(NextRand(&rng) % kVariants);
      const ServeResult r =
          (*stack)->Serve(query, core::DatasetSize::kSmall,
                          TinyOptions(variant), &ctx);
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

  EXPECT_EQ(stale_tripwires.load(), 0) << "cross-epoch result served";
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(served.load(), int64_t{kClients} * kOpsPerClient);

  obs::MetricsWindow counters((*stack)->metric_instances());
  counters.Stop();
  // Reconciliation must survive eviction + epoch invalidation racing
  // inserts from in-flight misses of the previous generation.
  EXPECT_EQ(counters.End("serving_cache_entries"),
            counters.End("serving_cache_insertions_total") -
                counters.End("serving_cache_evictions_total") -
                counters.End("serving_cache_invalidated_total"));
  EXPECT_EQ(counters.End("serving_cache_hits_total") +
                counters.End("serving_cache_misses_total"),
            int64_t{kClients} * kOpsPerClient);
  EXPECT_GE(counters.End("serving_stack_reloads_total"), kReloads);
  // Single-flight bookkeeping: every coalesced follower was either served
  // by its leader or fell back / timed out — never more serves than joins.
  EXPECT_LE(counters.End("serving_flight_coalesced_served_total"),
            counters.End("serving_flight_coalesced_total"));
  EXPECT_TRUE(churn_done.load());
}

TEST(ServingStressTest, SingleFlightPublishRacesInvalidation) {
  // Direct table-level stampede: many threads join flights on few keys
  // while epochs advance and the cache invalidates underneath. Each round
  // has exactly one leader per key; the leader publishes a result tagged
  // with the key's epoch, and every served follower must observe exactly
  // that tag (torn or cross-flight hand-off would break it).
  using Flights = SingleFlight<CacheKey, core::QueryResult, CacheKeyHash>;
  Flights flights;
  const std::string instance = obs::MetricsRegistry::NextInstanceId("stress");
  ResultCache cache(/*max_entries=*/64, /*max_bytes=*/1 << 20, instance);

  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  constexpr int kKeys = 2;
  std::atomic<int64_t> leaders{0};
  std::atomic<int64_t> served{0};
  std::atomic<int64_t> mismatches{0};

  for (int round = 0; round < kRounds; ++round) {
    const auto epoch = static_cast<uint64_t>(round);
    Hammer(kThreads, [&](int t) {
      const CacheKey key{core::QueryId::kSvd,
                         static_cast<uint64_t>(t % kKeys),
                         core::DatasetSize::kSmall, epoch};
      Flights::Ticket ticket = flights.Join(key);
      if (ticket.leader()) {
        leaders.fetch_add(1, std::memory_order_relaxed);
        core::QueryResult result;
        result.query = core::QueryId::kSvd;
        // Payload encodes (epoch, key): served followers cross-check it.
        result.svd.singular_values = {
            static_cast<double>(epoch),
            static_cast<double>(key.params_fingerprint)};
        cache.Insert(key, result);
        ticket.Publish(result);
      } else {
        core::QueryResult out;
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
        if (ticket.Wait(deadline, &out) == Flights::WaitResult::kServed) {
          served.fetch_add(1, std::memory_order_relaxed);
          if (out.svd.singular_values.size() != 2 ||
              out.svd.singular_values[0] != static_cast<double>(epoch) ||
              out.svd.singular_values[1] !=
                  static_cast<double>(key.params_fingerprint)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      // Invalidation races the publishes of this very round.
      if (t == 0) cache.InvalidateEpochsBelow(epoch);
    });
    ASSERT_EQ(flights.open_flights(), 0) << "flight leaked in round "
                                         << round;
  }

  EXPECT_EQ(mismatches.load(), 0);
  // Exactly one leader per (round, key) pair that was contended; a thread
  // may also arrive after the publish closed the flight and lead a fresh
  // one, so leaders >= kRounds * kKeys and leaders + served == total joins.
  EXPECT_GE(leaders.load(), int64_t{kRounds} * kKeys);
  EXPECT_EQ(leaders.load() + served.load(), int64_t{kRounds} * kThreads);

  obs::MetricsWindow stats({instance});
  stats.Stop();
  EXPECT_EQ(stats.End("serving_cache_entries"),
            stats.End("serving_cache_insertions_total") -
                stats.End("serving_cache_evictions_total") -
                stats.End("serving_cache_invalidated_total"));
}

TEST(ServingStressTest, AdaptiveAdmissionChurnsWithoutLeakingSlots) {
  AdmissionOptions options;
  options.adaptive = true;
  options.min_inflight = 1;
  options.max_inflight_cap = 8;
  options.adjust_interval = 4;  // Adjust constantly, not occasionally.
  options.max_queue = 16;
  options.max_queue_delay_s = 0.25;
  options.target_queue_delay_s = 0.001;
  const std::string instance = obs::MetricsRegistry::NextInstanceId("stress");
  AdmissionController admission(options, instance);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 300;
  std::atomic<bool> done{false};
  std::atomic<int64_t> admitted{0};
  std::atomic<int64_t> shed{0};
  std::atomic<int64_t> limit_violations{0};

  // Observer: the live limit must stay within bounds at every sample, not
  // just at the end.
  std::thread observer([&] {
    while (!done.load(std::memory_order_acquire)) {
      const int limit = admission.current_limit();
      if (limit < options.min_inflight || limit > options.max_inflight_cap) {
        limit_violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  Hammer(kThreads, [&](int t) {
    uint64_t rng = 0xad315510 + static_cast<uint64_t>(t);
    for (int i = 0; i < kOpsPerThread; ++i) {
      const int class_id = static_cast<int>(NextRand(&rng) % 3);
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(options.max_queue_delay_s));
      double waited = 0.0;
      bool heavy = false;
      const AdmissionOutcome outcome =
          admission.Admit(deadline, &waited, class_id, &heavy);
      if (outcome != AdmissionOutcome::kAdmitted) {
        shed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      admitted.fetch_add(1, std::memory_order_relaxed);
      // Simulated service: class 2 is the heavy one (longer hold), so the
      // classifier has a real signal to churn on.
      const double service_s = class_id == 2 ? 400e-6 : 20e-6;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(service_s));
      admission.Release(class_id, service_s, heavy);
    }
  });
  done.store(true, std::memory_order_release);
  observer.join();

  EXPECT_EQ(limit_violations.load(), 0);
  EXPECT_EQ(admitted.load() + shed.load(),
            int64_t{kThreads} * kOpsPerThread);

  obs::MetricsWindow stats({instance});
  stats.Stop();
  EXPECT_EQ(stats.End("serving_admission_admitted_total"), admitted.load());
  EXPECT_EQ(stats.End("serving_admission_shed_queue_full_total") +
                stats.End("serving_admission_shed_timeout_total"),
            shed.load());
  EXPECT_GE(stats.End("serving_admission_limit"), options.min_inflight);
  EXPECT_LE(stats.End("serving_admission_limit"), options.max_inflight_cap);

  // No leaked slots: with all ops released, a full batch of min_inflight
  // admissions must go straight through (no waiting on phantom inflight).
  for (int i = 0; i < options.min_inflight; ++i) {
    ASSERT_EQ(admission.Admit(std::nullopt), AdmissionOutcome::kAdmitted);
  }
  for (int i = 0; i < options.min_inflight; ++i) admission.Release();
}

}  // namespace
}  // namespace genbase::serving
