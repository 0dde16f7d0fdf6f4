// Race-hunting stress for the process-global MetricsRegistry (obs/metrics.h).
//
// The registry's contract: GetCounter/GetGauge/GetHistogram may be called
// from any thread at any time; same (name, labels) always resolves to the
// same stable instrument pointer; updates through those pointers are atomic
// and nothing is ever lost. The races this suite hunts:
//   * concurrent first-registration of one key (two threads both miss the
//     map and try to create),
//   * registration of new instruments racing Snapshot()/exporters iterating
//     the map,
//   * high-rate concurrent updates racing snapshot reads.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "tests/stress/stress_util.h"

namespace genbase::obs {
namespace {

using stress::Hammer;
using stress::NextRand;

TEST(MetricsStressTest, ConcurrentInstrumentCreationIsStableAndExact) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::string run = MetricsRegistry::NextInstanceId("stress_create");

  constexpr int kThreads = 8;
  constexpr int kSharedCounters = 16;
  constexpr int kIncsPerCounter = 500;

  // Every thread resolves the same 16 keys (registration race) and hammers
  // each; label order is deliberately permuted per thread so canonicalization
  // is part of what's raced.
  std::vector<std::vector<Counter*>> resolved(kThreads);
  Hammer(kThreads, [&](int t) {
    std::vector<Counter*>& mine = resolved[static_cast<size_t>(t)];
    for (int c = 0; c < kSharedCounters; ++c) {
      Labels labels = {{"run", run}, {"c", std::to_string(c)}};
      if (t % 2 == 1) std::swap(labels[0], labels[1]);
      mine.push_back(reg.GetCounter("stress_shared_total", labels));
    }
    for (int i = 0; i < kIncsPerCounter; ++i) {
      for (Counter* c : mine) c->Inc();
    }
  });

  // Stability: all threads resolved identical pointers per key.
  for (int t = 1; t < kThreads; ++t) {
    for (int c = 0; c < kSharedCounters; ++c) {
      EXPECT_EQ(resolved[static_cast<size_t>(t)][static_cast<size_t>(c)],
                resolved[0][static_cast<size_t>(c)]);
    }
  }
  // Exactness: no increment lost in the registration race.
  for (int c = 0; c < kSharedCounters; ++c) {
    EXPECT_EQ(resolved[0][static_cast<size_t>(c)]->Value(),
              int64_t{kThreads} * kIncsPerCounter);
  }
}

TEST(MetricsStressTest, RegistrationRacesSnapshotAndExporters) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::string run = MetricsRegistry::NextInstanceId("stress_snap");

  constexpr int kWriters = 4;
  constexpr int kInstrumentsPerWriter = 200;
  std::atomic<bool> done{false};

  // Reader thread iterates the full registry (Snapshot + the JSON exporter)
  // while writers keep adding fresh instruments of all three kinds.
  std::thread reader([&] {
    size_t last_size = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = reg.Snapshot();
      EXPECT_GE(snap.size(), last_size);  // Instruments are never removed.
      last_size = snap.size();
      EXPECT_FALSE(reg.ToJson().empty());
    }
  });

  Hammer(kWriters, [&](int t) {
    for (int i = 0; i < kInstrumentsPerWriter; ++i) {
      const Labels labels = {{"run", run},
                             {"w", std::to_string(t)},
                             {"i", std::to_string(i)}};
      reg.GetCounter("stress_reg_counter_total", labels)->Inc(i);
      reg.GetGauge("stress_reg_gauge", labels)->Set(i);
      reg.GetHistogram("stress_reg_hist", labels)->Observe(1e-4 * (i + 1));
    }
  });
  done.store(true, std::memory_order_release);
  reader.join();

  // Post-race exactness for a sample of instruments.
  for (int t = 0; t < kWriters; ++t) {
    const Labels labels = {{"run", run},
                           {"w", std::to_string(t)},
                           {"i", "7"}};
    EXPECT_EQ(reg.GetCounter("stress_reg_counter_total", labels)->Value(), 7);
    EXPECT_DOUBLE_EQ(reg.GetGauge("stress_reg_gauge", labels)->Value(), 7.0);
    EXPECT_EQ(reg.GetHistogram("stress_reg_hist", labels)->Snapshot().count,
              1);
  }
}

TEST(MetricsStressTest, HotUpdatesVsSnapshotStayExact) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::string run = MetricsRegistry::NextInstanceId("stress_hot");
  const Labels labels = {{"run", run}};
  Counter* counter = reg.GetCounter("stress_hot_total", labels);
  Gauge* high_water = reg.GetGauge("stress_hot_max", labels);
  Gauge* accum = reg.GetGauge("stress_hot_sum", labels);
  Histogram* hist = reg.GetHistogram("stress_hot_seconds", labels);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  std::atomic<bool> done{false};

  std::thread snapshotter([&] {
    int64_t last_count = 0;
    while (!done.load(std::memory_order_acquire)) {
      // Monotone count is the only mid-race invariant asserted: min/max are
      // published after the bucket add by design (the +/-inf sentinels), so
      // a snapshot can catch the first observation between the two.
      const HistogramSnapshot s = hist->Snapshot();
      EXPECT_GE(s.count, last_count);
      last_count = s.count;
    }
  });

  Hammer(kThreads, [&](int t) {
    uint64_t rng = 0x9e3779b9u + static_cast<uint64_t>(t);
    for (int i = 0; i < kOpsPerThread; ++i) {
      counter->Inc();
      accum->Add(1.0);
      const double v = 1e-6 * static_cast<double>(NextRand(&rng) % 1000000);
      high_water->SetMax(v);
      hist->Observe(v);
    }
  });
  done.store(true, std::memory_order_release);
  snapshotter.join();

  constexpr int64_t kTotal = int64_t{kThreads} * kOpsPerThread;
  EXPECT_EQ(counter->Value(), kTotal);
  EXPECT_DOUBLE_EQ(accum->Value(), static_cast<double>(kTotal));
  const HistogramSnapshot s = hist->Snapshot();
  EXPECT_EQ(s.count, kTotal);
  EXPECT_DOUBLE_EQ(s.max, high_water->Value());
  EXPECT_LT(s.max, 1.0);
  EXPECT_GE(s.min, 0.0);
}

}  // namespace
}  // namespace genbase::obs
