// Self-tests of the benchmark's own helpers (perfbench --self-test). The
// smoke pass that checks every workload emits every metric named in
// BENCHMARK.json lives in run.py --self-test, which also runs these.

#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "bench.h"
#include "core/config.h"
#include "core/generator.h"
#include "core/reference.h"
#include "latency.h"
#include "spans.h"

namespace perfbench {

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool Near(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

void TestQuantileHelpers() {
  Check(Quantile({}, 0.5) == 0.0, "Quantile of empty is 0");
  Check(Quantile({3, 1, 4, 2}, 0.5) == 2.5, "Quantile interpolates median");
  Check(Quantile({3, 1, 4, 2}, 0.0) == 1.0, "Quantile q=0 is min");
  Check(Quantile({3, 1, 4, 2}, 1.0) == 4.0, "Quantile q=1 is max");
  Check(Median({5}) == 5.0, "Median of one value");
  Check(Ratio(1, 4) == 0.25, "Ratio 1/4");
  Check(Ratio(7, 0) == 0.0, "Ratio with zero base is 0");

  LatencyRecord empty;
  Check(empty.Quantile(0.5) == 0.0, "empty record quantile is 0");

  // 1..1000 ns: exact buckets, so quantiles land within 1 ns.
  LatencyRecord exact;
  for (int v = 1; v <= 1000; ++v) exact.AddNs(v);
  Check(exact.count() == 1000, "record counts samples");
  Check(std::abs(exact.Quantile(0.5) * 1e9 - 500.5) <= 1.0,
        "p50 of 1..1000 ns");
  Check(std::abs(exact.Quantile(0.99) * 1e9 - 990.5) <= 1.0,
        "p99 of 1..1000 ns");

  // Log range: 1 us .. 1 s, one sample per 1%, bucket width <= 0.2%.
  LatencyRecord wide;
  std::vector<double> values;
  for (double v = 1e-6; v < 1.0; v *= 1.01) {
    wide.AddSeconds(v);
    values.push_back(v);
  }
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    Check(Near(wide.Quantile(q), Quantile(values, q), 0.012),
          "log-range quantile q=" + std::to_string(q));
  }

  // Merge equals recording everything in one record.
  LatencyRecord a, b, both;
  for (int i = 0; i < 500; ++i) {
    a.AddNs(1000 + i * 37);
    both.AddNs(1000 + i * 37);
    b.AddNs(200000 + i * 911);
    both.AddNs(200000 + i * 911);
  }
  a.Merge(b);
  Check(a.count() == both.count() && a.Quantile(0.75) == both.Quantile(0.75),
        "merge");
  // Values beyond the top bucket clamp rather than overflow.
  LatencyRecord huge;
  huge.AddSeconds(1e7);
  Check(huge.Quantile(0.5) > 1000.0, "huge value clamps to top bucket");
}

void TestSpans() {
  const Clock::time_point t = Clock::now();
  auto at = [&](int us) { return t + std::chrono::microseconds(us); };
  SpanLog log(1, t, 2);
  log.Open("request", 7, at(0));
  log.Leaf("call", 7, at(10), at(60));
  log.Leaf("verify", 7, at(60), at(70));
  log.Close(at(100));
  Check(log.spans().size() == 2 && log.dropped() == 1,
        "span log keeps capacity, counts the rest");
  for (const SpanTotals& s : log.totals()) {
    if (s.name == "request") {
      Check(Near(s.total_s, 100e-6, 1e-9) && Near(s.self_s, 40e-6, 1e-9),
            "request self time excludes children");
    }
    if (s.name == "call") Check(Near(s.self_s, 50e-6, 1e-9), "leaf self");
  }
  Check(log.spans()[0].parent == log.spans()[1].parent &&
            log.spans()[0].parent != 0,
        "children share the request span as parent");
}

void TestParams() {
  namespace core = genbase::core;
  const double scale = core::SimConfig::Get().scale;
  Check(scale == 0.08, "GENBASE_SCALE pinned to 0.08");
  for (core::DatasetSize size :
       {core::DatasetSize::kSmall, core::DatasetSize::kMedium}) {
    for (uint64_t seed : {1, 2, 3}) {
      core::GeneratorOptions gen;
      gen.seed = seed;
      auto generated = core::GenerateDataset(size, scale, gen);
      Check(generated.ok(), "generate");
      if (!generated.ok()) continue;
      const core::GenBaseData& data = generated.ValueOrDie();
      const std::string where = std::string(core::DatasetSizeName(size)) +
                                " seed " + std::to_string(seed);
      const int64_t patients = data.dims.patients;
      auto nonempty = [&](const core::QueryParams& p, core::QueryId q) {
        switch (q) {
          case core::QueryId::kRegression:
            return core::SelectGenesByFunction(data, p.function_threshold)
                       .size() >= 2;
          case core::QueryId::kSvd:
            return static_cast<int64_t>(
                       core::SelectGenesByFunction(data, p.function_threshold)
                           .size()) >= p.svd_rank;
          case core::QueryId::kCovariance:
            return core::SelectPatientsByDisease(data, p.disease_id).size() >=
                   2;
          case core::QueryId::kBiclustering:
            return core::SelectPatientsByAgeGender(data, p.gender, p.max_age)
                       .size() >= 2;
          case core::QueryId::kStatistics:
            return core::SampleCount(patients, p.sample_fraction) >= 2;
        }
        return false;
      };
      const core::QueryParams pinned = PinnedParams(data);
      Rng rng = StreamFor(seed, "self-test");
      for (core::QueryId q : core::kAllQueries) {
        bool all = true;
        for (int i = 0; i < 300; ++i) {
          all &= nonempty(DrawParams(q, pinned, &rng), q);
        }
        Check(all, std::string("DrawParams non-empty: ") + core::QueryName(q) +
                       " on " + where);
      }
      for (core::QueryId q : core::kAllQueries) {
        Check(nonempty(pinned, q), std::string("PinnedParams non-empty: ") +
                                       core::QueryName(q) + " on " + where);
      }
      // Pinned selections are the same size on every seed.
      Check(std::abs(static_cast<double>(
                         core::SelectGenesByFunction(
                             data, pinned.function_threshold)
                             .size()) -
                     data.dims.genes / 2.0) <= data.dims.genes * 0.02,
            "PinnedParams selects half the genes on " + where);
    }
  }

  Rng rng = StreamFor(1, "self-test/keys");
  const std::vector<core::QueryId> all(std::begin(core::kAllQueries),
                                       std::end(core::kAllQueries));
  const core::QueryParams base;
  const std::vector<Key> keys =
      DrawKeys(all, {30, 20, 5, 15, 30}, 640, base, &rng);
  Check(keys.size() == 640, "DrawKeys draws the asked count");
  int per[6] = {0};
  for (const Key& k : keys) ++per[static_cast<int>(k.query)];
  Check(per[1] == 192 && per[2] == 128 && per[3] == 32 && per[4] == 96 &&
            per[5] == 192,
        "DrawKeys allocates by weight");
  std::set<std::string> distinct;
  for (const Key& k : keys) {
    const core::QueryParams& p = k.params;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%d/%lld/%lld/%.17g/%lld/%lld/%.17g/%d/%.17g/%.17g",
                  static_cast<int>(k.query),
                  static_cast<long long>(p.function_threshold),
                  static_cast<long long>(p.disease_id), p.covariance_quantile,
                  static_cast<long long>(p.max_age),
                  static_cast<long long>(p.gender), p.bicluster_delta_fraction,
                  p.svd_rank, p.sample_fraction, p.significance);
    distinct.insert(buf);
  }
  Check(distinct.size() == keys.size(), "DrawKeys keys are distinct");
  Rng again = StreamFor(1, "self-test/keys");
  const std::vector<Key> replay =
      DrawKeys(all, {30, 20, 5, 15, 30}, 640, base, &again);
  Check(replay.size() == keys.size() &&
            replay[100].params.function_threshold ==
                keys[100].params.function_threshold &&
            replay[400].params.significance == keys[400].params.significance,
        "DrawKeys is a pure function of the seed");
}

}  // namespace

int RunSelfTests() {
  failures = 0;
  TestQuantileHelpers();
  TestSpans();
  TestParams();
  std::printf("perfbench self-test: %s (%d failed checks)\n",
              failures == 0 ? "PASS" : "FAIL", failures);
  return failures;
}

}  // namespace perfbench
