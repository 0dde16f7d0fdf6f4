#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/datasets.h"
#include "core/queries.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// SplitMix64 stream: the benchmark's own generator for schedules and
/// params, so a change to the program's RNG never changes what is measured.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int64_t Int(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }
  /// Uniform double in [lo, hi).
  double Real(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

 private:
  uint64_t state_;
};

/// Independent stream for (seed, purpose, index).
Rng StreamFor(uint64_t seed, const char* purpose, uint64_t index = 0);

/// One (query, params) operation key and its reference answer.
struct Key {
  genbase::core::QueryId query = genbase::core::QueryId::kRegression;
  genbase::core::QueryParams params;
  genbase::core::QueryResult truth;
};

/// Draws params for `query` near `base`: only fields the cache key covers
/// change, and every selection stays non-empty at GENBASE_SCALE 0.08 on
/// small and medium data when `base` is PinnedParams of that data.
genbase::core::QueryParams DrawParams(genbase::core::QueryId query,
                                      const genbase::core::QueryParams& base,
                                      Rng* rng);

/// `count` keys with distinct params drawn near `base`, over `queries`,
/// allocated to queries in proportion to `weights`. Truths are not filled.
std::vector<Key> DrawKeys(const std::vector<genbase::core::QueryId>& queries,
                          const std::vector<double>& weights, int count,
                          const genbase::core::QueryParams& base, Rng* rng);

/// Paper-default params with the selection predicates pinned to fixed
/// selection sizes on `data` (half the genes by function code, the disease
/// whose patient count is nearest the mean, a fifth of the patients by
/// gender and age), so every seed does the same amount of work.
genbase::core::QueryParams PinnedParams(const genbase::core::GenBaseData& data);

/// One reported metric. A missing value (registry instrument absent while
/// its layer ran) prints as JSON null.
struct Metric {
  std::string name;
  std::optional<double> value;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

/// What one run hands back to main: the contract fields, the metrics of
/// the requested kind, and detail lines for the run's report file.
struct RunOutput {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< Problems found; printed to stderr.
  std::string detail_json;         ///< Extra report fields, a JSON object.
};

/// Names of the three workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload; false for an unknown name.
bool RunWorkload(const RunConfig& config, RunOutput* out);

/// Unit checks of the benchmark's own helpers; prints failures, returns
/// the number of failed checks.
int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
