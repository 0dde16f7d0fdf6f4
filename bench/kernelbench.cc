// Kernel microbenchmark suite: times dot/gemv/gemm/syrk/covariance and the
// Cheng–Church residue engines across GenBase-shaped sizes, for scalar vs
// SIMD vs threaded variants, plus the naive covariance kernel and the two
// glue transfers the engine models rest on, and the serving stack's
// result-cache hit and miss paths (serve/hit, serve/miss: the paths
// perfbench's serving_hot and serving_churn run), and emits
// BENCH_kernels.json so the perf trajectory of the hot kernels is a tracked
// number.
//
//   kernelbench [--json=BENCH_kernels.json] [--baseline=FILE]
//               [--benchmark_repetitions=N]
//
// With N repetitions every number below (summary, gates, JSON) is the
// median of each kernel's N times, and the console lists their range.
//
// Enforced on every run (no clock involved): (c) the incremental
// Cheng–Church engine spends < 1/5 of the reference engine's residue FLOPs,
// and the static-plan gates — no plan guard word overwritten, and the
// planned engine's tracked peak within 1.5x the legacy path's, both read
// on an engine of their own. With --baseline the run additionally becomes
// the CI perf gate and exits nonzero when (a) any kernel regressed > 15%
// against the committed baseline ns (serve/* included: CI's real-time
// regression watch on the serving paths), (b) the SIMD Gemm/Syrk variants
// are < 2x the scalar backend on the same packed path (AVX2 hosts), (d) the
// naive covariance (KernelQuality::kNaive, the Mahout model) is < 4x
// covariance/scalar, (e) the CSV round trip (+R glue) is < 100x the
// in-process UDF transfer (+UDF glue), or a cached plan executes > 10%
// slower than the legacy path (skipped under sanitizers). Gates (b), (d)
// and (e) are clock ratios on one host, so machine-independent; the
// absolute baseline (a) is committed with headroom and refreshed when the
// CI runner generation changes (see bench/baselines/kernels_ci.json).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bicluster/cheng_church.h"
#include "bicluster/synthetic.h"
#include "common/check.h"
#include "common/exec_context.h"
#include "common/json.h"
#include "common/memory_tracker.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/generator.h"
#include "engine/engine_util.h"
#include "linalg/blas.h"
#include "linalg/covariance.h"
#include "linalg/lanczos.h"
#include "linalg/matrix.h"
#include "obs/perf_counters.h"
#include "plan/plan_builder.h"
#include "plan/plan_engine.h"
#include "plan/plan_stats.h"
#include "serving/serving_stack.h"

namespace {

using genbase::Rng;
using genbase::ThreadPool;
using genbase::bicluster::ChengChurch;
using genbase::bicluster::ChengChurchCounters;
using genbase::bicluster::ChengChurchImpl;
using genbase::bicluster::ChengChurchOptions;
using genbase::bicluster::MeanSquaredResidue;
using genbase::bicluster::PlantedBiclusterMatrix;
using genbase::linalg::Matrix;
using genbase::linalg::MatrixView;

/// --- GenBase-shaped workloads ------------------------------------------------
/// The microarray matrix is (genes x patients); regression/SVD work on tall
/// panels, covariance/Syrk contract the sample dimension over a gene block.
constexpr int64_t kVecLen = 1 << 16;        // BLAS-1 streams.
constexpr int64_t kGemvRows = 1024, kGemvCols = 512;
constexpr int64_t kGemmM = 384, kGemmK = 384, kGemmN = 384;
constexpr int64_t kSyrkRows = 1024, kSyrkCols = 384;
constexpr int64_t kCcRows = 384, kCcCols = 288;
constexpr int64_t kGlueDim = 256;

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Gaussian();
  return m;
}

std::vector<double> RandomVector(int64_t n, uint64_t seed) {
  std::vector<double> v(static_cast<size_t>(n));
  Rng rng(seed);
  for (auto& x : v) x = rng.Gaussian();
  return v;
}

/// Every repetition's real time (ns/iteration), keyed by name.
std::map<std::string, std::vector<double>>& Samples() {
  static std::map<std::string, std::vector<double>> s;
  return s;
}

/// Per-benchmark median of Samples() (ns/iteration), keyed by name: what
/// the summary, the gates and the JSON read.
std::map<std::string, double>& Results() {
  static std::map<std::string, double> r;
  return r;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // With --benchmark_repetitions, the _mean/_median/_stddev/_cv rows
      // would land on the kernel's own name below: keep only repetitions.
      if (run.run_type == Run::RT_Aggregate || run.iterations <= 0) continue;
      // Strip the "/min_time:…" decoration so names match registration.
      std::string name = run.benchmark_name();
      const size_t cut = name.find("/min_time");
      if (cut != std::string::npos) name.resize(cut);
      // real_accumulated_time is unit-independent (seconds over all
      // iterations) — GetAdjustedRealTime would be scaled by the display
      // unit.
      std::vector<double>& samples = Samples()[name];
      samples.push_back(1e9 * run.real_accumulated_time /
                        static_cast<double>(run.iterations));
      Results()[name] = Median(samples);
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

/// One line per repeated benchmark: its median and the range of its
/// repetitions. Prints nothing for single runs.
void PrintSpread() {
  bool header = false;
  for (const auto& [name, samples] : Samples()) {
    if (samples.size() < 2) continue;
    if (!header) {
      std::printf("\n--- medians over repetitions [min, max] ---\n");
      header = true;
    }
    const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
    std::printf("  %-32s %12.1f us  [%.1f, %.1f]  n=%zu\n", name.c_str(),
                1e-3 * Results()[name], 1e-3 * *lo, 1e-3 * *hi,
                samples.size());
  }
}

/// Scoped backend override for one benchmark body.
class ScopedBackend {
 public:
  explicit ScopedBackend(genbase::simd::Backend b)
      : previous_(genbase::simd::SetBackend(b)) {}
  ~ScopedBackend() { genbase::simd::SetBackend(previous_); }

 private:
  genbase::simd::Backend previous_;
};

constexpr auto kScalar = genbase::simd::Backend::kScalar;
constexpr auto kSimd = genbase::simd::Backend::kSimd;

/// FLOP counts per invocation, for the GFLOP/s column.
double KernelFlops(const std::string& kernel) {
  if (kernel == "dot") return 2.0 * kVecLen;
  if (kernel == "axpy") return 2.0 * kVecLen;
  if (kernel == "gemv") return 2.0 * kGemvRows * kGemvCols;
  if (kernel == "gemm") return 2.0 * kGemmM * kGemmK * kGemmN;
  // Upper triangle only (mirror is free-ish): m * n * (n + 1) FMAs.
  if (kernel == "syrk" || kernel == "covariance") {
    return static_cast<double>(kSyrkRows) * kSyrkCols * (kSyrkCols + 1);
  }
  return 0.0;
}

std::string KernelOf(const std::string& name) {
  return name.substr(0, name.find('/'));
}

/// Matches queries.cc: delta as a fraction of the full-matrix MSR.
double CcDelta(const Matrix& m) {
  return 0.05 * MeanSquaredResidue(MatrixView(m));
}

void RegisterAll(ThreadPool* pool) {
  // Inputs are leaked intentionally: benchmarks reference them until exit.
  auto* xv = new std::vector<double>(RandomVector(kVecLen, 1));
  auto* yv = new std::vector<double>(RandomVector(kVecLen, 2));
  auto* gemv_a = new Matrix(RandomMatrix(kGemvRows, kGemvCols, 3));
  auto* gemv_x = new std::vector<double>(RandomVector(kGemvCols, 4));
  auto* gemv_y = new std::vector<double>(static_cast<size_t>(kGemvRows));
  auto* gemm_a = new Matrix(RandomMatrix(kGemmM, kGemmK, 5));
  auto* gemm_b = new Matrix(RandomMatrix(kGemmK, kGemmN, 6));
  auto* gemm_c = new Matrix(kGemmM, kGemmN);
  auto* syrk_a = new Matrix(RandomMatrix(kSyrkRows, kSyrkCols, 7));
  auto* syrk_c = new Matrix(kSyrkCols, kSyrkCols);
  auto* cc = new Matrix(PlantedBiclusterMatrix(kCcRows, kCcCols, 8));
  auto* glue = new Matrix(RandomMatrix(kGlueDim, kGlueDim, 9));

  auto reg = [](const std::string& name, auto fn) {
    benchmark::RegisterBenchmark(name.c_str(), fn)
        ->MinTime(0.05)
        ->Unit(benchmark::kMicrosecond);
  };

  for (const auto backend : {kScalar, kSimd}) {
    const std::string v = genbase::simd::BackendName(backend);
    reg("dot/" + v, [=](benchmark::State& state) {
      ScopedBackend sb(backend);
      for (auto _ : state) {
        benchmark::DoNotOptimize(
            genbase::linalg::Dot(xv->data(), yv->data(), kVecLen));
      }
    });
    reg("axpy/" + v, [=](benchmark::State& state) {
      ScopedBackend sb(backend);
      for (auto _ : state) {
        genbase::linalg::Axpy(1e-6, xv->data(), yv->data(), kVecLen);
        benchmark::DoNotOptimize(yv->data());
      }
    });
    reg("gemv/" + v, [=](benchmark::State& state) {
      ScopedBackend sb(backend);
      for (auto _ : state) {
        genbase::linalg::Gemv(MatrixView(*gemv_a), gemv_x->data(),
                              gemv_y->data());
        benchmark::DoNotOptimize(gemv_y->data());
      }
    });
    reg("gemm/" + v, [=](benchmark::State& state) {
      ScopedBackend sb(backend);
      for (auto _ : state) {
        benchmark::DoNotOptimize(genbase::linalg::Gemm(
            MatrixView(*gemm_a), MatrixView(*gemm_b), gemm_c));
      }
    });
    reg("syrk/" + v, [=](benchmark::State& state) {
      ScopedBackend sb(backend);
      for (auto _ : state) {
        benchmark::DoNotOptimize(
            genbase::linalg::Syrk(MatrixView(*syrk_a), syrk_c));
      }
    });
    reg("covariance/" + v, [=](benchmark::State& state) {
      ScopedBackend sb(backend);
      for (auto _ : state) {
        auto cov = genbase::linalg::CovarianceMatrix(
            MatrixView(*syrk_a), genbase::linalg::KernelQuality::kTuned);
        benchmark::DoNotOptimize(cov);
      }
    });
  }

  // The premises of two engine models, gated by (d) and (e) in main():
  // KernelQuality::kNaive's hand-rolled covariance (plain loops, no
  // backend) against the tuned path, and the +R configurations' CSV round
  // trip against the +UDF configurations' in-process transfer.
  reg("covariance/naive", [=](benchmark::State& state) {
    for (auto _ : state) {
      auto cov = genbase::linalg::CovarianceMatrix(
          MatrixView(*syrk_a), genbase::linalg::KernelQuality::kNaive);
      benchmark::DoNotOptimize(cov);
    }
  });
  reg("glue/csv", [=](benchmark::State& state) {
    for (auto _ : state) {
      auto out = genbase::engine::CsvRoundTripMatrix(MatrixView(*glue),
                                                     nullptr);
      GENBASE_CHECK(out.ok());
      benchmark::DoNotOptimize(out);
    }
  });
  reg("glue/udf", [=](benchmark::State& state) {
    for (auto _ : state) {
      auto out =
          genbase::engine::UdfTransferMatrix(MatrixView(*glue), nullptr);
      GENBASE_CHECK(out.ok());
      benchmark::DoNotOptimize(out);
    }
  });

  // Threaded variants (SIMD backend + the default pool).
  reg("gemm/simd_threaded", [=](benchmark::State& state) {
    ScopedBackend sb(kSimd);
    for (auto _ : state) {
      benchmark::DoNotOptimize(genbase::linalg::Gemm(
          MatrixView(*gemm_a), MatrixView(*gemm_b), gemm_c, pool));
    }
  });
  reg("syrk/simd_threaded", [=](benchmark::State& state) {
    ScopedBackend sb(kSimd);
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          genbase::linalg::Syrk(MatrixView(*syrk_a), syrk_c, pool));
    }
  });

  // Cheng–Church residue engines: whole-extraction timing; per-iteration
  // figures come from the counter run in main().
  for (const auto impl : {ChengChurchImpl::kReference,
                          ChengChurchImpl::kIncremental}) {
    const std::string v = impl == ChengChurchImpl::kReference
                              ? "reference" : "incremental";
    reg("residue/" + v, [=](benchmark::State& state) {
      ScopedBackend sb(kSimd);
      ChengChurchOptions opt;
      opt.delta = CcDelta(*cc);
      opt.max_biclusters = 1;
      opt.min_rows = 4;
      opt.min_cols = 4;
      opt.impl = impl;
      for (auto _ : state) {
        benchmark::DoNotOptimize(ChengChurch(MatrixView(*cc), opt));
      }
    });
  }
}

/// --- static-plan query benches ----------------------------------------------
/// plan_compile/qN times one full CompileQuery (filters, joins, mappings,
/// layout, and every folded op); plan_execute/qN times one
/// cached-plan execution (only the ops that read bound params);
/// legacy_execute/qN is the per-run PrepareInputsColumnar + analytics path
/// the plan replaces, on the same tables and kernels.

constexpr double kPlanScale = 0.02;

genbase::core::QueryParams PlanParams() {
  genbase::core::QueryParams p;
  p.svd_rank = 6;
  p.bicluster_count = 2;
  p.sample_fraction = 0.1;
  return p;
}

/// A planned engine and the legacy path's tables, each loaded with the
/// kPlanScale dataset and charged to its own tracker.
struct PlanBench {
  genbase::plan::PlanEngine engine;
  std::shared_ptr<genbase::engine::ColumnarTables> tables =
      std::make_shared<genbase::engine::ColumnarTables>();
  genbase::MemoryTracker legacy_tracker{genbase::MemoryTracker::kUnlimited,
                                        "LegacyBench"};

  PlanBench() {
    auto data = genbase::core::GenerateDataset(
        genbase::core::DatasetSize::kSmall, kPlanScale);
    GENBASE_CHECK(data.ok());
    GENBASE_CHECK(engine.LoadDataset(*data).ok());
    GENBASE_CHECK(genbase::engine::LoadColumnarTables(*data, &legacy_tracker,
                                                      tables.get())
                      .ok());
  }

  /// The instance the timed benches share.
  static PlanBench& Get() {
    static auto* b = new PlanBench();
    return *b;
  }
};

genbase::Result<genbase::core::QueryResult> RunLegacyQuery(
    PlanBench& b, genbase::core::QueryId q, genbase::ExecContext* ctx) {
  GENBASE_ASSIGN_OR_RETURN(
      genbase::engine::QueryInputs inputs,
      genbase::engine::PrepareInputsColumnar(*b.tables, q, PlanParams(), ctx));
  return genbase::engine::RunStandardAnalytics(
      q, std::move(inputs), PlanParams(),
      genbase::linalg::KernelQuality::kTuned, ctx);
}

/// --- serving paths ----------------------------------------------------------
/// serve/hit times one Serve() answered by the result cache (every op of
/// perfbench's serving_hot); serve/miss times one that misses, leads its
/// flight, executes the cached plan, inserts and evicts (serving_churn's
/// miss path). Each row owns a default stack (1 shard, result cache and
/// single flight on) over the planned column store, loaded with the
/// kPlanScale dataset on the row's first run.
struct ServeBench {
  genbase::core::QueryId query;
  std::vector<genbase::core::DriverOptions> keys;
  std::unique_ptr<genbase::serving::ServingStack> stack;
  size_t next = 0;

  ServeBench(genbase::core::QueryId q,
             std::vector<genbase::core::DriverOptions> k)
      : query(q), keys(std::move(k)) {
    auto data = genbase::core::GenerateDataset(
        genbase::core::DatasetSize::kSmall, kPlanScale);
    GENBASE_CHECK(data.ok());
    auto created = genbase::serving::ServingStack::Create(
        genbase::serving::ServingOptions{}, genbase::plan::CreatePlanStore,
        *data);
    GENBASE_CHECK(created.ok());
    stack = std::move(created).ValueOrDie();
  }

  /// Serves the next key in turn.
  genbase::serving::ServeResult ServeNext(genbase::ExecContext* ctx) {
    const genbase::core::DriverOptions& options = keys[next++ % keys.size()];
    return stack->Serve(query, genbase::core::DatasetSize::kSmall, options,
                        ctx);
  }

  /// One untimed serve (on the row's first run it compiles the plan), then
  /// the timed loop: every op must be OK, and a cache hit exactly when
  /// `hit`.
  void Time(benchmark::State& state, bool hit) {
    ScopedBackend sb(kSimd);
    genbase::ExecContext ctx;
    GENBASE_CHECK(ServeNext(&ctx).cell.status.ok());
    for (auto _ : state) {
      genbase::serving::ServeResult r = ServeNext(&ctx);
      GENBASE_CHECK(r.cell.status.ok() && r.cache_hit == hit);
      benchmark::DoNotOptimize(r);
    }
  }
};

genbase::core::DriverOptions ServeOptions(double significance) {
  genbase::core::DriverOptions options;
  options.params = PlanParams();
  options.params.significance = significance;
  return options;
}

/// Twice the cache's entries, served in turn, so each key has been evicted
/// by the time it comes round again. They differ only in `significance`,
/// which is bound at execute (outside plan::ShapeFingerprint), so every op
/// runs the one cached plan.
std::vector<genbase::core::DriverOptions> MissKeys() {
  const int64_t n = 2 * genbase::serving::ServingOptions{}.cache_max_entries;
  std::vector<genbase::core::DriverOptions> keys;
  for (int64_t i = 0; i < n; ++i) {
    keys.push_back(ServeOptions(0.005 + 0.045 * static_cast<double>(i) /
                                            static_cast<double>(n)));
  }
  return keys;
}

void RegisterPlanBenches() {
  auto reg = [](const std::string& name, auto fn) {
    benchmark::RegisterBenchmark(name.c_str(), fn)
        ->MinTime(0.05)
        ->Unit(benchmark::kMicrosecond);
  };
  for (const auto q : genbase::core::kAllQueries) {
    const std::string qn = genbase::core::QueryName(q);
    reg("plan_compile/" + qn, [q](benchmark::State& state) {
      ScopedBackend sb(kSimd);
      PlanBench& b = PlanBench::Get();
      genbase::ExecContext ctx;
      b.engine.PrepareContext(&ctx);
      for (auto _ : state) {
        auto plan = genbase::plan::CompileQuery(b.tables, q, PlanParams(),
                                                b.engine.tracker(), &ctx);
        GENBASE_CHECK(plan.ok());
        benchmark::DoNotOptimize(plan);
      }
    });
    reg("plan_execute/" + qn, [q](benchmark::State& state) {
      ScopedBackend sb(kSimd);
      PlanBench& b = PlanBench::Get();
      genbase::ExecContext ctx;
      b.engine.PrepareContext(&ctx);
      // Warm the plan cache so the loop times execution, not compilation.
      GENBASE_CHECK(b.engine.RunQuery(q, PlanParams(), &ctx).ok());
      for (auto _ : state) {
        auto r = b.engine.RunQuery(q, PlanParams(), &ctx);
        GENBASE_CHECK(r.ok());
        benchmark::DoNotOptimize(r);
      }
    });
    reg("legacy_execute/" + qn, [q](benchmark::State& state) {
      ScopedBackend sb(kSimd);
      PlanBench& b = PlanBench::Get();
      genbase::ExecContext ctx;
      ctx.set_memory(&b.legacy_tracker);
      for (auto _ : state) {
        auto r = RunLegacyQuery(b, q, &ctx);
        GENBASE_CHECK(r.ok());
        benchmark::DoNotOptimize(r);
      }
    });
  }

  // The path an execute takes when its rank stops past the plan's Lanczos
  // record (where a fused Gram apply would pay): a record freshly seeded
  // with the rank-1 run, seeded untimed, then extended to PlanParams' rank
  // with Gram steps and a T_m solve at each new m, and published.
  reg("lanczos/continue", [](benchmark::State& state) {
    ScopedBackend sb(kSimd);
    PlanBench& b = PlanBench::Get();
    genbase::ExecContext ctx;  // No tracker and no pool, as a plan execute.
    auto inputs = genbase::engine::PrepareInputsColumnar(
        *b.tables, genbase::core::QueryId::kSvd, PlanParams(), &ctx);
    GENBASE_CHECK(inputs.ok());
    const MatrixView x(inputs->x);
    std::optional<genbase::linalg::LanczosRecord> record;
    for (auto _ : state) {
      state.PauseTiming();
      record.emplace();
      GENBASE_CHECK(genbase::core::SvdPrefix(
                        x, genbase::linalg::KernelQuality::kTuned, &*record,
                        &ctx)
                        .ok());
      const int seeded = record->snapshot()->state.iterations();
      state.ResumeTiming();
      auto r = genbase::core::SvdAnalytics(
          x, PlanParams().svd_rank, genbase::linalg::KernelQuality::kTuned,
          &ctx, &*record);
      GENBASE_CHECK(r.ok() && r->iterations > seeded);
      benchmark::DoNotOptimize(r);
    }
  });

  // The path an execute takes when its delta lies in no piece of the
  // plan's Cheng-Church record: a record freshly seeded with the prefix,
  // seeded untimed, then one Q3 run at PlanParams' delta and count that
  // continues the prefix and publishes its piece.
  reg("bicluster/continue", [](benchmark::State& state) {
    ScopedBackend sb(kSimd);
    PlanBench& b = PlanBench::Get();
    genbase::ExecContext ctx;  // No tracker and no pool, as a plan execute.
    auto inputs = genbase::engine::PrepareInputsColumnar(
        *b.tables, genbase::core::QueryId::kBiclustering, PlanParams(), &ctx);
    GENBASE_CHECK(inputs.ok());
    const MatrixView x(inputs->x);
    std::optional<genbase::bicluster::ChengChurchRecord> record;
    for (auto _ : state) {
      state.PauseTiming();
      record.emplace();
      GENBASE_CHECK(genbase::core::BiclusterPrefix(x, &*record, &ctx).ok());
      state.ResumeTiming();
      auto r = genbase::core::BiclusterAnalytics(
          x, PlanParams().bicluster_delta_fraction,
          PlanParams().bicluster_count, &ctx, nullptr, &*record);
      GENBASE_CHECK(r.ok());
      benchmark::DoNotOptimize(r);
    }
  });

  reg("serve/hit", [](benchmark::State& state) {
    static auto* b = new ServeBench(genbase::core::QueryId::kRegression,
                                    {ServeOptions(PlanParams().significance)});
    b->Time(state, /*hit=*/true);
  });
  reg("serve/miss", [](benchmark::State& state) {
    static auto* b =
        new ServeBench(genbase::core::QueryId::kStatistics, MissKeys());
    b->Time(state, /*hit=*/false);
  });
}

/// Deterministic plan gates, enforced on every run (no clock involved):
/// every compiled plan must compile and execute without overwriting a
/// guard word in any region (plan_peak_mismatch_total stays put), and the
/// planned engine's total tracked peak must stay within a documented factor
/// of the legacy path's. The gates run on a fresh engine, tables and legacy
/// tracker, so the plans and arenas the timed benches left cached do not
/// count and the peak reads the same whatever --benchmark_filter ran.
int RunPlanGates() {
  int failures = 0;
  PlanBench b;
  genbase::ExecContext ctx;
  b.engine.PrepareContext(&ctx);
  const genbase::obs::Counter* mismatches =
      genbase::plan::PlanMetrics::Get().peak_mismatches;
  const int64_t mismatches_before = mismatches->Value();
  for (const auto q : genbase::core::kAllQueries) {
    auto plan = b.engine.CompileForTest(q, PlanParams(), &ctx);
    if (!plan.ok()) {
      std::fprintf(stderr, "GATE FAIL: plan compile %s: %s\n",
                   genbase::core::QueryName(q),
                   plan.status().ToString().c_str());
      ++failures;
      continue;
    }
    auto r = b.engine.RunQuery(q, PlanParams(), &ctx);
    if (!r.ok()) {
      std::fprintf(stderr, "GATE FAIL: plan execute %s: %s\n",
                   genbase::core::QueryName(q),
                   r.status().ToString().c_str());
      ++failures;
    }
  }
  const int64_t guard_hits = mismatches->Value() - mismatches_before;
  if (guard_hits != 0) {
    std::fprintf(stderr, "GATE FAIL: %lld plan guard words overwritten\n",
                 static_cast<long long>(guard_hits));
    ++failures;
  }
  // Memory-peak gate: run the five legacy queries against the legacy
  // tracker (tables + tracked per-run temporaries), then compare engine
  // totals. The planned engine's peak additionally holds five cached
  // plans' retained regions plus their pooled arenas, and a compile's
  // transient statics and scratch region, so parity is not the bar;
  // staying within 1.5x is. A layout or retention blow-up trips this long
  // before it hurts RSS.
  {
    genbase::ExecContext legacy_ctx;
    legacy_ctx.set_memory(&b.legacy_tracker);
    for (const auto q : genbase::core::kAllQueries) {
      auto r = RunLegacyQuery(b, q, &legacy_ctx);
      if (!r.ok()) {
        std::fprintf(stderr, "GATE FAIL: legacy execute %s: %s\n",
                     genbase::core::QueryName(q),
                     r.status().ToString().c_str());
        ++failures;
      }
    }
  }
  const int64_t plan_peak = b.engine.tracker()->peak();
  const int64_t legacy_peak = b.legacy_tracker.peak();
  const double ratio = static_cast<double>(plan_peak) /
                       static_cast<double>(std::max<int64_t>(1, legacy_peak));
  if (2 * plan_peak > 3 * legacy_peak) {
    std::fprintf(stderr,
                 "GATE FAIL: planned engine peak %lldB > 1.5x legacy "
                 "%lldB (%.2fx)\n",
                 static_cast<long long>(plan_peak),
                 static_cast<long long>(legacy_peak), ratio);
    ++failures;
  }
  if (failures == 0) {
    std::printf("# plan gates passed: guards intact, peak planned=%lldB "
                "legacy=%lldB (%.2fx)\n",
                static_cast<long long>(plan_peak),
                static_cast<long long>(legacy_peak), ratio);
  }
  return failures;
}

/// Relative planned-vs-legacy throughput gate: cached planned execution
/// must not run slower than the per-run prepare+analytics path it replaces
/// (>10% grace). Clock-dependent, so CI (--baseline) mode only; sanitizer
/// builds skip it — instrumentation taxes the two paths asymmetrically.
int RunPlanSpeedGates() {
  int failures = 0;
  for (const auto q : genbase::core::kAllQueries) {
    const std::string qn = genbase::core::QueryName(q);
    const auto planned = Results().find("plan_execute/" + qn);
    const auto legacy = Results().find("legacy_execute/" + qn);
    if (planned == Results().end() || legacy == Results().end()) continue;
    if (planned->second > legacy->second * 1.10) {
      std::fprintf(stderr,
                   "GATE FAIL: plan_execute/%s %.0fns slower than legacy "
                   "%.0fns (>10%%)\n",
                   qn.c_str(), planned->second, legacy->second);
      ++failures;
    }
  }
  return failures;
}

/// One counted extraction per engine, for the FLOP-reduction gate and the
/// per-iteration timing lines.
struct ResidueAccounting {
  ChengChurchCounters reference;
  ChengChurchCounters incremental;
  double flop_ratio() const {
    return incremental.residue_flops > 0
               ? static_cast<double>(reference.residue_flops) /
                     static_cast<double>(incremental.residue_flops)
               : 0.0;
  }
};

ResidueAccounting CountResidueWork() {
  const Matrix m = PlantedBiclusterMatrix(kCcRows, kCcCols, 8);
  ResidueAccounting acc;
  ChengChurchOptions opt;
  opt.delta = CcDelta(m);
  opt.max_biclusters = 1;
  opt.min_rows = 4;
  opt.min_cols = 4;
  opt.impl = ChengChurchImpl::kReference;
  opt.counters = &acc.reference;
  (void)ChengChurch(MatrixView(m), opt);
  opt.impl = ChengChurchImpl::kIncremental;
  opt.counters = &acc.incremental;
  (void)ChengChurch(MatrixView(m), opt);
  return acc;
}

/// Hardware-counter profile of the SIMD kernel variants: one delta-read of
/// the thread's perf_event group around a fixed batch of invocations per
/// kernel. When the counters cannot open (perf_event_paranoid, no PMU,
/// non-Linux) every reading is invalid and serializes as nulls — the
/// profile degrades, the benchmark never fails because of it.
std::map<std::string, genbase::obs::PerfReading> ProfileKernels() {
  std::map<std::string, genbase::obs::PerfReading> out;
  genbase::obs::PerfCounterSet* counters = genbase::obs::ThreadPerfCounters();
  ScopedBackend sb(kSimd);

  const std::vector<double> xv = RandomVector(kVecLen, 1);
  std::vector<double> yv = RandomVector(kVecLen, 2);
  const Matrix gemv_a = RandomMatrix(kGemvRows, kGemvCols, 3);
  const std::vector<double> gemv_x = RandomVector(kGemvCols, 4);
  std::vector<double> gemv_y(static_cast<size_t>(kGemvRows));
  const Matrix gemm_a = RandomMatrix(kGemmM, kGemmK, 5);
  const Matrix gemm_b = RandomMatrix(kGemmK, kGemmN, 6);
  Matrix gemm_c(kGemmM, kGemmN);
  const Matrix syrk_a = RandomMatrix(kSyrkRows, kSyrkCols, 7);
  Matrix syrk_c(kSyrkCols, kSyrkCols);

  const auto profile = [&](const std::string& name, int reps, auto body) {
    const genbase::obs::PerfReading begin = counters->Read();
    for (int r = 0; r < reps; ++r) body();
    out[name] = counters->Read() - begin;
  };
  profile("dot/simd", 200, [&] {
    benchmark::DoNotOptimize(genbase::linalg::Dot(xv.data(), yv.data(),
                                                  kVecLen));
  });
  profile("gemv/simd", 50, [&] {
    genbase::linalg::Gemv(MatrixView(gemv_a), gemv_x.data(), gemv_y.data());
    benchmark::DoNotOptimize(gemv_y.data());
  });
  profile("gemm/simd", 3, [&] {
    benchmark::DoNotOptimize(
        genbase::linalg::Gemm(MatrixView(gemm_a), MatrixView(gemm_b),
                              &gemm_c));
  });
  profile("syrk/simd", 3, [&] {
    benchmark::DoNotOptimize(genbase::linalg::Syrk(MatrixView(syrk_a),
                                                   &syrk_c));
  });
  profile("covariance/simd", 3, [&] {
    auto cov = genbase::linalg::CovarianceMatrix(
        MatrixView(syrk_a), genbase::linalg::KernelQuality::kTuned);
    benchmark::DoNotOptimize(cov);
  });
  return out;
}

/// Each row's ceiling, `kernels.<row>.ns`, from a baseline file. Fails when
/// the file cannot be read, does not parse, or names no row.
genbase::Result<std::map<std::string, double>> ParseBaseline(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return genbase::Status::IOError("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  GENBASE_ASSIGN_OR_RETURN(const genbase::json::Value doc,
                           genbase::json::Parse(text.str()));
  std::map<std::string, double> out;
  if (const genbase::json::Value* kernels = doc.Find("kernels")) {
    for (const auto& [name, row] : kernels->object) {
      const genbase::json::Value* ns = row.Find("ns");
      if (ns == nullptr || !ns->is_number()) {
        return genbase::Status::InvalidArgument("kernels." + name +
                                                ".ns is not a number");
      }
      out[name] = ns->number;
    }
  }
  if (out.empty()) {
    return genbase::Status::InvalidArgument("no kernels.<row>.ns rows");
  }
  return out;
}

int WriteJson(const std::string& path, const ResidueAccounting& acc,
              const std::map<std::string, genbase::obs::PerfReading>& perf) {
  if (path.empty()) return 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\"figure\":\"kernelbench\",\"stamp\":%s,\n",
               genbase::bench::StampJson().c_str());
  std::fprintf(f, "\"cpu\":{\"avx2\":%s},\n",
               genbase::simd::CpuSupportsAvx2() ? "true" : "false");
  std::fprintf(f, "\"kernels\":{\n");
  bool first = true;
  for (const auto& [name, ns] : Results()) {
    const double flops = KernelFlops(KernelOf(name));
    std::fprintf(f, "%s\"%s\":{\"ns\":%.1f,\"gflops\":%.3f}", first ? "" : ",\n",
                 name.c_str(), ns, flops > 0 && ns > 0 ? flops / ns : 0.0);
    first = false;
  }
  std::fprintf(f, "\n},\n\"perf\":{");
  first = true;
  for (const auto& [name, reading] : perf) {
    std::fprintf(f, "%s\"%s\":%s", first ? "" : ",", name.c_str(),
                 reading.ToJson().c_str());
    first = false;
  }
  std::fprintf(f, "},\n\"residue\":{");
  std::fprintf(f,
               "\"reference_flops\":%lld,\"incremental_flops\":%lld,"
               "\"flop_ratio\":%.2f,\"reference_iterations\":%lld,"
               "\"incremental_iterations\":%lld}",
               static_cast<long long>(acc.reference.residue_flops),
               static_cast<long long>(acc.incremental.residue_flops),
               acc.flop_ratio(),
               static_cast<long long>(acc.reference.iterations),
               static_cast<long long>(acc.incremental.iterations));
  std::fprintf(f, "}\n");
  const bool write_error = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_error) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    return 1;
  }
  std::printf("# json report written to %s (%zu kernels)\n", path.c_str(),
              Results().size());
  return 0;
}

/// Median time of `slow` over that of `fast`; 0 when either did not run.
double RatioOf(const std::string& slow, const std::string& fast) {
  const auto s = Results().find(slow);
  const auto f = Results().find(fast);
  if (s == Results().end() || f == Results().end() || f->second <= 0) {
    return 0.0;
  }
  return s->second / f->second;
}

double SpeedupOf(const std::string& kernel) {
  return RatioOf(kernel + "/scalar", kernel + "/simd");
}

/// A model premise gated as a clock ratio: `slow` must take at least
/// `floor` times as long as `fast`.
struct PremiseGate {
  const char* gate;
  const char* slow;
  const char* fast;
  double floor;
};

// Floors against ratios measured on a 4-vCPU AVX2 host (RelWithDebInfo,
// four runs' medians of 3 repetitions):
// (d) KernelQuality::kNaive models Hadoop's Mahout kernels: covariance/naive
//     read 6.6-7.4x covariance/scalar (394-463 ms vs 53-70 ms at 1024x384).
//     Both rows are portable code, so the ratio does not depend on AVX2.
// (e) The +R configurations ship data through a CSV round trip, the +UDF
//     ones through an in-process copy: glue/csv read 1,107-1,292x glue/udf
//     (37-48 ms vs 33-38 us at 256x256).
constexpr PremiseGate kPremiseGates[] = {
    {"d", "covariance/naive", "covariance/scalar", 4.0},
    {"e", "glue/csv", "glue/udf", 100.0},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      genbase::bench::ExtractFlagValue(&argc, argv, "--json");
  const std::string baseline_path =
      genbase::bench::ExtractFlagValue(&argc, argv, "--baseline");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  ThreadPool* pool = genbase::DefaultPool();
  RegisterAll(pool);
  RegisterPlanBenches();
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  PrintSpread();

  const ResidueAccounting acc = CountResidueWork();
  const std::map<std::string, genbase::obs::PerfReading> perf =
      ProfileKernels();

  // Summary: scalar vs SIMD speedups plus the residue-engine accounting.
  std::printf("\n--- kernelbench summary (avx2 %s) ---\n",
              genbase::simd::CpuSupportsAvx2() ? "available" : "absent");
  for (const char* k : {"dot", "axpy", "gemv", "gemm", "syrk",
                        "covariance"}) {
    std::printf("  %-10s simd speedup %.2fx\n", k, SpeedupOf(k));
  }
  bool perf_valid = false;
  for (const auto& [name, reading] : perf) {
    if (!reading.valid) continue;
    perf_valid = true;
    std::printf("  %-16s ipc %.2f  cache-miss %.1f%%  (%.2e cycles)\n",
                name.c_str(), reading.ipc(),
                100.0 * reading.cache_miss_rate(),
                static_cast<double>(reading.cycles));
  }
  if (!perf_valid) {
    std::printf("  hardware counters unavailable "
                "(perf_event_open denied or no PMU)\n");
  }
  for (const PremiseGate& p : kPremiseGates) {
    std::printf("  (%s) %s / %s %.1fx (floor %.0fx)\n", p.gate, p.slow,
                p.fast, RatioOf(p.slow, p.fast), p.floor);
  }
  const auto ref_it = Results().find("residue/reference");
  const auto inc_it = Results().find("residue/incremental");
  if (ref_it != Results().end() && inc_it != Results().end()) {
    std::printf("  residue engines: reference %.0fus/iter (%lld iters), "
                "incremental %.0fus/iter (%lld iters), flop ratio %.1fx\n",
                1e-3 * ref_it->second /
                    std::max<int64_t>(1, acc.reference.iterations),
                static_cast<long long>(acc.reference.iterations),
                1e-3 * inc_it->second /
                    std::max<int64_t>(1, acc.incremental.iterations),
                static_cast<long long>(acc.incremental.iterations),
                acc.flop_ratio());
  }

  int failures = WriteJson(json_path, acc, perf);

  // The FLOP-reduction gate is deterministic: enforce it on every run.
  if (acc.flop_ratio() < 5.0) {
    std::fprintf(stderr,
                 "GATE FAIL: incremental Cheng-Church flop ratio %.2fx < 5x\n",
                 acc.flop_ratio());
    ++failures;
  }

  // Static-plan gates: arena-peak exactness, reuse and memory ceiling are
  // deterministic — every run; the planned-vs-legacy speed ratio is CI-only.
  failures += RunPlanGates();

  if (!baseline_path.empty()) {
    if (genbase::bench::SkipOverheadGates()) {
      std::printf("# plan speed gates skipped (sanitizer build or "
                  "GENBASE_SKIP_OVERHEAD_GATES)\n");
    } else {
      failures += RunPlanSpeedGates();
    }
  }

  if (!baseline_path.empty()) {
    // Relative speed gates (machine-independent) — CI mode only, because
    // they need a sane clock, not just sane code.
    if (genbase::simd::CpuSupportsAvx2()) {
      for (const char* k : {"gemm", "syrk"}) {
        const double speedup = SpeedupOf(k);
        if (speedup < 2.0) {
          std::fprintf(stderr,
                       "GATE FAIL: %s simd speedup %.2fx < 2x scalar\n", k,
                       speedup);
          ++failures;
        }
      }
    }
    for (const PremiseGate& p : kPremiseGates) {
      const double ratio = RatioOf(p.slow, p.fast);
      if (ratio < p.floor) {
        std::fprintf(stderr,
                     "GATE FAIL: (%s) %s / %s %.2fx < %.0fx floor\n",
                     p.gate, p.slow, p.fast, ratio, p.floor);
        ++failures;
      }
    }
    const auto baseline = ParseBaseline(baseline_path);
    if (!baseline.ok()) {
      std::fprintf(stderr, "GATE FAIL: cannot read baseline %s: %s\n",
                   baseline_path.c_str(),
                   baseline.status().ToString().c_str());
      ++failures;
    }
    const std::map<std::string, double> ceilings =
        baseline.ok() ? *baseline : std::map<std::string, double>{};
    for (const auto& [name, base_ns] : ceilings) {
      const auto it = Results().find(name);
      if (it == Results().end()) {
        std::fprintf(stderr, "GATE FAIL: baseline kernel %s not measured\n",
                     name.c_str());
        ++failures;
        continue;
      }
      if (it->second > base_ns * 1.15) {
        std::fprintf(stderr,
                     "GATE FAIL: %s regressed: %.0fns vs baseline %.0fns "
                     "(>15%%)\n",
                     name.c_str(), it->second, base_ns);
        ++failures;
      }
    }
    if (failures == 0) {
      std::printf("# baseline gate passed (%zu kernels within 15%%)\n",
                  ceilings.size());
    }
  }

  benchmark::Shutdown();
  return failures == 0 ? 0 : 1;
}
