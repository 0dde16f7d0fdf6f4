// Kernel microbenchmark suite: times dot/gemv/gemm/syrk/covariance and the
// Cheng–Church residue engines across GenBase-shaped sizes, for scalar vs
// SIMD vs threaded variants, and emits BENCH_kernels.json so the perf
// trajectory of the hot kernels is a tracked number.
//
//   kernelbench [--json=BENCH_kernels.json] [--baseline=FILE]
//
// The Cheng–Church FLOP gate — incremental engine must spend < 1/5 of the
// reference engine's residue FLOPs — is deterministic and enforced on every
// run. With --baseline the run additionally becomes the CI perf gate and
// exits nonzero when (a) any kernel regressed > 15% against the committed
// baseline ns, or (b) the SIMD Gemm/Syrk variants are < 2x the scalar path
// (AVX2 hosts). Gate (b) is machine-independent by construction; the
// absolute baseline (a) is committed with headroom and refreshed when the
// CI runner generation changes (see bench/baselines/kernels_ci.json).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bicluster/cheng_church.h"
#include "bicluster/synthetic.h"
#include "common/check.h"
#include "common/exec_context.h"
#include "common/memory_tracker.h"
#include "common/rng.h"
#include "common/sanitizers.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/generator.h"
#include "engine/engine_util.h"
#include "linalg/blas.h"
#include "linalg/covariance.h"
#include "linalg/matrix.h"
#include "obs/perf_counters.h"
#include "plan/plan_builder.h"
#include "plan/plan_engine.h"
#include "plan/plan_stats.h"

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

/// Captured per-benchmark mean real time (ns/iteration), keyed by name.
std::map<std::string, double>& Results() {
  static std::map<std::string, double> r;
  return r;
}

class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // Strip the "/min_time:…" decoration so names match registration.
      std::string name = run.benchmark_name();
      const size_t cut = name.find("/min_time");
      if (cut != std::string::npos) name.resize(cut);
      // real_accumulated_time is unit-independent (seconds over all
      // iterations) — GetAdjustedRealTime would be scaled by the display
      // unit.
      if (run.iterations > 0) {
        Results()[name] =
            1e9 * run.real_accumulated_time / static_cast<double>(run.iterations);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

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
  std::vector<int64_t> rows(static_cast<size_t>(m.rows()));
  std::vector<int64_t> cols(static_cast<size_t>(m.cols()));
  for (int64_t i = 0; i < m.rows(); ++i) rows[static_cast<size_t>(i)] = i;
  for (int64_t j = 0; j < m.cols(); ++j) cols[static_cast<size_t>(j)] = j;
  return 0.05 * MeanSquaredResidue(MatrixView(m), rows, cols);
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

struct PlanBench {
  genbase::plan::PlanEngine engine;
  std::shared_ptr<genbase::engine::ColumnarTables> tables;
  genbase::MemoryTracker legacy_tracker{genbase::MemoryTracker::kUnlimited,
                                        "LegacyBench"};

  static PlanBench& Get() {
    static auto* b = [] {
      auto* pb = new PlanBench();
      auto data = genbase::core::GenerateDataset(
          genbase::core::DatasetSize::kSmall, kPlanScale);
      GENBASE_CHECK(data.ok());
      GENBASE_CHECK(pb->engine.LoadDataset(*data).ok());
      pb->tables = std::make_shared<genbase::engine::ColumnarTables>();
      GENBASE_CHECK(genbase::engine::LoadColumnarTables(
                        *data, &pb->legacy_tracker, pb->tables.get())
                        .ok());
      return pb;
    }();
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
}

/// Deterministic plan gates, enforced on every run (no clock involved):
/// every compiled plan must compile and execute without overwriting a
/// guard word in any region (plan_peak_mismatch_total stays put), and the
/// planned engine's total tracked peak must stay within a documented factor
/// of the legacy path's.
int RunPlanGates() {
  int failures = 0;
  PlanBench& b = PlanBench::Get();
  genbase::ExecContext ctx;
  b.engine.PrepareContext(&ctx);
  const int64_t mismatches_before =
      genbase::plan::PlanStatsSnapshot::Capture().peak_mismatches;
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
  const int64_t guard_hits =
      genbase::plan::PlanStatsSnapshot::Capture().peak_mismatches -
      mismatches_before;
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
bool SkipOverheadGates() {
  if (genbase::kUnderSanitizer) return true;
  const char* env = std::getenv("GENBASE_SKIP_OVERHEAD_GATES");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

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

/// Baseline files keep one kernel per line: `"gemm/scalar":{"ns":123.4},`.
std::map<std::string, double> ParseBaseline(const std::string& path,
                                            bool* ok) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  *ok = in.good();
  std::string line;
  while (std::getline(in, line)) {
    const size_t name_start = line.find('"');
    if (name_start == std::string::npos) continue;
    const size_t name_end = line.find('"', name_start + 1);
    if (name_end == std::string::npos) continue;
    const std::string name =
        line.substr(name_start + 1, name_end - name_start - 1);
    if (name.find('/') == std::string::npos) continue;  // Not a kernel row.
    const size_t ns_key = line.find("\"ns\":", name_end);
    if (ns_key == std::string::npos) continue;
    out[name] = std::strtod(line.c_str() + ns_key + 5, nullptr);
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

double SpeedupOf(const char* kernel) {
  const auto scalar = Results().find(std::string(kernel) + "/scalar");
  const auto simd = Results().find(std::string(kernel) + "/simd");
  if (scalar == Results().end() || simd == Results().end() ||
      simd->second <= 0) {
    return 0.0;
  }
  return scalar->second / simd->second;
}

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
    if (SkipOverheadGates()) {
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
    bool baseline_ok = false;
    const std::map<std::string, double> baseline =
        ParseBaseline(baseline_path, &baseline_ok);
    if (!baseline_ok || baseline.empty()) {
      std::fprintf(stderr, "GATE FAIL: cannot read baseline %s\n",
                   baseline_path.c_str());
      ++failures;
    }
    for (const auto& [name, base_ns] : baseline) {
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
                  baseline.size());
    }
  }

  benchmark::Shutdown();
  return failures == 0 ? 0 : 1;
}
