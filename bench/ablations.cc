// Ablations for the modeling choices core::SimConfig documents:
//   1. Tuned (blocked, parallel) vs naive GEMM — the quantitative basis for
//      the Mahout-quality kernel model.
//   2. CSV round trip vs in-process UDF transfer — the two glue mechanisms
//      distinguishing the +R and +UDF configurations.
//   3. Lanczos with vs without full reorthogonalization.
//   4. Array-store chunk size vs submatrix gather cost.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/csv.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine_util.h"
#include "linalg/blas.h"
#include "linalg/lanczos.h"
#include "linalg/matrix.h"
#include "linalg/randomized_svd.h"
#include "linalg/svd.h"
#include "storage/array_store.h"
#include "storage/encoding.h"

namespace genbase {
namespace {

linalg::Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Gaussian();
  return m;
}

// --- 1. kernel quality ----------------------------------------------------------

void BM_GemmTuned(benchmark::State& state) {
  const int64_t n = state.range(0);
  linalg::Matrix a = RandomMatrix(n, n, 1);
  linalg::Matrix b = RandomMatrix(n, n, 2);
  linalg::Matrix c(n, n);
  for (auto _ : state) {
    GENBASE_CHECK_OK(
        linalg::Gemm(linalg::MatrixView(a), linalg::MatrixView(b), &c,
                     DefaultPool()));
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmTuned)->Arg(128)->Arg(256)->Arg(384);

void BM_GemmNaive(benchmark::State& state) {
  const int64_t n = state.range(0);
  linalg::Matrix a = RandomMatrix(n, n, 1);
  linalg::Matrix b = RandomMatrix(n, n, 2);
  linalg::Matrix c(n, n);
  for (auto _ : state) {
    GENBASE_CHECK_OK(
        linalg::GemmNaive(linalg::MatrixView(a), linalg::MatrixView(b), &c));
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmNaive)->Arg(128)->Arg(256)->Arg(384);

// --- 2. glue mechanisms -----------------------------------------------------------

void BM_CsvGlueRoundTrip(benchmark::State& state) {
  const int64_t n = state.range(0);
  linalg::Matrix m = RandomMatrix(n, n, 3);
  for (auto _ : state) {
    auto out = engine::CsvRoundTripMatrix(linalg::MatrixView(m), nullptr);
    GENBASE_CHECK(out.ok());
    benchmark::DoNotOptimize(out->data());
  }
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(n * n * 8) * state.iterations() / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CsvGlueRoundTrip)->Arg(128)->Arg(256)->Arg(512);

void BM_UdfTransfer(benchmark::State& state) {
  const int64_t n = state.range(0);
  linalg::Matrix m = RandomMatrix(n, n, 4);
  for (auto _ : state) {
    auto out =
        engine::UdfTransferMatrix(linalg::MatrixView(m), nullptr, 512);
    GENBASE_CHECK(out.ok());
    benchmark::DoNotOptimize(out->data());
  }
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(n * n * 8) * state.iterations() / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_UdfTransfer)->Arg(128)->Arg(256)->Arg(512);

// --- 3. Lanczos reorthogonalization --------------------------------------------------

void LanczosBench(benchmark::State& state, bool reorth) {
  const int64_t n = 400;
  linalg::Matrix a = RandomMatrix(n + 20, n, 5);
  linalg::Matrix gram(n, n);
  GENBASE_CHECK_OK(linalg::Syrk(linalg::MatrixView(a), &gram));
  linalg::LinearOperator op;
  op.n = n;
  op.apply = [&gram](const double* x, double* y) {
    linalg::Gemv(linalg::MatrixView(gram), x, y);
    return genbase::Status::OK();
  };
  linalg::LanczosOptions opt;
  opt.num_eigenpairs = 20;
  opt.compute_vectors = false;
  int iterations = 0;
  for (auto _ : state) {
    auto r = reorth ? linalg::LanczosLargestEigenpairs(op, opt)
                    : linalg::LanczosNoReorth(op, opt);
    GENBASE_CHECK(r.ok());
    iterations = r->iterations;
    benchmark::DoNotOptimize(r->eigenvalues.data());
  }
  state.counters["iterations"] = iterations;
}
void BM_LanczosFullReorth(benchmark::State& state) {
  LanczosBench(state, true);
}
void BM_LanczosNoReorth(benchmark::State& state) {
  LanczosBench(state, false);
}
BENCHMARK(BM_LanczosFullReorth);
BENCHMARK(BM_LanczosNoReorth);

// --- 4. exact (Lanczos) vs approximate (randomized) SVD ---------------------------------
// Paper Section 6.3: "approximation algorithms may have allowed us to scale
// to the 60K x 70K dataset that none of the systems we tested could process."

void BM_SvdLanczos(benchmark::State& state) {
  const int64_t n = state.range(0);
  linalg::Matrix a = RandomMatrix(2 * n, n, 7);
  linalg::SvdOptions opt;
  opt.rank = 25;
  double sigma0 = 0;
  for (auto _ : state) {
    auto r = linalg::TruncatedSvd(linalg::MatrixView(a), opt);
    GENBASE_CHECK(r.ok());
    sigma0 = r->singular_values[0];
    benchmark::DoNotOptimize(r->singular_values.data());
  }
  state.counters["sigma0"] = sigma0;
}
BENCHMARK(BM_SvdLanczos)->Arg(200)->Arg(400);

void BM_SvdRandomized(benchmark::State& state) {
  const int64_t n = state.range(0);
  linalg::Matrix a = RandomMatrix(2 * n, n, 7);
  linalg::RandomizedSvdOptions opt;
  opt.rank = 25;
  double sigma0 = 0;
  for (auto _ : state) {
    auto r = linalg::RandomizedSvd(linalg::MatrixView(a), opt);
    GENBASE_CHECK(r.ok());
    sigma0 = r->singular_values[0];
    benchmark::DoNotOptimize(r->singular_values.data());
  }
  state.counters["sigma0"] = sigma0;
}
BENCHMARK(BM_SvdRandomized)->Arg(200)->Arg(400);

// --- 5. chunk size ---------------------------------------------------------------------

void BM_ChunkedGather(benchmark::State& state) {
  const int64_t chunk = state.range(0);
  const int64_t rows = 1024, cols = 1024;
  linalg::Matrix m = RandomMatrix(rows, cols, 6);
  auto array =
      storage::ChunkedArray2D::FromMatrix(linalg::MatrixView(m), nullptr,
                                          chunk);
  GENBASE_CHECK(array.ok());
  // Gather a 50% x 50% submatrix (typical of the filtered queries).
  std::vector<int64_t> row_ids, col_ids;
  for (int64_t i = 0; i < rows; i += 2) row_ids.push_back(i);
  for (int64_t j = 0; j < cols; j += 2) col_ids.push_back(j);
  for (auto _ : state) {
    auto sub = array->GatherSubmatrix(row_ids, col_ids, nullptr);
    GENBASE_CHECK(sub.ok());
    benchmark::DoNotOptimize(sub->data());
  }
}
BENCHMARK(BM_ChunkedGather)->Arg(32)->Arg(128)->Arg(256)->Arg(1024);

// --- 6. storage-format conversion (paper Section 6.2) ------------------------------
// "In all cases, DBMSs employ a custom formatting scheme for storage of
// blocks ... it is an O(N) operation to convert from one representation to
// the other. Since the constant is fairly large, this conversion can
// dominate computation time if the arrays are small to medium size."
// Measures decode (DBMS block -> raw ScaLAPACK-style chunk) throughput for
// each encoding, against plain memcpy as the baseline.

void BM_FormatConversion(benchmark::State& state) {
  const auto encoding =
      static_cast<storage::ColumnEncoding>(state.range(0));
  Rng rng(9);
  std::vector<int64_t> values(256 * 1024);
  // Gene-id-like content: sorted with small gaps (compressible).
  int64_t at = 0;
  for (auto& v : values) {
    at += rng.UniformInt(0, 3);
    v = at;
  }
  auto block = storage::EncodeInt64(
      values.data(), static_cast<int64_t>(values.size()), encoding);
  GENBASE_CHECK(block.ok());
  std::vector<int64_t> out;
  for (auto _ : state) {
    GENBASE_CHECK_OK(storage::DecodeInt64(*block, &out));
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(values.size() * 8) * state.iterations() / 1e6,
      benchmark::Counter::kIsRate);
  state.counters["ratio"] = storage::CompressionRatio(*block);
}
BENCHMARK(BM_FormatConversion)
    ->Arg(static_cast<int>(storage::ColumnEncoding::kPlain))
    ->Arg(static_cast<int>(storage::ColumnEncoding::kRunLength))
    ->Arg(static_cast<int>(storage::ColumnEncoding::kDelta))
    ->Arg(static_cast<int>(storage::ColumnEncoding::kDictionary));

}  // namespace
}  // namespace genbase

BENCHMARK_MAIN();
