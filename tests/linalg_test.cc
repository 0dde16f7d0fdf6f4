#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/memory_tracker.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "linalg/blas.h"
#include "linalg/covariance.h"
#include "linalg/jacobi.h"
#include "linalg/lanczos.h"
#include "linalg/matrix.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "linalg/tridiag.h"
#include "bitwise_result.h"  // Same directory.

namespace genbase::linalg {
namespace {

using testutil::BitEq;

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed,
                    double scale = 1.0) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.Gaussian(0.0, scale);
  }
  return m;
}

Matrix RandomSymmetricPsd(int64_t n, uint64_t seed) {
  // A^T A is symmetric PSD by construction.
  Matrix a = RandomMatrix(n + 5, n, seed);
  Matrix c(n, n);
  GENBASE_CHECK_OK(Syrk(MatrixView(a), &c));
  return c;
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  double worst = 0;
  for (int64_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

// --- BLAS-1 -------------------------------------------------------------------

TEST(Blas1Test, DotMatchesManual) {
  const double x[] = {1, 2, 3, 4, 5};
  const double y[] = {5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(Dot(x, y, 5), 5 + 8 + 9 + 8 + 5);
}

TEST(Blas1Test, Nrm2AvoidsOverflow) {
  const double x[] = {1e200, 1e200};
  EXPECT_NEAR(Nrm2(x, 2), std::sqrt(2.0) * 1e200, 1e186);
}

TEST(Blas1Test, AxpyAndScal) {
  double y[] = {1, 1, 1};
  const double x[] = {1, 2, 3};
  Axpy(2.0, x, y, 3);
  EXPECT_DOUBLE_EQ(y[0], 3);
  EXPECT_DOUBLE_EQ(y[2], 7);
  Scal(0.5, y, 3);
  EXPECT_DOUBLE_EQ(y[0], 1.5);
}

// --- GEMM family: tuned vs naive oracle ------------------------------------------

struct GemmShape {
  int64_t m, k, n;
  uint64_t seed;
};

class GemmParamTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmParamTest, BlockedMatchesNaive) {
  const auto p = GetParam();
  Matrix a = RandomMatrix(p.m, p.k, p.seed);
  Matrix b = RandomMatrix(p.k, p.n, p.seed + 1);
  Matrix c_tuned(p.m, p.n), c_naive(p.m, p.n);
  ASSERT_TRUE(Gemm(MatrixView(a), MatrixView(b), &c_tuned).ok());
  ASSERT_TRUE(GemmNaive(MatrixView(a), MatrixView(b), &c_naive).ok());
  EXPECT_LT(MaxAbsDiff(c_tuned, c_naive), 1e-9);
}

TEST_P(GemmParamTest, ParallelMatchesSerial) {
  const auto p = GetParam();
  Matrix a = RandomMatrix(p.m, p.k, p.seed);
  Matrix b = RandomMatrix(p.k, p.n, p.seed + 1);
  Matrix serial(p.m, p.n), parallel(p.m, p.n);
  ASSERT_TRUE(Gemm(MatrixView(a), MatrixView(b), &serial).ok());
  ASSERT_TRUE(
      Gemm(MatrixView(a), MatrixView(b), &parallel, DefaultPool()).ok());
  EXPECT_LT(MaxAbsDiff(serial, parallel), 1e-12);
}

TEST_P(GemmParamTest, SyrkMatchesNaive) {
  const auto p = GetParam();
  Matrix a = RandomMatrix(p.m, p.n, p.seed + 2);
  Matrix tuned(p.n, p.n), naive(p.n, p.n);
  ASSERT_TRUE(Syrk(MatrixView(a), &tuned, DefaultPool()).ok());
  ASSERT_TRUE(SyrkNaive(MatrixView(a), &naive).ok());
  EXPECT_LT(MaxAbsDiff(tuned, naive), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParamTest,
    ::testing::Values(GemmShape{1, 1, 1, 10}, GemmShape{3, 5, 2, 11},
                      GemmShape{17, 33, 9, 12}, GemmShape{64, 64, 64, 13},
                      GemmShape{65, 63, 70, 14}, GemmShape{128, 40, 100, 15},
                      GemmShape{200, 129, 65, 16}));

TEST(GemmTest, ShapeMismatchRejected) {
  Matrix a(2, 3), b(4, 2), c(2, 2);
  EXPECT_FALSE(Gemm(MatrixView(a), MatrixView(b), &c).ok());
}

TEST(GemvTest, MatchesGemm) {
  Matrix a = RandomMatrix(50, 30, 21);
  std::vector<double> x(30), y(50), y2(50);
  Rng rng(22);
  for (auto& v : x) v = rng.Gaussian();
  Gemv(MatrixView(a), x.data(), y.data(), DefaultPool());
  for (int64_t i = 0; i < 50; ++i) {
    y2[i] = Dot(a.Row(i), x.data(), 30);
  }
  for (int64_t i = 0; i < 50; ++i) EXPECT_NEAR(y[i], y2[i], 1e-12);
}

TEST(GemvTest, TransposeMatchesManual) {
  Matrix a = RandomMatrix(40, 25, 23);
  std::vector<double> x(40), y(25), y2(25, 0.0);
  Rng rng(24);
  for (auto& v : x) v = rng.Gaussian();
  GemvTranspose(MatrixView(a), x.data(), y.data(), DefaultPool());
  for (int64_t i = 0; i < 40; ++i) {
    for (int64_t j = 0; j < 25; ++j) y2[j] += a(i, j) * x[i];
  }
  for (int64_t j = 0; j < 25; ++j) EXPECT_NEAR(y[j], y2[j], 1e-10);
}

// --- QR -------------------------------------------------------------------------

struct QrShape {
  int64_t m, n;
  uint64_t seed;
};

class QrParamTest : public ::testing::TestWithParam<QrShape> {};

TEST_P(QrParamTest, RIsUpperTriangular) {
  const auto p = GetParam();
  auto qr = HouseholderQr::Factor(RandomMatrix(p.m, p.n, p.seed));
  ASSERT_TRUE(qr.ok());
  Matrix r = qr->R();
  for (int64_t i = 0; i < p.n; ++i) {
    for (int64_t j = 0; j < i; ++j) EXPECT_EQ(r(i, j), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrParamTest,
                         ::testing::Values(QrShape{1, 1, 30},
                                           QrShape{5, 5, 31},
                                           QrShape{20, 7, 32},
                                           QrShape{100, 40, 33},
                                           QrShape{150, 150, 34}));

TEST(QrTest, RejectsWideMatrix) {
  EXPECT_FALSE(HouseholderQr::Factor(Matrix(3, 5)).ok());
}

TEST(QrTest, ParallelTrailingUpdateBitIdentical) {
  Matrix a = RandomMatrix(300, 120, 35);
  auto serial = HouseholderQr::Factor(a);
  ASSERT_TRUE(serial.ok());
  ExecContext ctx;
  ctx.set_pool(DefaultPool());
  auto parallel = HouseholderQr::Factor(a, &ctx);
  ASSERT_TRUE(parallel.ok());
  // Column updates are independent computations: results are bit-identical.
  for (int64_t i = 0; i < serial->packed().size(); ++i) {
    ASSERT_EQ(serial->packed().data()[i], parallel->packed().data()[i]);
  }
}

/// max |a - b| / max |a| over two equally sized arrays.
double RelativeError(const double* a, const double* b, int64_t n) {
  double diff = 0, scale = 0;
  for (int64_t i = 0; i < n; ++i) {
    diff = std::max(diff, std::fabs(a[i] - b[i]));
    scale = std::max(scale, std::fabs(a[i]));
  }
  return diff / scale;
}

// Q1's benchmark shape: 400 patients x (200 genes + intercept). The
// regression reference answer (core/reference.cc) runs this same kernel, so
// end-to-end verification cannot catch a QR bug; the SIMD kernels are held
// to the scalar ones here, and the fit to the normal equations.
TEST(QrTest, SimdMatchesScalarAtRegressionShape) {
  const int64_t m = 400, n = 201;
  Matrix a = RandomMatrix(m, n, 43);
  for (int64_t i = 0; i < m; ++i) a(i, 0) = 1.0;
  std::vector<double> y(m);
  Rng rng(44);
  for (auto& v : y) v = rng.Gaussian();

  const simd::Backend previous = simd::SetBackend(simd::Backend::kScalar);
  auto qr_scalar = HouseholderQr::Factor(MatrixView(a));
  auto fit_scalar = LeastSquaresQr(MatrixView(a), y);
  simd::SetBackend(simd::Backend::kSimd);
  auto qr_simd = HouseholderQr::Factor(MatrixView(a));
  auto fit_simd = LeastSquaresQr(MatrixView(a), y);
  simd::SetBackend(previous);
  ASSERT_TRUE(qr_scalar.ok() && qr_simd.ok());
  ASSERT_TRUE(fit_scalar.ok() && fit_simd.ok());

  EXPECT_LT(RelativeError(qr_scalar->packed().data(),
                          qr_simd->packed().data(), qr_simd->packed().size()),
            1e-10);
  EXPECT_LT(RelativeError(fit_scalar->coefficients.data(),
                          fit_simd->coefficients.data(), n),
            1e-10);
  EXPECT_LT(RelativeError(&fit_scalar->residual_norm, &fit_simd->residual_norm,
                          1),
            1e-10);
  EXPECT_LT(RelativeError(&fit_scalar->r_squared, &fit_simd->r_squared, 1),
            1e-10);

  // X^T (y - X beta) = 0 for the SIMD fit.
  std::vector<double> r = y;
  for (int64_t i = 0; i < m; ++i) {
    r[i] -= Dot(a.Row(i), fit_simd->coefficients.data(), n);
  }
  std::vector<double> xtr(n);
  GemvTranspose(MatrixView(a), r.data(), xtr.data());
  for (int64_t j = 0; j < n; ++j) EXPECT_NEAR(xtr[j], 0.0, 1e-9);
}

TEST(LeastSquaresTest, RecoversExactCoefficients) {
  // y = 3 - 2 x1 + 0.5 x2 exactly: residual ~ 0, coefficients exact.
  const int64_t m = 60;
  Matrix x(m, 3);
  std::vector<double> y(m);
  Rng rng(40);
  for (int64_t i = 0; i < m; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = rng.Gaussian();
    x(i, 2) = rng.Gaussian();
    y[i] = 3.0 - 2.0 * x(i, 1) + 0.5 * x(i, 2);
  }
  auto fit = LeastSquaresQr(std::move(x), y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->coefficients[0], 3.0, 1e-10);
  EXPECT_NEAR(fit->coefficients[1], -2.0, 1e-10);
  EXPECT_NEAR(fit->coefficients[2], 0.5, 1e-10);
  EXPECT_NEAR(fit->residual_norm, 0.0, 1e-9);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-12);
}

TEST(LeastSquaresTest, ResidualOrthogonalToColumns) {
  const int64_t m = 80, n = 10;
  Matrix x = RandomMatrix(m, n, 41);
  std::vector<double> y(m);
  Rng rng(42);
  for (auto& v : y) v = rng.Gaussian();
  Matrix x_copy = x;
  auto fit = LeastSquaresQr(std::move(x_copy), y);
  ASSERT_TRUE(fit.ok());
  // r = y - X beta must satisfy X^T r = 0.
  std::vector<double> r = y;
  for (int64_t i = 0; i < m; ++i) {
    r[i] -= Dot(x.Row(i), fit->coefficients.data(), n);
  }
  std::vector<double> xtr(n);
  GemvTranspose(MatrixView(x), r.data(), xtr.data());
  for (int64_t j = 0; j < n; ++j) EXPECT_NEAR(xtr[j], 0.0, 1e-9);
}

// --- Tridiagonal eigensolver -----------------------------------------------------

TEST(TridiagTest, DiagonalMatrixIsItsOwnSpectrum) {
  std::vector<double> d = {3.0, 1.0, 2.0};
  std::vector<double> e = {0.0, 0.0, 0.0};
  ASSERT_TRUE(SymmetricTridiagonalEigen(&d, &e).ok());
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  EXPECT_DOUBLE_EQ(d[2], 3.0);
}

TEST(TridiagTest, KnownTwoByTwo) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  std::vector<double> d = {2.0, 2.0};
  std::vector<double> e = {1.0, 0.0};
  Matrix z(2, 2);
  z(0, 0) = z(1, 1) = 1.0;
  ASSERT_TRUE(SymmetricTridiagonalEigen(&d, &e, &z).ok());
  EXPECT_NEAR(d[0], 1.0, 1e-12);
  EXPECT_NEAR(d[1], 3.0, 1e-12);
  // Eigenvector for lambda=3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(z(0, 1)), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(std::fabs(z(1, 1)), std::sqrt(0.5), 1e-10);
}

TEST(TridiagTest, MatchesJacobiOnRandomTridiagonal) {
  const int64_t n = 24;
  Rng rng(50);
  std::vector<double> d(n), e(n, 0.0);
  for (auto& v : d) v = rng.Gaussian();
  for (int64_t i = 0; i + 1 < n; ++i) e[i] = rng.Gaussian();
  // Dense copy for the Jacobi oracle.
  Matrix dense(n, n);
  for (int64_t i = 0; i < n; ++i) {
    dense(i, i) = d[i];
    if (i + 1 < n) dense(i, i + 1) = dense(i + 1, i) = e[i];
  }
  auto jac = JacobiEigen(dense);
  ASSERT_TRUE(jac.ok());
  ASSERT_TRUE(SymmetricTridiagonalEigen(&d, &e).ok());
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(d[i], jac->values[i], 1e-9);
  }
}

/// The last-row solve against the full-z solve of the same (d, e): the
/// eigenvalues and row n-1 of z, bit for bit.
void ExpectLastRowMatchesFull(std::vector<double> d, std::vector<double> e) {
  const auto n = static_cast<int64_t>(d.size());
  std::vector<double> d_last = d, e_last = e, last_row;
  Matrix z(n, n);
  for (int64_t i = 0; i < n; ++i) z(i, i) = 1.0;
  ASSERT_TRUE(SymmetricTridiagonalEigen(&d, &e, &z).ok());
  ASSERT_TRUE(
      SymmetricTridiagonalEigenLastRow(&d_last, &e_last, &last_row).ok());
  EXPECT_TRUE(BitEq(d_last, d));
  EXPECT_TRUE(BitEq(last_row, std::vector<double>(z.Row(n - 1),
                                                  z.Row(n - 1) + n)));
}

TEST(TridiagTest, LastRowModeMatchesFullZBitwise) {
  for (const int64_t n : {2, 3, 7, 16, 40}) {
    for (const uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " seed=" << seed);
      Rng rng(seed * 1000 + static_cast<uint64_t>(n));
      std::vector<double> d(static_cast<size_t>(n));
      std::vector<double> e(static_cast<size_t>(n), 0.0);
      for (auto& v : d) v = rng.Gaussian();
      for (int64_t i = 0; i + 1 < n; ++i) e[i] = rng.Gaussian();
      ExpectLastRowMatchesFull(d, e);
    }
  }
  // n = 1.
  ExpectLastRowMatchesFull({2.5}, {0.0});
  // Zero off-diagonals: no rotation runs, only the sort.
  ExpectLastRowMatchesFull({3.0, -1.0, 2.0, 0.0, 2.0}, {0.0, 0.0, 0.0, 0.0, 0.0});
  // Repeated eigenvalues: a constant diagonal, two identical blocks split by
  // a zero coupling, and Wilkinson's W21+ (pairs equal to ~1e-14).
  ExpectLastRowMatchesFull({4.0, 4.0, 4.0, 4.0}, {0.0, 0.0, 0.0, 0.0});
  ExpectLastRowMatchesFull({1.0, 2.0, 1.0, 1.0, 2.0, 1.0},
                           {1.0, 1.0, 0.0, 1.0, 1.0, 0.0});
  std::vector<double> wd(21), we(21, 1.0);
  for (int i = 0; i < 21; ++i) wd[i] = std::fabs(10.0 - i);
  ExpectLastRowMatchesFull(wd, we);
}

// --- Jacobi ----------------------------------------------------------------------

TEST(JacobiTest, EigenEquationHolds) {
  const int64_t n = 16;
  Matrix a = RandomSymmetricPsd(n, 60);
  auto eig = JacobiEigen(a);
  ASSERT_TRUE(eig.ok());
  for (int64_t k = 0; k < n; ++k) {
    std::vector<double> v(n), av(n);
    for (int64_t i = 0; i < n; ++i) v[i] = eig->vectors(i, k);
    Gemv(MatrixView(a), v.data(), av.data());
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], eig->values[k] * v[i], 1e-8);
    }
  }
}

TEST(JacobiTest, RejectsNonSquare) {
  EXPECT_FALSE(JacobiEigen(Matrix(3, 4)).ok());
}

// --- Lanczos ---------------------------------------------------------------------

LinearOperator DenseOperator(const Matrix& a) {
  LinearOperator op;
  op.n = a.rows();
  op.apply = [&a](const double* x, double* y) {
    Gemv(MatrixView(a), x, y);
    return genbase::Status::OK();
  };
  return op;
}

struct LanczosCase {
  int64_t n;
  int k;
  uint64_t seed;
};

class LanczosParamTest : public ::testing::TestWithParam<LanczosCase> {};

TEST_P(LanczosParamTest, TopEigenvaluesMatchJacobi) {
  const auto p = GetParam();
  Matrix a = RandomSymmetricPsd(p.n, p.seed);
  auto jac = JacobiEigen(a);
  ASSERT_TRUE(jac.ok());
  LanczosOptions opt;
  opt.num_eigenpairs = p.k;
  opt.seed = p.seed + 7;
  auto lan = LanczosLargestEigenpairs(DenseOperator(a), opt);
  ASSERT_TRUE(lan.ok());
  ASSERT_GE(static_cast<int>(lan->eigenvalues.size()), p.k);
  const double scale = std::fabs(jac->values.back()) + 1e-12;
  for (int i = 0; i < p.k; ++i) {
    const double expected =
        jac->values[static_cast<size_t>(p.n - 1 - i)];
    EXPECT_NEAR(lan->eigenvalues[i], expected, 1e-7 * scale)
        << "eigenvalue " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, LanczosParamTest,
                         ::testing::Values(LanczosCase{30, 5, 70},
                                           LanczosCase{60, 10, 71},
                                           LanczosCase{100, 20, 72},
                                           LanczosCase{40, 40, 73}));

TEST(LanczosTest, DeterministicForSeed) {
  Matrix a = RandomSymmetricPsd(50, 80);
  LanczosOptions opt;
  opt.num_eigenpairs = 8;
  auto r1 = LanczosLargestEigenpairs(DenseOperator(a), opt);
  auto r2 = LanczosLargestEigenpairs(DenseOperator(a), opt);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->eigenvalues, r2->eigenvalues);
}

/// y = A^T (A x), as Query 4 runs Lanczos.
LinearOperator GramOperator(const Matrix& a) {
  LinearOperator op;
  op.n = a.cols();
  op.apply = [&a, tmp = std::vector<double>(static_cast<size_t>(a.rows()))](
                 const double* x, double* y) mutable {
    Gemv(MatrixView(a), x, tmp.data());
    GemvTranspose(MatrixView(a), tmp.data(), y);
    return genbase::Status::OK();
  };
  return op;
}

/// The stopping decision of two runs: iterations, converged and values.
::testing::AssertionResult SameStop(const LanczosResult& fresh,
                                    const LanczosResult& recorded) {
  if (fresh.iterations != recorded.iterations) {
    return ::testing::AssertionFailure()
           << "iterations " << fresh.iterations << " vs "
           << recorded.iterations;
  }
  if (fresh.converged != recorded.converged) {
    return ::testing::AssertionFailure() << "converged differs";
  }
  if (!BitEq(fresh.eigenvalues, recorded.eigenvalues)) {
    return ::testing::AssertionFailure() << "eigenvalues differ";
  }
  return ::testing::AssertionSuccess();
}

/// k from 1 to n in ascending order, in descending order, and every k
/// twice in a seeded shuffle.
std::vector<std::vector<int>> KOrders(int n) {
  std::vector<int> ascending;
  for (int k = 1; k <= n; ++k) ascending.push_back(k);
  std::vector<int> descending(ascending.rbegin(), ascending.rend());
  std::vector<int> shuffled = ascending;
  shuffled.insert(shuffled.end(), ascending.begin(), ascending.end());
  Rng rng(static_cast<uint64_t>(n) + 17);
  for (size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i],
              shuffled[static_cast<size_t>(
                  rng.UniformInt(0, static_cast<int64_t>(i)))]);
  }
  return {ascending, descending, shuffled};
}

/// For each order of KOrders, a LanczosRecord seeded by the rank-1 run must
/// stop every k from 1 to n where a fresh LanczosLargestEigenpairs run
/// does, bit for bit, and charge exactly the bytes it holds. Returns the
/// seeded record's recurrence.
LanczosState ExpectRecordStopsAsFreshRuns(const Matrix& a, double tolerance) {
  const LinearOperator op = GramOperator(a);
  LanczosOptions opt;
  opt.tolerance = tolerance;
  std::vector<LanczosResult> fresh;  // fresh[k - 1] is the run for k.
  for (int k = 1; k <= op.n; ++k) {
    opt.num_eigenpairs = k;
    auto r = LanczosLargestEigenpairs(op, opt);
    EXPECT_TRUE(r.ok()) << "k=" << k;
    fresh.push_back(r.ok() ? *r : LanczosResult());
  }

  LanczosState seeded;
  for (const std::vector<int>& order : KOrders(static_cast<int>(op.n))) {
    GrowingReservation account(nullptr);
    LanczosRecord record(&account);
    opt.num_eigenpairs = 1;
    EXPECT_TRUE(record.Run(op, opt).ok());
    seeded = record.snapshot()->state;
    EXPECT_EQ(seeded.iterations(), fresh[0].iterations);
    for (const int k : order) {
      opt.num_eigenpairs = k;
      auto recorded = record.Run(op, opt);
      EXPECT_TRUE(recorded.ok());
      if (recorded.ok()) {
        EXPECT_TRUE(SameStop(fresh[static_cast<size_t>(k - 1)], *recorded))
            << "k=" << k;
      }
    }
    EXPECT_EQ(account.bytes(), record.bytes());
  }
  return seeded;
}

TEST(LanczosRecordTest, RandomMatrixEveryRank) {
  const LanczosState seeded =
      ExpectRecordStopsAsFreshRuns(RandomMatrix(60, 30, 90), 1e-10);
  EXPECT_LT(seeded.iterations(), 30) << "rank 1 should stop early";
}

TEST(LanczosRecordTest, ZeroResidualStopsEveryRankAtOnce) {
  // Rank 0: the first residual is exactly 0, so every rank stops on the
  // b_j <= 1e-300 rule at m = 1, ranks above 1 unconverged.
  const LanczosState seeded =
      ExpectRecordStopsAsFreshRuns(Matrix(12, 8), 1e-10);
  EXPECT_EQ(seeded.iterations(), 1);
  EXPECT_EQ(seeded.w_norm, 0.0);
  LanczosOptions opt;
  opt.num_eigenpairs = 3;
  auto r = LanczosLargestEigenpairs(GramOperator(Matrix(12, 8)), opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->iterations, 1);
  EXPECT_FALSE(r->converged);
}

TEST(LanczosRecordTest, RankDeficientEveryRank) {
  // Rank 3 of 20 columns: the residual collapses to rounding noise after
  // three steps.
  Matrix a(40, 20);
  GENBASE_CHECK_OK(Gemm(MatrixView(RandomMatrix(40, 3, 91)),
                        MatrixView(RandomMatrix(3, 20, 92)), &a));
  ExpectRecordStopsAsFreshRuns(a, 1e-10);
}

TEST(LanczosRecordTest, IterationCapAtNEveryRank) {
  // n = 20 < 122, so max_iter = n for every rank; with a zero tolerance no
  // Ritz pair converges and every run stops at the cap.
  const LanczosState seeded =
      ExpectRecordStopsAsFreshRuns(RandomMatrix(50, 20, 93), 0.0);
  EXPECT_EQ(seeded.iterations(), 20);
}

TEST(LanczosRecordTest, SingleColumn) {
  const LanczosState seeded =
      ExpectRecordStopsAsFreshRuns(RandomMatrix(5, 1, 94), 1e-10);
  EXPECT_EQ(seeded.iterations(), 1);
}

/// A seed the account refuses fails the run and leaves the record empty; a
/// growth it refuses still answers as a fresh run does, and the seeded
/// record keeps serving.
TEST(LanczosRecordTest, RefusedSeedFailsRefusedGrowthStillAnswers) {
  const Matrix a = RandomMatrix(60, 30, 90);
  const LinearOperator op = GramOperator(a);
  LanczosOptions opt;
  opt.num_eigenpairs = 1;
  MemoryTracker none(/*budget_bytes=*/1);
  GrowingReservation refusing(&none);
  LanczosRecord empty(&refusing);
  auto seed = empty.Run(op, opt);
  ASSERT_FALSE(seed.ok());
  EXPECT_EQ(seed.status().code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(empty.snapshot()->state.iterations(), 0);
  EXPECT_EQ(none.used(), 0);

  LanczosRecord uncharged;
  ASSERT_TRUE(uncharged.Run(op, opt).ok());
  const int64_t seed_bytes = uncharged.bytes();
  MemoryTracker exact(seed_bytes);
  GrowingReservation account(&exact);
  LanczosRecord record(&account);
  ASSERT_TRUE(record.Run(op, opt).ok());
  const int seeded = record.snapshot()->state.iterations();
  EXPECT_EQ(exact.used(), seed_bytes);
  opt.num_eigenpairs = static_cast<int>(op.n);
  auto fresh = LanczosLargestEigenpairs(op, opt);
  auto recorded = record.Run(op, opt);
  ASSERT_TRUE(fresh.ok() && recorded.ok());
  EXPECT_GT(recorded->iterations, seeded);
  EXPECT_TRUE(SameStop(*fresh, *recorded));
  EXPECT_EQ(record.snapshot()->state.iterations(), seeded);
  EXPECT_EQ(exact.used(), seed_bytes);
}

TEST(LanczosTest, RejectsNegativeRank) {
  LanczosOptions opt;
  opt.num_eigenpairs = -1;
  auto r = LanczosLargestEigenpairs(GramOperator(RandomMatrix(10, 6, 97)), opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(LanczosRecordTest, RejectsOperatorOfAnotherDimension) {
  LanczosOptions opt;
  opt.num_eigenpairs = 1;
  LanczosRecord record;
  ASSERT_TRUE(record.Run(GramOperator(RandomMatrix(10, 6, 96)), opt).ok());
  EXPECT_FALSE(record.Run(GramOperator(RandomMatrix(10, 7, 96)), opt).ok());
}

// --- Covariance --------------------------------------------------------------------

TEST(CovarianceTest, MatchesManualTwoColumn) {
  // Columns [1,2,3,4] and [2,4,6,8]: var1 = 5/3, cov = 10/3, var2 = 20/3.
  Matrix x(4, 2);
  for (int64_t i = 0; i < 4; ++i) {
    x(i, 0) = static_cast<double>(i + 1);
    x(i, 1) = 2.0 * static_cast<double>(i + 1);
  }
  auto cov = CovarianceMatrix(MatrixView(x), KernelQuality::kTuned);
  ASSERT_TRUE(cov.ok());
  EXPECT_NEAR((*cov)(0, 0), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR((*cov)(0, 1), 10.0 / 3.0, 1e-12);
  EXPECT_NEAR((*cov)(1, 1), 20.0 / 3.0, 1e-12);
}

TEST(CovarianceTest, SymmetricAndPsd) {
  Matrix x = RandomMatrix(30, 12, 90);
  auto cov = CovarianceMatrix(MatrixView(x), KernelQuality::kTuned);
  ASSERT_TRUE(cov.ok());
  for (int64_t i = 0; i < 12; ++i) {
    for (int64_t j = 0; j < 12; ++j) {
      EXPECT_DOUBLE_EQ((*cov)(i, j), (*cov)(j, i));
    }
  }
  auto eig = JacobiEigen(*cov);
  ASSERT_TRUE(eig.ok());
  for (double v : eig->values) EXPECT_GE(v, -1e-9);
}

TEST(CovarianceTest, NaiveMatchesTuned) {
  Matrix x = RandomMatrix(25, 10, 91);
  auto tuned = CovarianceMatrix(MatrixView(x), KernelQuality::kTuned);
  auto naive = CovarianceMatrix(MatrixView(x), KernelQuality::kNaive);
  ASSERT_TRUE(tuned.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_LT(MaxAbsDiff(*tuned, *naive), 1e-10);
}

TEST(CovarianceTest, RejectsSingleSample) {
  Matrix x(1, 5);
  EXPECT_FALSE(CovarianceMatrix(MatrixView(x), KernelQuality::kTuned).ok());
}

// --- SVD -----------------------------------------------------------------------------

struct SvdCase {
  int64_t m, n;
  int k;
  uint64_t seed;
};

class SvdParamTest : public ::testing::TestWithParam<SvdCase> {};

TEST_P(SvdParamTest, SingularValuesMatchGramSpectrum) {
  const auto p = GetParam();
  Matrix a = RandomMatrix(p.m, p.n, p.seed);
  Matrix gram(p.n, p.n);
  ASSERT_TRUE(Syrk(MatrixView(a), &gram).ok());
  auto jac = JacobiEigen(gram);
  ASSERT_TRUE(jac.ok());
  SvdOptions opt;
  opt.rank = p.k;
  opt.seed = p.seed + 3;
  auto svd = TruncatedSingularValues(MatrixView(a), opt, nullptr);
  ASSERT_TRUE(svd.ok());
  const double scale = std::sqrt(std::max(0.0, jac->values.back())) + 1e-12;
  for (int i = 0; i < p.k; ++i) {
    const double expected =
        std::sqrt(std::max(0.0, jac->values[static_cast<size_t>(p.n - 1 -
                                                                i)]));
    EXPECT_NEAR(svd->singular_values[i], expected, 1e-6 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, SvdParamTest,
                         ::testing::Values(SvdCase{40, 20, 5, 100},
                                           SvdCase{60, 30, 10, 101},
                                           SvdCase{25, 25, 25, 102},
                                           SvdCase{80, 15, 15, 103}));

TEST(SvdTest, NaiveQualityMatchesTuned) {
  Matrix a = RandomMatrix(40, 18, 110);
  SvdOptions tuned_opt;
  tuned_opt.rank = 6;
  auto tuned = TruncatedSingularValues(MatrixView(a), tuned_opt, nullptr);
  SvdOptions naive_opt = tuned_opt;
  naive_opt.quality = KernelQuality::kNaive;
  auto naive = TruncatedSingularValues(MatrixView(a), naive_opt, nullptr);
  ASSERT_TRUE(tuned.ok());
  ASSERT_TRUE(naive.ok());
  for (int i = 0; i < 6; ++i) {
    EXPECT_NEAR(tuned->singular_values[i], naive->singular_values[i],
                1e-8 * (tuned->singular_values[0] + 1));
  }
}

// --- Matrix memory accounting --------------------------------------------------------

TEST(MatrixTest, CreateChargesTracker) {
  MemoryTracker tracker(1 << 20);
  auto m = Matrix::Create(100, 100, &tracker);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(tracker.used(), 100 * 100 * 8);
}

TEST(MatrixTest, CreateFailsOverBudget) {
  MemoryTracker tracker(1000);
  auto m = Matrix::Create(100, 100, &tracker);
  EXPECT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsOutOfMemory());
  EXPECT_EQ(tracker.used(), 0);
}

TEST(MatrixTest, MoveTransfersReservation) {
  MemoryTracker tracker(1 << 20);
  auto m = Matrix::Create(10, 10, &tracker);
  ASSERT_TRUE(m.ok());
  Matrix other = std::move(m).ValueOrDie();
  EXPECT_EQ(tracker.used(), 800);
  other = Matrix();
  EXPECT_EQ(tracker.used(), 0);
}

TEST(MatrixTest, CopyIsUntracked) {
  MemoryTracker tracker(1 << 20);
  auto m = Matrix::Create(10, 10, &tracker);
  ASSERT_TRUE(m.ok());
  Matrix copy = *m;
  EXPECT_EQ(tracker.used(), 800);  // Only the original is charged.
  EXPECT_EQ(copy.rows(), 10);
}

}  // namespace
}  // namespace genbase::linalg
