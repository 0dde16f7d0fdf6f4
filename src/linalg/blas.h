#ifndef GENBASE_LINALG_BLAS_H_
#define GENBASE_LINALG_BLAS_H_

#include <cstdint>

#include "common/exec_context.h"
#include "common/thread_pool.h"
#include "linalg/matrix.h"

namespace genbase::linalg {

/// BLAS-1 -------------------------------------------------------------------

double Dot(const double* x, const double* y, int64_t n);
double Nrm2(const double* x, int64_t n);
void Axpy(double alpha, const double* x, double* y, int64_t n);
void Scal(double alpha, double* x, int64_t n);

/// BLAS-2 -------------------------------------------------------------------

/// y = A * x (A: m x n, x: n, y: m). Parallel over rows if pool given.
void Gemv(const MatrixView& a, const double* x, double* y,
          ThreadPool* pool = nullptr);

/// y = A^T * x (A: m x n, x: m, y: n). Parallel with partial sums.
void GemvTranspose(const MatrixView& a, const double* x, double* y,
                   ThreadPool* pool = nullptr);

/// BLAS-3 -------------------------------------------------------------------
///
/// Every BLAS-3 entry point below runs one packed, register-blocked
/// macro-kernel (GotoBLAS-style panel packing over the kernels.h
/// micro-tiles). simd::ActiveBackend() picks only the micro-tile set: the
/// AVX2+FMA tiles where the CPU has them under kSimd, the portable scalar
/// tiles otherwise. Results are bitwise-deterministic across thread counts:
/// every C element is owned by one task and loop orders are fixed.

/// C = A * B, parallel over row blocks. This is the "tuned linear algebra
/// package" path (stands in for BLAS/MKL in the paper's SciDB/Madlib-C++
/// configurations).
genbase::Status Gemm(const MatrixView& a, const MatrixView& b, Matrix* c,
                     ThreadPool* pool = nullptr, ExecContext* ctx = nullptr);

/// C = A^T * A exploiting symmetry (computes upper triangle, mirrors).
genbase::Status Syrk(const MatrixView& a, Matrix* c,
                     ThreadPool* pool = nullptr, ExecContext* ctx = nullptr);

/// C = (A - 1 mu^T)^T (A - 1 mu^T): Syrk of the column-centered A, with the
/// centering fused into operand packing so no centered copy of A is ever
/// materialized (only one kKc x kNc pack panel at a time). `col_means` has
/// a.cols entries. The building block behind the one-pass CovarianceMatrix.
genbase::Status SyrkCentered(const MatrixView& a, const double* col_means,
                             Matrix* c, ThreadPool* pool = nullptr,
                             ExecContext* ctx = nullptr);

/// Raw-buffer SyrkCentered: `c` points at an a.cols x a.cols row-major
/// buffer in externally planned storage (the static-plan arena). The Matrix
/// overload runs this one, so results are bitwise identical.
genbase::Status SyrkCentered(const MatrixView& a, const double* col_means,
                             double* c, ThreadPool* pool = nullptr,
                             ExecContext* ctx = nullptr);

/// Deliberately unoptimized ijk triple loop with column-strided access to B,
/// single threaded. This is the "Mahout: no sophisticated linear algebra
/// package" path the paper blames for Hadoop's analytics numbers. Kept
/// correct but slow on purpose; tests use it as the Gemm oracle.
genbase::Status GemmNaive(const MatrixView& a, const MatrixView& b, Matrix* c,
                          ExecContext* ctx = nullptr);

/// Naive C = A^T * A (no symmetry exploitation, no blocking).
genbase::Status SyrkNaive(const MatrixView& a, Matrix* c,
                          ExecContext* ctx = nullptr);

}  // namespace genbase::linalg

#endif  // GENBASE_LINALG_BLAS_H_
