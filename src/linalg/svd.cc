#include "linalg/svd.h"

#include <algorithm>
#include <cmath>

#include "linalg/blas.h"

namespace genbase::linalg {

namespace {

/// Lanczos on the Gram operator y = A^T (A x) of `a`: read from `record`
/// when given, else a fresh run.
genbase::Result<LanczosResult> GramLanczos(const MatrixView& a,
                                           const SvdOptions& options,
                                           bool compute_vectors,
                                           LanczosRecord* record,
                                           ExecContext* ctx) {
  const int64_t m = a.rows;
  const int64_t n = a.cols;
  if (m == 0 || n == 0) return Status::InvalidArgument("empty matrix in SVD");
  ThreadPool* pool = ctx != nullptr ? ctx->pool() : nullptr;

  // Temp buffer reused across applications.
  std::vector<double> tmp(static_cast<size_t>(m));
  LinearOperator op;
  op.n = n;
  op.apply = [&](const double* x, double* y) -> genbase::Status {
    GramApply(a, options.quality, x, tmp.data(), y, pool);
    if (ctx != nullptr) return ctx->CheckBudgets();
    return genbase::Status::OK();
  };

  LanczosOptions lopt;
  lopt.num_eigenpairs = std::min<int>(options.rank, static_cast<int>(n));
  lopt.tolerance = options.tolerance;
  lopt.seed = options.seed;
  lopt.compute_vectors = compute_vectors;
  if (record != nullptr) return record->Run(op, lopt, ctx);
  return LanczosLargestEigenpairs(op, lopt, ctx);
}

/// sigma_i = sqrt(lambda_i), with rounding noise below zero clamped.
std::vector<double> SingularValues(const std::vector<double>& eigenvalues) {
  std::vector<double> sigma;
  sigma.reserve(eigenvalues.size());
  for (double lambda : eigenvalues) {
    sigma.push_back(std::sqrt(std::max(0.0, lambda)));
  }
  return sigma;
}

}  // namespace

void GramApply(const MatrixView& a, KernelQuality quality, const double* x,
               double* tmp, double* y, ThreadPool* pool) {
  if (quality == KernelQuality::kTuned) {
    Gemv(a, x, tmp, pool);
    GemvTranspose(a, tmp, y, pool);
    return;
  }
  // Naive path: no parallelism, no unrolled dot products.
  for (int64_t i = 0; i < a.rows; ++i) {
    double s = 0;
    for (int64_t j = 0; j < a.cols; ++j) s += a(i, j) * x[j];
    tmp[i] = s;
  }
  for (int64_t j = 0; j < a.cols; ++j) {
    double s = 0;
    for (int64_t i = 0; i < a.rows; ++i) s += a(i, j) * tmp[i];
    y[j] = s;
  }
}

genbase::Result<SvdResult> TruncatedSvd(const MatrixView& a,
                                        const SvdOptions& options,
                                        ExecContext* ctx) {
  GENBASE_ASSIGN_OR_RETURN(
      LanczosResult lr,
      GramLanczos(a, options, /*compute_vectors=*/true, nullptr, ctx));
  const int64_t m = a.rows;
  const int64_t n = a.cols;
  ThreadPool* pool = ctx != nullptr ? ctx->pool() : nullptr;

  SvdResult out;
  out.lanczos_iterations = lr.iterations;
  out.singular_values = SingularValues(lr.eigenvalues);
  const int k = static_cast<int>(lr.eigenvalues.size());
  out.v = std::move(lr.eigenvectors);
  out.u = Matrix(m, k);
  std::vector<double> av(static_cast<size_t>(m));
  std::vector<double> vcol(static_cast<size_t>(n));
  for (int i = 0; i < k; ++i) {
    const double sigma = out.singular_values[i];
    for (int64_t t = 0; t < n; ++t) vcol[t] = out.v(t, i);
    Gemv(a, vcol.data(), av.data(), pool);
    if (sigma > 1e-12) {
      for (int64_t t = 0; t < m; ++t) out.u(t, i) = av[t] / sigma;
    }
  }
  return out;
}

genbase::Result<SvdResult> TruncatedSingularValues(const MatrixView& a,
                                                   const SvdOptions& options,
                                                   LanczosRecord* record,
                                                   ExecContext* ctx) {
  GENBASE_ASSIGN_OR_RETURN(
      LanczosResult lr,
      GramLanczos(a, options, /*compute_vectors=*/false, record, ctx));
  SvdResult out;
  out.lanczos_iterations = lr.iterations;
  out.singular_values = SingularValues(lr.eigenvalues);
  return out;
}

}  // namespace genbase::linalg
