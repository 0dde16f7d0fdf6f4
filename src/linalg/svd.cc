#include "linalg/svd.h"

#include <algorithm>
#include <cmath>

#include "linalg/blas.h"

namespace genbase::linalg {

std::vector<double> SingularValues(const std::vector<double>& eigenvalues) {
  std::vector<double> sigma;
  sigma.reserve(eigenvalues.size());
  for (double lambda : eigenvalues) {
    sigma.push_back(std::sqrt(std::max(0.0, lambda)));
  }
  return sigma;
}

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

genbase::Result<SvdResult> TruncatedSingularValues(const MatrixView& a,
                                                   const SvdOptions& options,
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
  GENBASE_ASSIGN_OR_RETURN(LanczosResult lr,
                           record != nullptr
                               ? record->Run(op, lopt, ctx)
                               : LanczosLargestEigenpairs(op, lopt, ctx));
  SvdResult out;
  out.lanczos_iterations = lr.iterations;
  out.singular_values = SingularValues(lr.eigenvalues);
  return out;
}

}  // namespace genbase::linalg
