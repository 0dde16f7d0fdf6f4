#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/tridiag.h"

namespace genbase::linalg {

namespace {

/// A residual norm this small means the basis spans an invariant subspace.
constexpr double kBreakdown = 1e-300;

/// Step m = s->iterations() of the recurrence: appends v_m (the seeded start
/// vector when m = 0, else w / ||w||), applies the operator to it and
/// orthogonalizes the new residual w.
genbase::Status Step(const LinearOperator& op, uint64_t seed, LanczosState* s,
                     ExecContext* ctx) {
  if (ctx != nullptr) GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
  const int64_t n = op.n;
  const int j = s->iterations();
  s->basis.resize(static_cast<size_t>((j + 1) * n));
  double* vj = s->basis.data() + j * n;
  if (j == 0) {
    Rng rng(seed);
    for (int64_t i = 0; i < n; ++i) vj[i] = rng.Gaussian();
    Scal(1.0 / Nrm2(vj, n), vj, n);
    s->w.assign(static_cast<size_t>(n), 0.0);
  } else {
    s->beta.push_back(s->w_norm);
    for (int64_t i = 0; i < n; ++i) vj[i] = s->w[i] / s->w_norm;
  }
  double* w = s->w.data();
  GENBASE_RETURN_NOT_OK(op.apply(vj, w));
  const double a_j = Dot(vj, w, n);
  s->alpha.push_back(a_j);
  // w -= alpha_j v_j + beta_{j-1} v_{j-1}.
  Axpy(-a_j, vj, w, n);
  if (j > 0) Axpy(-s->beta[j - 1], vj - n, w, n);
  // Two-pass modified Gram-Schmidt against the whole stored basis.
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i <= j; ++i) {
      const double* vi = s->basis.data() + i * n;
      const double c = Dot(vi, w, n);
      if (c != 0.0) Axpy(-c, vi, w, n);
    }
  }
  s->w_norm = Nrm2(w, n);
  return genbase::Status::OK();
}

}  // namespace

int64_t LanczosState::bytes() const {
  return static_cast<int64_t>((basis.capacity() + alpha.capacity() +
                               beta.capacity() + w.capacity() +
                               theta.capacity() + last_row.capacity()) *
                              sizeof(double));
}

genbase::Result<LanczosResult> LanczosLargestEigenpairs(
    const LinearOperator& op, const LanczosOptions& options, ExecContext* ctx,
    LanczosState* state) {
  const int64_t n = op.n;
  if (n <= 0) return Status::InvalidArgument("operator dimension must be > 0");
  if (options.num_eigenpairs < 0) {
    return Status::InvalidArgument("num_eigenpairs must be >= 0");
  }
  LanczosState fresh;
  LanczosState& s = state != nullptr ? *state : fresh;
  if (s.iterations() > 0 && static_cast<int64_t>(s.w.size()) != n) {
    return Status::InvalidArgument("Lanczos state is for another dimension");
  }
  const int k = static_cast<int>(std::min<int64_t>(options.num_eigenpairs, n));
  const int max_iter = static_cast<int>(std::min<int64_t>(n, 2 * k + 120));
  s.basis.reserve(static_cast<size_t>(max_iter * n));

  // A resumed state is tested before its next step, as the run that wrote
  // it would have been tested at that m had it asked for this k.
  std::vector<double> e;
  const std::vector<double>& theta = s.theta;
  const std::vector<double>& last_row = s.last_row;
  bool converged = false;
  for (;;) {
    const int m = s.iterations();
    if (m > 0 && (m >= k || s.w_norm <= kBreakdown)) {
      // Convergence test on the projected (tridiagonal) problem T_m, solved
      // unless the state's last test already solved this T_m.
      if (static_cast<int>(s.theta.size()) != m) {
        s.theta.assign(s.alpha.begin(), s.alpha.end());
        e.assign(s.beta.begin(), s.beta.end());
        e.resize(static_cast<size_t>(m), 0.0);
        GENBASE_RETURN_NOT_OK(
            SymmetricTridiagonalEigenLastRow(&s.theta, &e, &s.last_row));
      }
      // Residual bound for Ritz pair i: |beta_m * z(m-1, i)|.
      converged = m >= k;
      for (int i = 0; i < k && converged; ++i) {
        const int col = m - 1 - i;  // Largest eigenvalues at the end.
        const double resid = std::fabs(s.w_norm * last_row[col]);
        const double scale = std::max(1e-30, std::fabs(theta[col]));
        if (resid > options.tolerance * scale) converged = false;
      }
      if (converged || s.w_norm <= kBreakdown || m >= max_iter) break;
    }
    GENBASE_RETURN_NOT_OK(Step(op, options.seed, &s, ctx));
  }

  const int m = s.iterations();
  LanczosResult result;
  result.iterations = m;
  result.converged = converged;
  const int found = std::min(k, m);
  result.eigenvalues.resize(found);
  for (int i = 0; i < found; ++i) {
    result.eigenvalues[i] = theta[m - 1 - i];  // Descending.
  }
  if (options.compute_vectors) {
    // The Ritz vectors need every row of T_m's eigenvectors: solve it again
    // with the full z (the eigenvalues come out the same, bit for bit).
    std::vector<double> d(s.alpha.begin(), s.alpha.end());
    e.assign(s.beta.begin(), s.beta.end());
    e.resize(static_cast<size_t>(m), 0.0);
    Matrix z(m, m);
    for (int i = 0; i < m; ++i) z(i, i) = 1.0;
    GENBASE_RETURN_NOT_OK(SymmetricTridiagonalEigen(&d, &e, &z));
    result.eigenvectors = Matrix(n, found);
    // Ritz vector i = sum_r basis[r] * z(r, col_i).
    for (int i = 0; i < found; ++i) {
      const int col = m - 1 - i;
      for (int r = 0; r < m; ++r) {
        const double c = z(r, col);
        if (c == 0.0) continue;
        const double* br = s.basis.data() + r * n;
        for (int64_t t = 0; t < n; ++t) result.eigenvectors(t, i) += c * br[t];
      }
      // Normalize (defensive; should already be unit norm).
      double nrm = 0;
      for (int64_t t = 0; t < n; ++t) {
        nrm += result.eigenvectors(t, i) * result.eigenvectors(t, i);
      }
      nrm = std::sqrt(nrm);
      if (nrm > 0) {
        for (int64_t t = 0; t < n; ++t) result.eigenvectors(t, i) /= nrm;
      }
    }
  }
  return result;
}

}  // namespace genbase::linalg
