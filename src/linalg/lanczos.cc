#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>
#include <utility>

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

/// The stopping rule, one body for LanczosLargestEigenpairs and
/// LanczosRecord: a run for the top k pairs tests T_m at m >= k, or at any
/// m once the residual vanishes, and stops at a tested m when the top k
/// pairs converged, the residual vanished or m reached the iteration cap.
class StopRule {
 public:
  StopRule(int64_t n, int k)
      : k_(k), max_iter_(static_cast<int>(std::min<int64_t>(n, 2 * k + 120))) {}

  int max_iter() const { return max_iter_; }
  /// Whether the run tests T_m at m; `w_norm` is the residual after step m.
  bool Tests(int m, double w_norm) const {
    return m >= k_ || w_norm <= kBreakdown;
  }
  /// Whether the top k pairs converged at m, given ConvergedPairs there.
  bool Converged(int m, int pairs) const { return m >= k_ && pairs >= k_; }
  /// Whether a run that tests T_m stops at m.
  bool Stops(int m, int pairs, double w_norm) const {
    return Converged(m, pairs) || w_norm <= kBreakdown || m >= max_iter_;
  }

 private:
  int k_;
  int max_iter_;
};

/// T_m of the first m steps of `s`, solved for its Ritz values (ascending,
/// into `theta`) and its eigenvectors' last row; `e` is scratch.
genbase::Status SolveLastRow(const LanczosState& s, int m,
                             std::vector<double>* theta,
                             std::vector<double>* last_row,
                             std::vector<double>* e) {
  theta->assign(s.alpha.begin(), s.alpha.begin() + m);
  e->assign(s.beta.begin(), s.beta.begin() + (m - 1));
  e->resize(static_cast<size_t>(m), 0.0);
  return SymmetricTridiagonalEigenLastRow(theta, e, last_row);
}

/// How many of T_m's top Ritz pairs, from the largest down, meet the
/// tolerance: pair i's residual bound is |beta_m * z(m-1, i)|.
int ConvergedPairs(const std::vector<double>& theta,
                   const std::vector<double>& last_row, double w_norm,
                   double tolerance) {
  const int m = static_cast<int>(theta.size());
  int pairs = 0;
  for (; pairs < m; ++pairs) {
    const int col = m - 1 - pairs;  // Largest eigenvalues at the end.
    const double resid = std::fabs(w_norm * last_row[col]);
    const double scale = std::max(1e-30, std::fabs(theta[col]));
    if (resid > tolerance * scale) break;
  }
  return pairs;
}

/// The answer of a run for k that stopped at m, from T_m's Ritz values.
LanczosResult Answer(int k, int m, bool converged,
                     const std::vector<double>& theta) {
  LanczosResult result;
  result.iterations = m;
  result.converged = converged;
  const int found = std::min(k, m);
  result.eigenvalues.resize(found);
  for (int i = 0; i < found; ++i) {
    result.eigenvalues[i] = theta[m - 1 - i];  // Descending.
  }
  return result;
}

/// The clamped k of `options` for an operator of dimension n, or the
/// argument error LanczosLargestEigenpairs and LanczosRecord::Run share.
genbase::Result<int> CheckedRank(int64_t n, const LanczosOptions& options) {
  if (n <= 0) return Status::InvalidArgument("operator dimension must be > 0");
  if (options.num_eigenpairs < 0) {
    return Status::InvalidArgument("num_eigenpairs must be >= 0");
  }
  return static_cast<int>(std::min<int64_t>(options.num_eigenpairs, n));
}

}  // namespace

int64_t LanczosState::bytes() const {
  return static_cast<int64_t>((basis.capacity() + alpha.capacity() +
                               beta.capacity() + w.capacity()) *
                              sizeof(double));
}

genbase::Result<LanczosResult> LanczosLargestEigenpairs(
    const LinearOperator& op, const LanczosOptions& options,
    ExecContext* ctx) {
  const int64_t n = op.n;
  GENBASE_ASSIGN_OR_RETURN(const int k, CheckedRank(n, options));
  const StopRule rule(n, k);
  LanczosState s;
  s.basis.reserve(static_cast<size_t>(rule.max_iter() * n));

  std::vector<double> theta;
  std::vector<double> last_row;
  std::vector<double> e;
  bool converged = false;
  for (;;) {
    GENBASE_RETURN_NOT_OK(Step(op, options.seed, &s, ctx));
    const int m = s.iterations();
    if (!rule.Tests(m, s.w_norm)) continue;
    GENBASE_RETURN_NOT_OK(SolveLastRow(s, m, &theta, &last_row, &e));
    const int pairs =
        ConvergedPairs(theta, last_row, s.w_norm, options.tolerance);
    converged = rule.Converged(m, pairs);
    if (rule.Stops(m, pairs, s.w_norm)) break;
  }

  return Answer(k, s.iterations(), converged, theta);
}

int64_t LanczosRecord::Snapshot::bytes() const {
  return state.bytes() +
         static_cast<int64_t>(converged_pairs.capacity() * sizeof(int));
}

std::shared_ptr<const LanczosRecord::Snapshot> LanczosRecord::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

genbase::Result<LanczosResult> LanczosRecord::Run(
    const LinearOperator& op, const LanczosOptions& options,
    ExecContext* ctx) {
  const int64_t n = op.n;
  GENBASE_ASSIGN_OR_RETURN(const int k, CheckedRank(n, options));
  const std::shared_ptr<const Snapshot> current = snapshot();
  const LanczosState& r = current->state;
  const int recorded = r.iterations();
  if (recorded > 0 && static_cast<int64_t>(r.w.size()) != n) {
    return Status::InvalidArgument("Lanczos record is for another dimension");
  }
  const StopRule rule(n, k);
  std::vector<double> theta;
  std::vector<double> last_row;
  std::vector<double> e;
  // The residual after step m is beta_m: beta[m - 1] inside the record.
  for (int m = 1; m <= recorded; ++m) {
    const double w_norm = m < recorded ? r.beta[m - 1] : r.w_norm;
    const int pairs = current->converged_pairs[m - 1];
    if (rule.Tests(m, w_norm) && rule.Stops(m, pairs, w_norm)) {
      GENBASE_RETURN_NOT_OK(SolveLastRow(r, m, &theta, &last_row, &e));
      return Answer(k, m, rule.Converged(m, pairs), theta);
    }
  }

  // The stop lies past the record: continue a copy of it, recording every
  // new m's count whatever this k reads.
  auto next = std::make_shared<Snapshot>();
  LanczosState& s = next->state;
  s.basis.reserve(static_cast<size_t>(rule.max_iter() * n));
  s.basis.assign(r.basis.begin(), r.basis.end());
  s.alpha = r.alpha;
  s.beta = r.beta;
  s.w = r.w;
  s.w_norm = r.w_norm;
  next->converged_pairs = current->converged_pairs;
  for (;;) {
    GENBASE_RETURN_NOT_OK(Step(op, options.seed, &s, ctx));
    const int m = s.iterations();
    GENBASE_RETURN_NOT_OK(SolveLastRow(s, m, &theta, &last_row, &e));
    const int pairs =
        ConvergedPairs(theta, last_row, s.w_norm, options.tolerance);
    next->converged_pairs.push_back(pairs);
    if (rule.Tests(m, s.w_norm) && rule.Stops(m, pairs, s.w_norm)) {
      LanczosResult result = Answer(k, m, rule.Converged(m, pairs), theta);
      // A refused seed fails the run: a record left empty would serve no
      // rank. A refused growth leaves the shorter record serving.
      const genbase::Status published = Publish(std::move(next));
      if (!published.ok() && recorded == 0) return published;
      return result;
    }
  }
}

genbase::Status LanczosRecord::Publish(std::shared_ptr<Snapshot> next) {
  // The copy was sized for this run's iteration cap: keep what it wrote.
  next->state.basis.shrink_to_fit();
  next->state.alpha.shrink_to_fit();
  next->state.beta.shrink_to_fit();
  next->converged_pairs.shrink_to_fit();
  std::shared_ptr<const Snapshot> replaced;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (next->state.iterations() <= snapshot_->state.iterations()) {
      return genbase::Status::OK();
    }
    if (account_ != nullptr) {
      GENBASE_RETURN_NOT_OK(account_->Grow(next->bytes() - snapshot_->bytes()));
    }
    replaced = std::exchange(snapshot_, std::move(next));
  }
  return genbase::Status::OK();
}

}  // namespace genbase::linalg
