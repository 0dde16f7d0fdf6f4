#ifndef GENBASE_LINALG_LANCZOS_H_
#define GENBASE_LINALG_LANCZOS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace genbase::linalg {

/// \brief Matrix-free symmetric linear operator: y = A x.
struct LinearOperator {
  int64_t n = 0;
  std::function<genbase::Status(const double* x, double* y)> apply;
};

struct LanczosOptions {
  int num_eigenpairs = 50;     ///< k: the paper's Query 4 asks for 50.
  double tolerance = 1e-10;    ///< Residual tolerance relative to |theta|.
  uint64_t seed = 42;          ///< Starting-vector seed (deterministic).
  bool compute_vectors = true;
};

struct LanczosResult {
  std::vector<double> eigenvalues;  ///< Descending, length <= k.
  Matrix eigenvectors;              ///< n x k Ritz vectors (if requested).
  int iterations = 0;
  bool converged = false;
};

/// \brief Everything the Lanczos recurrence reads to take its next step:
/// the state after m steps, with m = iterations(). A run stops in this
/// state, and a run started from it continues the same recurrence.
struct LanczosState {
  std::vector<double> basis;  ///< v_0 .. v_{m-1}, m rows of n, row-major.
  std::vector<double> alpha;  ///< The m diagonal entries of T_m.
  std::vector<double> beta;   ///< Its m-1 off-diagonal entries.
  std::vector<double> w;      ///< The residual after step m (length n).
  double w_norm = 0.0;        ///< ||w||: the residual bound's beta_m.
  /// The last convergence test's Ritz values of T_m (ascending) and last
  /// eigenvector row. They describe the current T_m only while their
  /// length equals iterations(); a continued run's first test at the same
  /// m reads them instead of solving T_m again.
  std::vector<double> theta;
  std::vector<double> last_row;

  int iterations() const { return static_cast<int>(alpha.size()); }
  /// Heap bytes the state holds (vector capacities).
  int64_t bytes() const;
};

/// \brief Lanczos iteration with full reorthogonalization for the largest
/// eigenpairs of a symmetric positive semidefinite operator.
///
/// This is the algorithm GenBase names for Query 4: "the Lanczos algorithm,
/// which is a power method that can iteratively find the largest eigenvalues
/// of symmetric positive semidefinite matrices." Full reorthogonalization
/// (two-pass modified Gram-Schmidt against the stored basis) keeps the basis
/// orthogonal at the cost of O(iter * n) extra work per step.
///
/// The run stops at the first m >= k where the top-k Ritz pairs of T_m meet
/// the tolerance, where the residual vanishes (||w|| <= 1e-300: an
/// invariant subspace), or at m = min(n, 2k + 120). Only this test reads k.
/// With `state`, the run starts from `*state` instead of the seeded vector
/// (an empty state is a fresh start) and leaves its stopped state there; the
/// state must come from a run of the same operator, seed and tolerance. On
/// error, `*state` is unusable.
genbase::Result<LanczosResult> LanczosLargestEigenpairs(
    const LinearOperator& op, const LanczosOptions& options,
    ExecContext* ctx = nullptr, LanczosState* state = nullptr);

}  // namespace genbase::linalg

#endif  // GENBASE_LINALG_LANCZOS_H_
