#ifndef GENBASE_LINALG_SVD_H_
#define GENBASE_LINALG_SVD_H_

#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "linalg/covariance.h"
#include "linalg/lanczos.h"
#include "linalg/matrix.h"

namespace genbase::linalg {

/// \brief Truncated singular value decomposition A ~= U diag(sigma) V^T.
struct SvdResult {
  std::vector<double> singular_values;  ///< Descending.
  Matrix u;                             ///< m x k left singular vectors.
  Matrix v;                             ///< n x k right singular vectors.
  int lanczos_iterations = 0;
};

struct SvdOptions {
  int rank = 50;               ///< Paper Query 4: top 50.
  double tolerance = 1e-9;
  uint64_t seed = 42;
  KernelQuality quality = KernelQuality::kTuned;
};

/// \brief The Gram operator y = A^T (A x), through `tmp` (a.rows entries).
/// kTuned runs Gemv then GemvTranspose on `pool`; kNaive runs two plain
/// single-threaded loops (Mahout's hand-rolled kernels) and ignores `pool`.
void GramApply(const MatrixView& a, KernelQuality quality, const double* x,
               double* tmp, double* y, ThreadPool* pool = nullptr);

/// \brief Computes the top-k singular triplets of A via Lanczos on the
/// Gram operator v -> A^T (A v) (never formed explicitly). sigma_i =
/// sqrt(lambda_i); u_i = A v_i / sigma_i. Matches the paper's use of the
/// Lanczos power method for Query 4.
genbase::Result<SvdResult> TruncatedSvd(const MatrixView& a,
                                        const SvdOptions& options,
                                        ExecContext* ctx = nullptr);

/// \brief The singular values and iteration count of TruncatedSvd(a,
/// options), bit for bit, without U or V: the same Lanczos run with no Ritz
/// vectors. With `record` (a LanczosRecord of a's Gram operator under the
/// same tolerance and seed) the answer is read from, and grown into, the
/// record; null runs Lanczos afresh.
genbase::Result<SvdResult> TruncatedSingularValues(const MatrixView& a,
                                                   const SvdOptions& options,
                                                   LanczosRecord* record,
                                                   ExecContext* ctx = nullptr);

}  // namespace genbase::linalg

#endif  // GENBASE_LINALG_SVD_H_
