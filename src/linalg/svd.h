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

/// \brief The top-k singular values of A and the Lanczos run behind them.
struct SvdResult {
  std::vector<double> singular_values;  ///< Descending.
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

/// sigma_i = sqrt(lambda_i) of the Gram operator's eigenvalues, with
/// rounding noise below zero clamped: the one conversion behind every Q4
/// answer, single-node and distributed.
std::vector<double> SingularValues(const std::vector<double>& eigenvalues);

/// \brief The top-k singular values of A via Lanczos on the Gram operator
/// v -> A^T (A v) (never formed explicitly), the paper's Lanczos power
/// method for Query 4, and the iteration count. With `record` (a
/// LanczosRecord of a's Gram operator under the same tolerance and seed) the
/// answer is read from, and grown into, the record, bit for bit what null
/// (a fresh run) gives.
genbase::Result<SvdResult> TruncatedSingularValues(const MatrixView& a,
                                                   const SvdOptions& options,
                                                   LanczosRecord* record,
                                                   ExecContext* ctx = nullptr);

}  // namespace genbase::linalg

#endif  // GENBASE_LINALG_SVD_H_
