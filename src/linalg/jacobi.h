#ifndef GENBASE_LINALG_JACOBI_H_
#define GENBASE_LINALG_JACOBI_H_

#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace genbase::linalg {

/// \brief Full eigen decomposition of a dense symmetric matrix via the
/// cyclic Jacobi rotation method. O(n^3) per sweep — used as the trusted
/// reference oracle in tests (Lanczos, covariance spectra).
///
/// On success `values` are ascending and `vectors` columns are the matching
/// orthonormal eigenvectors.
struct EigenDecomposition {
  std::vector<double> values;
  Matrix vectors;
};

genbase::Result<EigenDecomposition> JacobiEigen(const Matrix& a,
                                                int max_sweeps = 64);

}  // namespace genbase::linalg

#endif  // GENBASE_LINALG_JACOBI_H_
