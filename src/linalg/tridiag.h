#ifndef GENBASE_LINALG_TRIDIAG_H_
#define GENBASE_LINALG_TRIDIAG_H_

#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace genbase::linalg {

/// \brief Eigen decomposition of a symmetric tridiagonal matrix via the
/// implicit QL algorithm with Wilkinson shifts (EISPACK tql2 lineage).
///
/// On entry, diag has length n and off has length n (off[n-1] unused). On
/// success, diag holds the eigenvalues in ascending order. If z is non-null
/// it must be n x n (typically identity) and is overwritten with the
/// corresponding eigenvectors in its columns. Used to solve the projected
/// problem inside the Lanczos SVD of GenBase Query 4.
genbase::Status SymmetricTridiagonalEigen(std::vector<double>* diag,
                                          std::vector<double>* off,
                                          Matrix* z = nullptr);

/// \brief The same solve, tracking only the last row of the eigenvector
/// matrix: on success `last_row` (resized to n) holds row n-1 of the z an
/// identity-started SymmetricTridiagonalEigen returns, and diag its
/// eigenvalues, both bit for bit. Each QL rotation updates each row of z on
/// its own, so the one row costs O(n) per sweep instead of O(n^2). This is
/// all a Lanczos residual bound reads.
genbase::Status SymmetricTridiagonalEigenLastRow(std::vector<double>* diag,
                                                 std::vector<double>* off,
                                                 std::vector<double>* last_row);

}  // namespace genbase::linalg

#endif  // GENBASE_LINALG_TRIDIAG_H_
