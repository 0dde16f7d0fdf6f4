#ifndef GENBASE_LINALG_QR_H_
#define GENBASE_LINALG_QR_H_

#include <cstdint>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace genbase::linalg {

/// \brief Compact Householder QR factorization of an m x n matrix (m >= n).
///
/// Follows the LAPACK dgeqrf convention logically (R in the upper triangle,
/// Householder vectors with implicit v(0)=1 below it, scalar factors in
/// tau), but the packed storage is the TRANSPOSE of that matrix so that all
/// inner loops run over contiguous memory (see qr.cc).
class HouseholderQr {
 public:
  /// Factors `a`. `a` is consumed (transposed into internal storage).
  static genbase::Result<HouseholderQr> Factor(Matrix a,
                                               ExecContext* ctx = nullptr);

  /// Factors the viewed matrix without consuming caller storage (the
  /// transposed packed copy is still made). Bit-identical to the consuming
  /// overload — both run the same packed Householder loop.
  static genbase::Result<HouseholderQr> Factor(const MatrixView& a,
                                               ExecContext* ctx = nullptr);

  int64_t rows() const { return qrt_.cols(); }
  int64_t cols() const { return qrt_.rows(); }

  /// Overwrites b (length m) with Q^T b.
  void ApplyQTranspose(double* b) const;

  /// Solves R x = b[0..n) by back substitution. Returns InvalidArgument on a
  /// numerically singular R.
  genbase::Status SolveR(const double* b, double* x) const;

  /// Returns the R factor (n x n).
  Matrix R() const;

  /// Packed transposed factorization (n x m); row j holds A's column j.
  const Matrix& packed() const { return qrt_; }

 private:
  HouseholderQr(Matrix qrt, std::vector<double> tau)
      : qrt_(std::move(qrt)), tau_(std::move(tau)) {}

  /// Householder loop over a pre-packed transposed (n x m) matrix; the
  /// single code path behind both Factor overloads.
  static genbase::Result<HouseholderQr> FactorPacked(Matrix qrt,
                                                     ExecContext* ctx);

  Matrix qrt_;
  std::vector<double> tau_;
};

/// \brief Result of a least-squares fit.
struct LeastSquaresFit {
  std::vector<double> coefficients;  ///< One per predictor column.
  double residual_norm = 0.0;        ///< ||A x - b||_2.
  double r_squared = 0.0;            ///< Coefficient of determination.
};

/// \brief Solves min ||A x - b|| via Householder QR. This is the analytics
/// kernel of GenBase Query 1 ("we use a QR decomposition technique to solve
/// the linear regression problem"). A is consumed.
genbase::Result<LeastSquaresFit> LeastSquaresQr(Matrix a,
                                                const std::vector<double>& b,
                                                ExecContext* ctx = nullptr);

/// View overload for callers whose design matrix lives in externally planned
/// storage (the static-plan arena). Same arithmetic order as the consuming
/// overload, so results are bitwise identical.
genbase::Result<LeastSquaresFit> LeastSquaresQr(const MatrixView& a,
                                                const std::vector<double>& b,
                                                ExecContext* ctx = nullptr);

}  // namespace genbase::linalg

#endif  // GENBASE_LINALG_QR_H_
