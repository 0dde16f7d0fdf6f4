#include "linalg/tridiag.h"

#include <algorithm>
#include <cmath>

namespace genbase::linalg {

namespace {

double Hypot2(double a, double b) { return std::hypot(a, b); }

/// The QL sweeps and the ascending sort, carrying `z_rows` rows of n
/// eigenvector entries (row-major at `z`). A rotation updates each row of z
/// on its own, so a subset of an identity's rows ends exactly as those rows
/// of the full z do.
genbase::Status TridiagonalQl(std::vector<double>* diag,
                              const std::vector<double>& off, double* z,
                              int64_t z_rows) {
  const int64_t n = static_cast<int64_t>(diag->size());
  if (n == 0) return Status::OK();
  if (static_cast<int64_t>(off.size()) < n) {
    return Status::InvalidArgument("off-diagonal vector too short");
  }
  std::vector<double>& d = *diag;
  std::vector<double> e(off.begin(), off.end());
  // Shift e so e[i] couples d[i] and d[i+1]; e[n-1] = 0 sentinel.
  e.resize(static_cast<size_t>(n));
  e[static_cast<size_t>(n - 1)] = 0.0;

  for (int64_t l = 0; l < n; ++l) {
    int iter = 0;
    int64_t m;
    do {
      // Find a small subdiagonal element.
      for (m = l; m < n - 1; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-15 * dd) break;
      }
      if (m != l) {
        if (++iter == 50) {
          return Status::Internal("tridiagonal QL failed to converge");
        }
        // Wilkinson shift.
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = Hypot2(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0 ? std::fabs(r) : -std::fabs(r)));
        double s = 1.0, c = 1.0, p = 0.0;
        for (int64_t i = m - 1; i >= l; --i) {
          const double f = s * e[i];
          const double b = c * e[i];
          r = Hypot2(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          for (int64_t k = 0; k < z_rows; ++k) {
            double* zk = z + k * n;
            const double zf = zk[i + 1];
            zk[i + 1] = s * zk[i] + c * zf;
            zk[i] = c * zk[i] - s * zf;
          }
        }
        if (r == 0.0 && m - 1 >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }

  // Sort ascending, permuting eigenvector columns alongside.
  std::vector<int64_t> order(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(),
            [&](int64_t a, int64_t b) { return d[a] < d[b]; });
  std::vector<double> sorted(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) sorted[i] = d[order[i]];
  d.swap(sorted);
  for (int64_t k = 0; k < z_rows; ++k) {
    double* zk = z + k * n;
    for (int64_t j = 0; j < n; ++j) sorted[j] = zk[order[j]];
    std::copy(sorted.begin(), sorted.end(), zk);
  }
  return Status::OK();
}

}  // namespace

genbase::Status SymmetricTridiagonalEigen(std::vector<double>* diag,
                                          std::vector<double>* off,
                                          Matrix* z) {
  const int64_t n = static_cast<int64_t>(diag->size());
  if (z != nullptr && n > 0 && (z->rows() != n || z->cols() != n)) {
    return Status::InvalidArgument("eigenvector matrix must be n x n");
  }
  return TridiagonalQl(diag, *off, z != nullptr ? z->data() : nullptr,
                       z != nullptr ? n : 0);
}

genbase::Status SymmetricTridiagonalEigenLastRow(
    std::vector<double>* diag, std::vector<double>* off,
    std::vector<double>* last_row) {
  last_row->assign(diag->size(), 0.0);
  if (!last_row->empty()) last_row->back() = 1.0;  // Row n-1 of identity.
  return TridiagonalQl(diag, *off, last_row->data(), 1);
}

}  // namespace genbase::linalg
