#include "bicluster/cheng_church.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/rng.h"
#include "linalg/blas.h"

namespace genbase::bicluster {

namespace {

void CountFlops(ChengChurchCounters* counters, int64_t flops) {
  if (counters != nullptr) counters->residue_flops += flops;
}

void CountIteration(ChengChurchCounters* counters) {
  if (counters != nullptr) ++counters->iterations;
}

/// --- from-scratch helpers (reference impl + cross-check oracle) -------------

/// Row/column means and the overall mean of the selected submatrix.
struct SubmatrixStats {
  std::vector<double> row_mean;   // Indexed by position in `rows`.
  std::vector<double> col_mean;   // Indexed by position in `cols`.
  double mean = 0.0;
};

SubmatrixStats ComputeStats(const linalg::MatrixView& m,
                            const std::vector<int64_t>& rows,
                            const std::vector<int64_t>& cols) {
  SubmatrixStats s;
  s.row_mean.assign(rows.size(), 0.0);
  s.col_mean.assign(cols.size(), 0.0);
  for (size_t ri = 0; ri < rows.size(); ++ri) {
    const double* row = m.data + rows[ri] * m.stride;
    double acc = 0.0;
    for (size_t ci = 0; ci < cols.size(); ++ci) {
      const double v = row[cols[ci]];
      acc += v;
      s.col_mean[ci] += v;
    }
    s.row_mean[ri] = acc / static_cast<double>(cols.size());
    s.mean += acc;
  }
  const double cells =
      static_cast<double>(rows.size()) * static_cast<double>(cols.size());
  for (auto& c : s.col_mean) c /= static_cast<double>(rows.size());
  s.mean /= cells;
  return s;
}

double Residue(const linalg::MatrixView& m, const SubmatrixStats& s,
               const std::vector<int64_t>& rows,
               const std::vector<int64_t>& cols, size_t ri, size_t ci) {
  const double v = m(rows[ri], cols[ci]);
  const double r = v - s.row_mean[ri] - s.col_mean[ci] + s.mean;
  return r * r;
}

double Msr(const linalg::MatrixView& m, const SubmatrixStats& s,
           const std::vector<int64_t>& rows,
           const std::vector<int64_t>& cols) {
  double acc = 0.0;
  for (size_t ri = 0; ri < rows.size(); ++ri) {
    for (size_t ci = 0; ci < cols.size(); ++ci) {
      acc += Residue(m, s, rows, cols, ri, ci);
    }
  }
  return acc / (static_cast<double>(rows.size()) *
                static_cast<double>(cols.size()));
}

/// Per-row mean squared residue d(i); analogous for columns.
std::vector<double> RowResidues(const linalg::MatrixView& m,
                                const SubmatrixStats& s,
                                const std::vector<int64_t>& rows,
                                const std::vector<int64_t>& cols) {
  std::vector<double> d(rows.size(), 0.0);
  for (size_t ri = 0; ri < rows.size(); ++ri) {
    double acc = 0.0;
    for (size_t ci = 0; ci < cols.size(); ++ci) {
      acc += Residue(m, s, rows, cols, ri, ci);
    }
    d[ri] = acc / static_cast<double>(cols.size());
  }
  return d;
}

std::vector<double> ColResidues(const linalg::MatrixView& m,
                                const SubmatrixStats& s,
                                const std::vector<int64_t>& rows,
                                const std::vector<int64_t>& cols) {
  std::vector<double> d(cols.size(), 0.0);
  for (size_t ci = 0; ci < cols.size(); ++ci) {
    double acc = 0.0;
    for (size_t ri = 0; ri < rows.size(); ++ri) {
      acc += Residue(m, s, rows, cols, ri, ci);
    }
    d[ci] = acc / static_cast<double>(rows.size());
  }
  return d;
}

template <typename T>
void RemoveIndices(std::vector<T>* v, const std::vector<size_t>& positions) {
  if (positions.empty()) return;
  std::vector<T> out;
  out.reserve(v->size() - positions.size());
  size_t pi = 0;
  for (size_t i = 0; i < v->size(); ++i) {
    if (pi < positions.size() && positions[pi] == i) {
      ++pi;
      continue;
    }
    out.push_back((*v)[i]);
  }
  *v = std::move(out);
}

/// Per-cell FLOP weights of the from-scratch passes (for the counters).
constexpr int64_t kStatsFlops = 2;    // two accumulations per cell
constexpr int64_t kResidueFlops = 5;  // 3 adds + 1 mul + 1 accumulate

std::vector<int64_t> Iota(int64_t n) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

/// Whether ChengChurch rejects `m`: smaller than the minimum bicluster, or
/// empty (a zero minimum admits an empty matrix, which has no range).
bool TooSmall(const linalg::MatrixView& m, const ChengChurchOptions& options) {
  return m.rows < std::max<int64_t>(1, options.min_rows) ||
         m.cols < std::max<int64_t>(1, options.min_cols);
}

/// The minimum and maximum of a non-empty matrix, with std::min's and
/// std::max's comparisons (a NaN never replaces a bound) but no references,
/// so both bounds stay in registers.
void Range(const linalg::MatrixView& m, double* lo, double* hi) {
  double l = m(0, 0), h = m(0, 0);
  for (int64_t i = 0; i < m.rows; ++i) {
    const double* row = m.data + i * m.stride;
    for (int64_t j = 0; j < m.cols; ++j) {
      const double v = row[j];
      l = v < l ? v : l;
      h = h < v ? v : h;
    }
  }
  *lo = l;
  *hi = h;
}

/// A run's delta and the half-open piece [lo, hi) of deltas that take
/// every delta test the run made so far the way its delta did. The only
/// reader of ChengChurchOptions::delta (lint rule one-delta-test): a test
/// made elsewhere would not narrow the piece, which could then serve a
/// delta whose run differs.
class DeltaInterval {
 public:
  explicit DeltaInterval(const ChengChurchOptions& options)
      : delta_(options.delta) {}

  /// h <= delta: an extraction's stop test.
  bool AtMost(double h) {
    const bool at_most = h <= delta_;
    Narrow(h, /*at_least_h=*/at_most);
    return at_most;
  }

  /// delta < bound: the prefix guard.
  bool Below(double bound) {
    const bool below = delta_ < bound;
    Narrow(bound, /*at_least_h=*/!below);
    return below;
  }

  bool finite() const { return std::isfinite(delta_); }
  /// Whether delta lies in [lo, hi).
  bool In(double lo, double hi) const { return lo <= delta_ && delta_ < hi; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  /// Keeps the deltas >= h when `at_least_h`, else the deltas < h. A NaN h
  /// takes every delta the same way, so it narrows nothing.
  void Narrow(double h, bool at_least_h) {
    if (at_least_h) {
      if (lo_ < h) lo_ = h;
    } else if (h < hi_) {
      hi_ = h;
    }
  }

  double delta_;
  double lo_ = -std::numeric_limits<double>::infinity();
  double hi_ = std::numeric_limits<double>::infinity();
};

}  // namespace

/// --- incremental residue engine ---------------------------------------------

/// The state the incremental impl maintains for the live submatrix: a packed
/// working copy (swap-remove rows/cols, so the live |I| x |J| block stays
/// dense and Gemv-able) plus marginal sums and sums of squares. Single-node
/// deletion updates everything in O(|I|+|J|); H comes from the ANOVA
/// identity in O(|I|+|J|); row/col residues are two Gemv calls.
///
/// To bound FP drift from long subtract chains, all accumulators are
/// recomputed from the packed matrix every kRefreshInterval removals.
class IncrementalCluster {
 public:
  static constexpr int64_t kRefreshInterval = 512;

  /// Copies the (rows x cols) prefix of `m` (the full masked matrix).
  IncrementalCluster(const linalg::MatrixView& m,
                     ChengChurchCounters* counters)
      : stride_(m.cols),
        nrows_(m.rows),
        ncols_(m.cols),
        counters_(counters) {
    pw_.resize(static_cast<size_t>(m.rows * m.cols));
    for (int64_t i = 0; i < m.rows; ++i) {
      std::memcpy(pw_.data() + i * stride_, m.data + i * m.stride,
                  static_cast<size_t>(m.cols) * sizeof(double));
    }
    row_ids_.resize(static_cast<size_t>(nrows_));
    col_ids_.resize(static_cast<size_t>(ncols_));
    std::iota(row_ids_.begin(), row_ids_.end(), 0);
    std::iota(col_ids_.begin(), col_ids_.end(), 0);
    Refresh();
  }

  /// Re-lays the live block at `stride` in room for `rows` rows and empties
  /// the scratch, which every pass rewrites before reading it. (|I|, |J|)
  /// packs a state to keep; the input's (rows, cols) restores the
  /// constructor's layout, which node addition needs.
  void Relayout(int64_t stride, int64_t rows) {
    std::vector<double> pw(static_cast<size_t>(rows * stride));
    for (int64_t i = 0; i < nrows_; ++i) {
      std::memcpy(pw.data() + i * stride, pw_.data() + i * stride_,
                  static_cast<size_t>(ncols_) * sizeof(double));
    }
    pw_ = std::move(pw);
    stride_ = stride;
    for (auto* v : {&row_mean_, &col_mean_, &d_row_, &d_col_, &tmp_row_,
                    &tmp_col_}) {
      v->clear();
    }
  }

  /// Heap bytes held (every vector's capacity; all elements are 8 bytes).
  int64_t bytes() const {
    size_t n = pw_.capacity() + row_ids_.capacity() + col_ids_.capacity();
    for (const auto* v : {&row_sum_, &row_sq_, &col_sum_, &col_sq_, &v_, &w_,
                          &row_mean_, &col_mean_, &d_row_, &d_col_, &tmp_row_,
                          &tmp_col_}) {
      n += v->capacity();
    }
    return static_cast<int64_t>(n * sizeof(double));
  }

  int64_t nrows() const { return nrows_; }
  int64_t ncols() const { return ncols_; }
  const std::vector<int64_t>& row_ids() const { return row_ids_; }
  const std::vector<int64_t>& col_ids() const { return col_ids_; }
  double mean() const { return total_ / Cells(); }

  linalg::MatrixView View() const {
    return linalg::MatrixView(pw_.data(), nrows_, ncols_, stride_);
  }

  /// Mean squared residue of the live submatrix, O(|I|+|J|):
  /// SSQ = Q - sum_i S_r(i)^2/|J| - sum_j S_c(j)^2/|I| + T^2/(|I||J|).
  double H() const {
    double r2 = 0.0;
    for (int64_t i = 0; i < nrows_; ++i) r2 += row_sum_[i] * row_sum_[i];
    double c2 = 0.0;
    for (int64_t j = 0; j < ncols_; ++j) c2 += col_sum_[j] * col_sum_[j];
    const double cells = Cells();
    const double ssq = total_sq_ - r2 / static_cast<double>(ncols_) -
                       c2 / static_cast<double>(nrows_) +
                       total_ * total_ / cells;
    CountFlops(counters_, 2 * (nrows_ + ncols_) + 8);
    return std::max(0.0, ssq / cells);
  }

  /// d(i) for every live row, via the column-centered accumulator
  ///   V_i = sum_j (a_ij - c_j)^2,  d(i)|J| = V_i - |J| (r_i - mu)^2.
  /// V is maintained exactly under column deletion (removing a column does
  /// not change the other columns' means, so V_i just loses one term) and
  /// rebuilt with one Gemv — 2 FLOPs/cell — after row deletions invalidate
  /// it. Most iterations delete one node, so only one of V/W needs the
  /// Gemv rebuild per iteration.
  const std::vector<double>& RowResiduesFast(ThreadPool* pool) {
    if (!v_valid_) RecomputeV(pool);
    const double mu = mean();
    const double nj = static_cast<double>(ncols_);
    d_row_.resize(static_cast<size_t>(nrows_));
    for (int64_t i = 0; i < nrows_; ++i) {
      const double dev = row_sum_[i] / nj - mu;
      d_row_[i] = std::max(0.0, (v_[i] - nj * dev * dev) / nj);
    }
    CountFlops(counters_, 5 * nrows_);
    return d_row_;
  }

  /// d(j) for every live column via W_j = sum_i (a_ij - r_i)^2 (row means
  /// are unchanged by row deletion, so W updates exactly in O(|J|) there
  /// and is rebuilt with one GemvTranspose after column deletions).
  const std::vector<double>& ColResiduesFast(ThreadPool* pool) {
    if (!w_valid_) RecomputeW(pool);
    const double mu = mean();
    const double ni = static_cast<double>(nrows_);
    d_col_.resize(static_cast<size_t>(ncols_));
    for (int64_t j = 0; j < ncols_; ++j) {
      const double dev = col_sum_[j] / ni - mu;
      d_col_[j] = std::max(0.0, (w_[j] - ni * dev * dev) / ni);
    }
    CountFlops(counters_, 5 * ncols_);
    return d_col_;
  }

  /// Removes the rows at the given packed positions (any order). O(k|J|).
  void RemoveRows(std::vector<size_t> positions) {
    std::sort(positions.begin(), positions.end(), std::greater<size_t>());
    for (size_t p : positions) RemoveRow(static_cast<int64_t>(p));
  }

  void RemoveCols(std::vector<size_t> positions) {
    std::sort(positions.begin(), positions.end(), std::greater<size_t>());
    for (size_t p : positions) RemoveCol(static_cast<int64_t>(p));
  }

  /// Removes one row by packed position: marginals updated in O(|J|), the
  /// last row swapped into the hole. W stays exact (row means of the other
  /// rows are untouched — its term for this row is just subtracted); V is
  /// invalidated (every column mean shifts).
  void RemoveRow(int64_t p) {
    const double* row = pw_.data() + p * stride_;
    if (w_valid_) {
      const double rp = row_sum_[p] / static_cast<double>(ncols_);
      for (int64_t j = 0; j < ncols_; ++j) {
        const double d = row[j] - rp;
        w_[j] -= d * d;
      }
      CountFlops(counters_, 3 * ncols_);
    }
    v_valid_ = false;
    for (int64_t j = 0; j < ncols_; ++j) {
      const double v = row[j];
      col_sum_[j] -= v;
      col_sq_[j] -= v * v;
    }
    total_ -= row_sum_[p];
    total_sq_ -= row_sq_[p];
    CountFlops(counters_, 3 * ncols_ + 2);
    const int64_t last = nrows_ - 1;
    if (p != last) {
      std::memcpy(pw_.data() + p * stride_, pw_.data() + last * stride_,
                  static_cast<size_t>(ncols_) * sizeof(double));
      row_ids_[p] = row_ids_[last];
      row_sum_[p] = row_sum_[last];
      row_sq_[p] = row_sq_[last];
    }
    --nrows_;
    row_ids_.resize(static_cast<size_t>(nrows_));
    row_sum_.resize(static_cast<size_t>(nrows_));
    row_sq_.resize(static_cast<size_t>(nrows_));
    MaybeRefresh();
  }

  /// Removes one column by packed position: O(|I|). V stays exact, W is
  /// invalidated (mirror of RemoveRow).
  void RemoveCol(int64_t p) {
    if (v_valid_) {
      const double cp = col_sum_[p] / static_cast<double>(nrows_);
      for (int64_t i = 0; i < nrows_; ++i) {
        const double d = pw_[i * stride_ + p] - cp;
        v_[i] -= d * d;
      }
      CountFlops(counters_, 3 * nrows_);
    }
    w_valid_ = false;
    const int64_t last = ncols_ - 1;
    for (int64_t i = 0; i < nrows_; ++i) {
      double* row = pw_.data() + i * stride_;
      const double v = row[p];
      row_sum_[i] -= v;
      row_sq_[i] -= v * v;
      if (p != last) row[p] = row[last];
    }
    total_ -= col_sum_[p];
    total_sq_ -= col_sq_[p];
    CountFlops(counters_, 3 * nrows_ + 2);
    if (p != last) {
      col_ids_[p] = col_ids_[last];
      col_sum_[p] = col_sum_[last];
      col_sq_[p] = col_sq_[last];
    }
    --ncols_;
    col_ids_.resize(static_cast<size_t>(ncols_));
    col_sum_.resize(static_cast<size_t>(ncols_));
    col_sq_.resize(static_cast<size_t>(ncols_));
    MaybeRefresh();
  }

  /// Appends an original-matrix column (values from `src`, original column
  /// id `orig`) to the live set. O(|I|).
  void AddCol(const linalg::MatrixView& src, int64_t orig) {
    double sum = 0.0, sq = 0.0;
    for (int64_t i = 0; i < nrows_; ++i) {
      const double v = src(row_ids_[i], orig);
      pw_[i * stride_ + ncols_] = v;
      row_sum_[i] += v;
      row_sq_[i] += v * v;
      sum += v;
      sq += v * v;
    }
    col_ids_.push_back(orig);
    col_sum_.push_back(sum);
    col_sq_.push_back(sq);
    total_ += sum;
    total_sq_ += sq;
    CountFlops(counters_, 7 * nrows_ + 2);
    ++ncols_;
    v_valid_ = false;
    w_valid_ = false;
  }

  /// Appends an original-matrix row. O(|J|). Requires spare row capacity
  /// (always true: the packed buffer is allocated at full size and rows are
  /// only re-added after deletion).
  void AddRow(const linalg::MatrixView& src, int64_t orig) {
    double sum = 0.0, sq = 0.0;
    const double* srow = src.data + orig * src.stride;
    double* drow = pw_.data() + nrows_ * stride_;
    for (int64_t j = 0; j < ncols_; ++j) {
      const double v = srow[col_ids_[j]];
      drow[j] = v;
      col_sum_[j] += v;
      col_sq_[j] += v * v;
      sum += v;
      sq += v * v;
    }
    row_ids_.push_back(orig);
    row_sum_.push_back(sum);
    row_sq_.push_back(sq);
    total_ += sum;
    total_sq_ += sq;
    CountFlops(counters_, 7 * ncols_ + 2);
    ++nrows_;
    v_valid_ = false;
    w_valid_ = false;
  }

  /// Row means of the live submatrix (packed order), O(|I|).
  const std::vector<double>& FillRowMeans() {
    row_mean_.resize(static_cast<size_t>(nrows_));
    const double nj = static_cast<double>(ncols_);
    for (int64_t i = 0; i < nrows_; ++i) row_mean_[i] = row_sum_[i] / nj;
    return row_mean_;
  }

  const std::vector<double>& FillColMeans() {
    col_mean_.resize(static_cast<size_t>(ncols_));
    const double ni = static_cast<double>(nrows_);
    for (int64_t j = 0; j < ncols_; ++j) col_mean_[j] = col_sum_[j] / ni;
    return col_mean_;
  }

  /// Recomputes every accumulator from the packed matrix. O(|I||J|).
  void Refresh() {
    row_sum_.assign(static_cast<size_t>(nrows_), 0.0);
    row_sq_.assign(static_cast<size_t>(nrows_), 0.0);
    col_sum_.assign(static_cast<size_t>(ncols_), 0.0);
    col_sq_.assign(static_cast<size_t>(ncols_), 0.0);
    total_ = 0.0;
    total_sq_ = 0.0;
    for (int64_t i = 0; i < nrows_; ++i) {
      const double* row = pw_.data() + i * stride_;
      double sum = 0.0, sq = 0.0;
      for (int64_t j = 0; j < ncols_; ++j) {
        const double v = row[j];
        sum += v;
        sq += v * v;
        col_sum_[j] += v;
        col_sq_[j] += v * v;
      }
      row_sum_[i] = sum;
      row_sq_[i] = sq;
      total_ += sum;
      total_sq_ += sq;
    }
    CountFlops(counters_, 4 * nrows_ * ncols_);
    removals_since_refresh_ = 0;
    v_valid_ = false;
    w_valid_ = false;
  }

 private:
  double Cells() const {
    return static_cast<double>(nrows_) * static_cast<double>(ncols_);
  }

  void MaybeRefresh() {
    if (++removals_since_refresh_ >= kRefreshInterval) Refresh();
  }

  /// V_i = Qr_i - 2 (A c)_i + sum_j c_j^2: one Gemv over the live block.
  void RecomputeV(ThreadPool* pool) {
    FillColMeans();
    double c2 = 0.0;
    for (int64_t j = 0; j < ncols_; ++j) c2 += col_mean_[j] * col_mean_[j];
    tmp_row_.resize(static_cast<size_t>(nrows_));
    linalg::Gemv(View(), col_mean_.data(), tmp_row_.data(), pool);
    v_.resize(static_cast<size_t>(nrows_));
    for (int64_t i = 0; i < nrows_; ++i) {
      v_[i] = row_sq_[i] - 2.0 * tmp_row_[i] + c2;
    }
    CountFlops(counters_, 2 * nrows_ * ncols_ + 3 * nrows_ + 3 * ncols_);
    v_valid_ = true;
  }

  /// W_j = Qc_j - 2 (A^T r)_j + sum_i r_i^2: one GemvTranspose.
  void RecomputeW(ThreadPool* pool) {
    FillRowMeans();
    double r2 = 0.0;
    for (int64_t i = 0; i < nrows_; ++i) r2 += row_mean_[i] * row_mean_[i];
    tmp_col_.resize(static_cast<size_t>(ncols_));
    linalg::GemvTranspose(View(), row_mean_.data(), tmp_col_.data(), pool);
    w_.resize(static_cast<size_t>(ncols_));
    for (int64_t j = 0; j < ncols_; ++j) {
      w_[j] = col_sq_[j] - 2.0 * tmp_col_[j] + r2;
    }
    CountFlops(counters_, 2 * nrows_ * ncols_ + 3 * ncols_ + 3 * nrows_);
    w_valid_ = true;
  }

  std::vector<double> pw_;
  int64_t stride_;
  int64_t nrows_;
  int64_t ncols_;
  std::vector<int64_t> row_ids_, col_ids_;
  std::vector<double> row_sum_, row_sq_;
  std::vector<double> col_sum_, col_sq_;
  double total_ = 0.0;
  double total_sq_ = 0.0;
  int64_t removals_since_refresh_ = 0;
  ChengChurchCounters* counters_;

  // Lazily-maintained squared-residue accumulators (see RowResiduesFast).
  std::vector<double> v_, w_;
  bool v_valid_ = false;
  bool w_valid_ = false;

  // Scratch reused across iterations.
  std::vector<double> row_mean_, col_mean_, d_row_, d_col_, tmp_row_,
      tmp_col_;
};

namespace {

/// Cross-check: recompute stats from scratch on the live index sets and
/// compare against the incremental engine's view.
genbase::Status CrossCheck(const IncrementalCluster& inc, double h,
                           const std::vector<double>* d_row,
                           const std::vector<double>* d_col) {
  const linalg::MatrixView v = inc.View();
  std::vector<int64_t> rows(static_cast<size_t>(inc.nrows()));
  std::vector<int64_t> cols(static_cast<size_t>(inc.ncols()));
  std::iota(rows.begin(), rows.end(), 0);
  std::iota(cols.begin(), cols.end(), 0);
  const SubmatrixStats s = ComputeStats(v, rows, cols);
  auto close = [](double a, double b) {
    return std::fabs(a - b) <= 1e-6 * std::max({1.0, std::fabs(a),
                                                std::fabs(b)});
  };
  if (!close(h, Msr(v, s, rows, cols))) {
    return genbase::Status::Internal("cheng-church cross-check: H diverged");
  }
  if (d_row != nullptr) {
    const std::vector<double> ref = RowResidues(v, s, rows, cols);
    for (size_t i = 0; i < ref.size(); ++i) {
      if (!close((*d_row)[i], ref[i])) {
        return genbase::Status::Internal(
            "cheng-church cross-check: row residue diverged");
      }
    }
  }
  if (d_col != nullptr) {
    const std::vector<double> ref = ColResidues(v, s, rows, cols);
    for (size_t j = 0; j < ref.size(); ++j) {
      if (!close((*d_col)[j], ref[j])) {
        return genbase::Status::Internal(
            "cheng-church cross-check: col residue diverged");
      }
    }
  }
  return genbase::Status::OK();
}

/// Phase 1 of an incremental extraction: multiple node deletion while the
/// matrix is large, until H <= delta or a round deletes nothing. Returns
/// the smallest H it tested.
genbase::Result<double> MultipleNodeDeletion(const ChengChurchOptions& options,
                                             ExecContext* ctx,
                                             IncrementalCluster* inc,
                                             DeltaInterval* delta) {
  ThreadPool* pool = ctx != nullptr ? ctx->pool() : nullptr;
  double min_h = std::numeric_limits<double>::infinity();
  for (;;) {
    if (ctx != nullptr) GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    if (options.pass_hook) GENBASE_RETURN_NOT_OK(options.pass_hook());
    CountIteration(options.counters);
    const double h = inc->H();
    min_h = std::min(min_h, h);
    if (options.cross_check) {
      GENBASE_RETURN_NOT_OK(CrossCheck(*inc, h, nullptr, nullptr));
    }
    if (delta->AtMost(h)) break;
    bool changed = false;
    if (inc->nrows() > 100) {
      const std::vector<double>& d = inc->RowResiduesFast(pool);
      if (options.cross_check) {
        GENBASE_RETURN_NOT_OK(CrossCheck(*inc, h, &d, nullptr));
      }
      std::vector<size_t> to_remove;
      for (int64_t i = 0; i < inc->nrows(); ++i) {
        if (d[i] > options.alpha * h &&
            inc->nrows() - static_cast<int64_t>(to_remove.size()) >
                options.min_rows) {
          to_remove.push_back(static_cast<size_t>(i));
        }
      }
      if (!to_remove.empty()) {
        inc->RemoveRows(std::move(to_remove));
        changed = true;
      }
    }
    if (inc->ncols() > 100) {
      const double h2 = inc->H();
      const std::vector<double>& d = inc->ColResiduesFast(pool);
      if (options.cross_check) {
        GENBASE_RETURN_NOT_OK(CrossCheck(*inc, h2, nullptr, &d));
      }
      std::vector<size_t> to_remove;
      for (int64_t j = 0; j < inc->ncols(); ++j) {
        if (d[j] > options.alpha * h2 &&
            inc->ncols() - static_cast<int64_t>(to_remove.size()) >
                options.min_cols) {
          to_remove.push_back(static_cast<size_t>(j));
        }
      }
      if (!to_remove.empty()) {
        inc->RemoveCols(std::move(to_remove));
        changed = true;
      }
    }
    if (!changed) break;  // Fall through to single deletion.
  }
  return min_h;
}

/// One bicluster extraction with the incremental engine. `wv` is the masked
/// working matrix. With `after_deletion` (a packed state of this `wv` that
/// phase 1 left, which a run of these options would reach), the
/// extraction continues a copy of it from phase 2.
genbase::Result<Bicluster> ExtractIncremental(
    const linalg::MatrixView& wv, const ChengChurchOptions& options,
    ExecContext* ctx, const IncrementalCluster* after_deletion,
    DeltaInterval* delta) {
  ThreadPool* pool = ctx != nullptr ? ctx->pool() : nullptr;
  IncrementalCluster inc = after_deletion != nullptr
                               ? *after_deletion
                               : IncrementalCluster(wv, options.counters);
  if (after_deletion != nullptr) {
    inc.Relayout(wv.cols, wv.rows);
  } else {
    GENBASE_RETURN_NOT_OK(
        MultipleNodeDeletion(options, ctx, &inc, delta).status());
  }

  // Phase 2: single node deletion until H <= delta. Stats update in
  // O(|I|+|J|) per deletion; the residue sweeps are the two Gemv calls.
  for (;;) {
    if (ctx != nullptr) GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    if (options.pass_hook) GENBASE_RETURN_NOT_OK(options.pass_hook());
    CountIteration(options.counters);
    const double h = inc.H();
    if (delta->AtMost(h)) break;
    const std::vector<double>& dr = inc.RowResiduesFast(pool);
    const std::vector<double>& dc = inc.ColResiduesFast(pool);
    if (options.cross_check) {
      GENBASE_RETURN_NOT_OK(CrossCheck(inc, h, &dr, &dc));
    }
    const auto max_row = std::max_element(dr.begin(), dr.end());
    const auto max_col = std::max_element(dc.begin(), dc.end());
    const bool can_drop_row = inc.nrows() > options.min_rows;
    const bool can_drop_col = inc.ncols() > options.min_cols;
    if (!can_drop_row && !can_drop_col) break;
    const bool drop_row =
        can_drop_row && (!can_drop_col || *max_row >= *max_col);
    if (drop_row) {
      inc.RemoveRow(max_row - dr.begin());
    } else {
      inc.RemoveCol(max_col - dc.begin());
    }
  }

  // Phase 3: node addition — add back columns then rows that fit the
  // cluster. Candidate tests read the masked matrix (original indices);
  // accepted nodes are appended to the packed state in O(|I|) / O(|J|).
  {
    if (options.pass_hook) GENBASE_RETURN_NOT_OK(options.pass_hook());
    CountIteration(options.counters);
    const double h = inc.H();
    const std::vector<double> row_mean = inc.FillRowMeans();
    const double mu = inc.mean();
    std::vector<bool> in_rows(static_cast<size_t>(wv.rows), false);
    for (int64_t r : inc.row_ids()) in_rows[static_cast<size_t>(r)] = true;
    std::vector<bool> in_cols(static_cast<size_t>(wv.cols), false);
    for (int64_t c : inc.col_ids()) in_cols[static_cast<size_t>(c)] = true;
    for (int64_t c = 0; c < wv.cols; ++c) {
      if (in_cols[static_cast<size_t>(c)]) continue;
      const std::vector<int64_t>& rows = inc.row_ids();
      double cmean = 0.0;
      for (int64_t r : rows) cmean += wv(r, c);
      cmean /= static_cast<double>(rows.size());
      double acc = 0.0;
      for (size_t ri = 0; ri < rows.size(); ++ri) {
        const double res = wv(rows[ri], c) - row_mean[ri] - cmean + mu;
        acc += res * res;
      }
      CountFlops(options.counters,
                 6 * static_cast<int64_t>(rows.size()) + 2);
      if (acc / static_cast<double>(rows.size()) <= h) {
        inc.AddCol(wv, c);
        in_cols[static_cast<size_t>(c)] = true;
      }
    }
    // Refresh the cluster view with the enlarged column set before row
    // addition (mirrors the reference impl's second ComputeStats).
    const double h2 = inc.H();
    const std::vector<double> col_mean = inc.FillColMeans();
    const double mu2 = inc.mean();
    for (int64_t r = 0; r < wv.rows; ++r) {
      if (in_rows[static_cast<size_t>(r)]) continue;
      const std::vector<int64_t>& cols = inc.col_ids();
      double rmean = 0.0;
      for (int64_t c : cols) rmean += wv(r, c);
      rmean /= static_cast<double>(cols.size());
      double acc = 0.0;
      for (size_t ci = 0; ci < cols.size(); ++ci) {
        const double res = wv(r, cols[ci]) - rmean - col_mean[ci] + mu2;
        acc += res * res;
      }
      CountFlops(options.counters,
                 6 * static_cast<int64_t>(cols.size()) + 2);
      if (acc / static_cast<double>(cols.size()) <= h2) {
        inc.AddRow(wv, r);
        in_rows[static_cast<size_t>(r)] = true;
      }
    }
    if (options.cross_check) {
      GENBASE_RETURN_NOT_OK(CrossCheck(inc, inc.H(), nullptr, nullptr));
    }
  }

  Bicluster bc;
  bc.rows = inc.row_ids();
  bc.cols = inc.col_ids();
  std::sort(bc.rows.begin(), bc.rows.end());
  std::sort(bc.cols.begin(), bc.cols.end());
  return bc;
}

/// One bicluster extraction with the original from-scratch engine.
genbase::Result<Bicluster> ExtractReference(
    const linalg::MatrixView& wv, const ChengChurchOptions& options,
    ExecContext* ctx, DeltaInterval* delta) {
  std::vector<int64_t> rows(static_cast<size_t>(wv.rows));
  std::vector<int64_t> cols(static_cast<size_t>(wv.cols));
  std::iota(rows.begin(), rows.end(), 0);
  std::iota(cols.begin(), cols.end(), 0);
  const auto cells = [&]() {
    return static_cast<int64_t>(rows.size()) *
           static_cast<int64_t>(cols.size());
  };

  // Phase 1: multiple node deletion while the matrix is large.
  for (;;) {
    if (ctx != nullptr) GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    if (options.pass_hook) GENBASE_RETURN_NOT_OK(options.pass_hook());
    CountIteration(options.counters);
    SubmatrixStats s = ComputeStats(wv, rows, cols);
    const double h = Msr(wv, s, rows, cols);
    CountFlops(options.counters, (kStatsFlops + kResidueFlops) * cells());
    if (delta->AtMost(h)) break;
    bool changed = false;
    if (static_cast<int64_t>(rows.size()) > 100) {
      const std::vector<double> d = RowResidues(wv, s, rows, cols);
      CountFlops(options.counters, kResidueFlops * cells());
      std::vector<size_t> to_remove;
      for (size_t i = 0; i < rows.size(); ++i) {
        if (d[i] > options.alpha * h &&
            static_cast<int64_t>(rows.size() - to_remove.size()) >
                options.min_rows) {
          to_remove.push_back(i);
        }
      }
      if (!to_remove.empty()) {
        RemoveIndices(&rows, to_remove);
        changed = true;
        s = ComputeStats(wv, rows, cols);
        CountFlops(options.counters, kStatsFlops * cells());
      }
    }
    if (static_cast<int64_t>(cols.size()) > 100) {
      const double h2 = Msr(wv, s, rows, cols);
      const std::vector<double> d = ColResidues(wv, s, rows, cols);
      CountFlops(options.counters, 2 * kResidueFlops * cells());
      std::vector<size_t> to_remove;
      for (size_t i = 0; i < cols.size(); ++i) {
        if (d[i] > options.alpha * h2 &&
            static_cast<int64_t>(cols.size() - to_remove.size()) >
                options.min_cols) {
          to_remove.push_back(i);
        }
      }
      if (!to_remove.empty()) {
        RemoveIndices(&cols, to_remove);
        changed = true;
      }
    }
    if (!changed) break;  // Fall through to single deletion.
  }

  // Phase 2: single node deletion until H <= delta.
  for (;;) {
    if (ctx != nullptr) GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    if (options.pass_hook) GENBASE_RETURN_NOT_OK(options.pass_hook());
    CountIteration(options.counters);
    const SubmatrixStats s = ComputeStats(wv, rows, cols);
    const double h = Msr(wv, s, rows, cols);
    CountFlops(options.counters, (kStatsFlops + kResidueFlops) * cells());
    if (delta->AtMost(h)) break;
    const std::vector<double> dr = RowResidues(wv, s, rows, cols);
    const std::vector<double> dc = ColResidues(wv, s, rows, cols);
    CountFlops(options.counters, 2 * kResidueFlops * cells());
    const auto max_row = std::max_element(dr.begin(), dr.end());
    const auto max_col = std::max_element(dc.begin(), dc.end());
    const bool can_drop_row =
        static_cast<int64_t>(rows.size()) > options.min_rows;
    const bool can_drop_col =
        static_cast<int64_t>(cols.size()) > options.min_cols;
    if (!can_drop_row && !can_drop_col) break;
    const bool drop_row =
        can_drop_row && (!can_drop_col || *max_row >= *max_col);
    if (drop_row) {
      rows.erase(rows.begin() + (max_row - dr.begin()));
    } else {
      cols.erase(cols.begin() + (max_col - dc.begin()));
    }
  }

  // Phase 3: node addition — add back rows/columns that fit.
  {
    if (options.pass_hook) GENBASE_RETURN_NOT_OK(options.pass_hook());
    CountIteration(options.counters);
    const SubmatrixStats s = ComputeStats(wv, rows, cols);
    const double h = Msr(wv, s, rows, cols);
    CountFlops(options.counters, (kStatsFlops + kResidueFlops) * cells());
    std::vector<bool> in_rows(static_cast<size_t>(wv.rows), false);
    for (int64_t r : rows) in_rows[static_cast<size_t>(r)] = true;
    std::vector<bool> in_cols(static_cast<size_t>(wv.cols), false);
    for (int64_t c : cols) in_cols[static_cast<size_t>(c)] = true;
    for (int64_t c = 0; c < wv.cols; ++c) {
      if (in_cols[static_cast<size_t>(c)]) continue;
      double acc = 0.0;
      double cmean = 0.0;
      for (int64_t r : rows) cmean += wv(r, c);
      cmean /= static_cast<double>(rows.size());
      for (size_t ri = 0; ri < rows.size(); ++ri) {
        const double res =
            wv(rows[ri], c) - s.row_mean[ri] - cmean + s.mean;
        acc += res * res;
      }
      CountFlops(options.counters,
                 6 * static_cast<int64_t>(rows.size()) + 2);
      if (acc / static_cast<double>(rows.size()) <= h) {
        cols.push_back(c);
        in_cols[static_cast<size_t>(c)] = true;
      }
    }
    // Recompute stats with the enlarged column set before row addition.
    const SubmatrixStats s2 = ComputeStats(wv, rows, cols);
    const double h2 = Msr(wv, s2, rows, cols);
    CountFlops(options.counters, (kStatsFlops + kResidueFlops) * cells());
    for (int64_t r = 0; r < wv.rows; ++r) {
      if (in_rows[static_cast<size_t>(r)]) continue;
      double rmean = 0.0;
      for (int64_t c : cols) rmean += wv(r, c);
      rmean /= static_cast<double>(cols.size());
      double acc = 0.0;
      for (size_t ci = 0; ci < cols.size(); ++ci) {
        const double res =
            wv(r, cols[ci]) - rmean - s2.col_mean[ci] + s2.mean;
        acc += res * res;
      }
      CountFlops(options.counters,
                 6 * static_cast<int64_t>(cols.size()) + 2);
      if (acc / static_cast<double>(cols.size()) <= h2) {
        rows.push_back(r);
        in_rows[static_cast<size_t>(r)] = true;
      }
    }
  }

  std::sort(rows.begin(), rows.end());
  std::sort(cols.begin(), cols.end());
  Bicluster bc;
  bc.rows = std::move(rows);
  bc.cols = std::move(cols);
  return bc;
}

}  // namespace

double MeanSquaredResidue(const linalg::MatrixView& m,
                          const std::vector<int64_t>& rows,
                          const std::vector<int64_t>& cols) {
  if (rows.empty() || cols.empty()) return 0.0;
  const SubmatrixStats s = ComputeStats(m, rows, cols);
  return Msr(m, s, rows, cols);
}

double MeanSquaredResidue(const linalg::MatrixView& m) {
  return MeanSquaredResidue(m, Iota(m.rows), Iota(m.cols));
}

int64_t ChengChurchState::bytes() const {
  return first != nullptr ? first->bytes() : 0;
}

genbase::Result<ChengChurchState> ChengChurchPrefix(
    const linalg::MatrixView& data, const ChengChurchOptions& options,
    ExecContext* ctx) {
  ChengChurchState state;
  state.full_msr = MeanSquaredResidue(data);
  if (TooSmall(data, options)) return state;  // ChengChurch rejects it.
  Range(data, &state.lo, &state.hi);
  ChengChurchOptions deletion;
  deletion.delta = -std::numeric_limits<double>::infinity();
  deletion.alpha = options.alpha;
  deletion.min_rows = options.min_rows;
  deletion.min_cols = options.min_cols;
  IncrementalCluster inc(data, nullptr);
  DeltaInterval never(deletion);
  GENBASE_ASSIGN_OR_RETURN(state.min_h,
                           MultipleNodeDeletion(deletion, ctx, &inc, &never));
  if (inc.nrows() < data.rows || inc.ncols() < data.cols) {
    inc.Relayout(inc.ncols(), inc.nrows());
    // A copy holds no spare capacity.
    state.first = std::make_shared<IncrementalCluster>(inc);
  }
  return state;
}

namespace {

/// Whether a run sees no pass from outside: only such a run continues a
/// prefix or reads and publishes a record's pieces.
bool Plain(const ChengChurchOptions& options) {
  return options.impl == ChengChurchImpl::kIncremental && !options.pass_hook &&
         options.counters == nullptr && !options.cross_check;
}

/// ChengChurch, with every delta test narrowing `delta`.
genbase::Result<std::vector<Bicluster>> Extract(
    const linalg::MatrixView& data, const ChengChurchOptions& options,
    ExecContext* ctx, const ChengChurchState* prefix, DeltaInterval* delta) {
  if (TooSmall(data, options)) {
    return Status::InvalidArgument("matrix smaller than minimum bicluster");
  }
  const bool use_prefix = prefix != nullptr && Plain(options);
  // Working copy: masking replaces found cells with noise.
  GENBASE_ASSIGN_OR_RETURN(
      linalg::Matrix work,
      linalg::Matrix::Create(data.rows, data.cols,
                             ctx != nullptr ? ctx->memory() : nullptr));
  for (int64_t i = 0; i < data.rows; ++i) {
    std::copy(data.data + i * data.stride, data.data + i * data.stride +
              data.cols, work.Row(i));
  }
  double lo = 0.0, hi = 0.0;
  if (use_prefix) {
    lo = prefix->lo;
    hi = prefix->hi;
  } else {
    Range(linalg::MatrixView(work), &lo, &hi);
  }
  Rng mask_rng(options.mask_seed);
  std::vector<Bicluster> found;

  for (int b = 0; b < options.max_biclusters; ++b) {
    linalg::MatrixView wv(work);
    const IncrementalCluster* after_deletion =
        use_prefix && b == 0 && delta->Below(prefix->min_h)
            ? prefix->first.get()
            : nullptr;
    GENBASE_ASSIGN_OR_RETURN(
        Bicluster bc,
        options.impl == ChengChurchImpl::kIncremental
            ? ExtractIncremental(wv, options, ctx, after_deletion, delta)
            : ExtractReference(wv, options, ctx, delta));
    bc.mean_squared_residue = MeanSquaredResidue(wv, bc.rows, bc.cols);
    // Mask the found bicluster with uniform noise so the next pass finds a
    // different one (the Cheng & Church masking step).
    for (int64_t r : bc.rows) {
      for (int64_t c : bc.cols) {
        work(r, c) = mask_rng.Uniform(lo, hi);
      }
    }
    found.push_back(std::move(bc));
  }
  return found;
}

}  // namespace

genbase::Result<std::vector<Bicluster>> ChengChurch(
    const linalg::MatrixView& data, const ChengChurchOptions& options,
    ExecContext* ctx, const ChengChurchState* prefix) {
  DeltaInterval delta(options);
  return Extract(data, options, ctx, prefix, &delta);
}

int64_t ChengChurchRecord::Piece::bytes() const {
  size_t ids = 0;
  for (const Bicluster& b : biclusters) {
    ids += b.rows.capacity() + b.cols.capacity();
  }
  return static_cast<int64_t>(biclusters.capacity() * sizeof(Bicluster) +
                              ids * sizeof(int64_t));
}

genbase::Status ChengChurchRecord::Seed(ChengChurchState prefix) {
  if (account_ != nullptr) {
    GENBASE_RETURN_NOT_OK(account_->Grow(prefix.bytes()));
  }
  prefix_ = std::move(prefix);
  return genbase::Status::OK();
}

std::vector<ChengChurchRecord::Piece> ChengChurchRecord::pieces() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pieces_;
}

genbase::Result<std::vector<Bicluster>> ChengChurchRecord::Run(
    const linalg::MatrixView& data, const ChengChurchOptions& options,
    ExecContext* ctx) {
  DeltaInterval delta(options);
  const bool recordable = delta.finite() && Plain(options);
  if (recordable) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Piece& p : pieces_) {
      if (p.max_biclusters == options.max_biclusters && delta.In(p.lo, p.hi)) {
        return p.biclusters;
      }
    }
  }
  GENBASE_ASSIGN_OR_RETURN(std::vector<Bicluster> found,
                           Extract(data, options, ctx, &prefix_, &delta));
  if (recordable) {
    Publish({delta.lo(), delta.hi(), options.max_biclusters, found});
  }
  return found;
}

void ChengChurchRecord::Publish(Piece piece) {
  std::lock_guard<std::mutex> lock(mu_);
  // Another run inside this piece may have published it meanwhile.
  for (const Piece& p : pieces_) {
    if (p.max_biclusters == piece.max_biclusters && p.lo == piece.lo &&
        p.hi == piece.hi) {
      return;
    }
  }
  if (account_ != nullptr && !account_->Grow(piece.bytes()).ok()) return;
  pieces_.push_back(std::move(piece));
}

}  // namespace genbase::bicluster
