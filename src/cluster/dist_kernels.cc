#include "cluster/dist_kernels.h"

#include <algorithm>
#include <cmath>

#include "common/timer.h"
#include "linalg/blas.h"
#include "linalg/lanczos.h"
#include "linalg/svd.h"

namespace genbase::cluster {

std::vector<RowRange> PartitionRows(int64_t n, int nodes) {
  std::vector<RowRange> out(static_cast<size_t>(nodes));
  const int64_t base = n / nodes;
  const int64_t extra = n % nodes;
  int64_t at = 0;
  for (int i = 0; i < nodes; ++i) {
    const int64_t len = base + (i < extra ? 1 : 0);
    out[static_cast<size_t>(i)] = {at, at + len};
    at += len;
  }
  return out;
}

genbase::Result<linalg::LeastSquaresFit> DistributedLeastSquares(
    SimCluster* cluster, std::vector<linalg::Matrix> design_blocks,
    const std::vector<std::vector<double>>& y_blocks, ExecContext* ctx) {
  const int p = cluster->nodes();
  if (static_cast<int>(design_blocks.size()) != p ||
      static_cast<int>(y_blocks.size()) != p) {
    return genbase::Status::InvalidArgument("block count != node count");
  }
  const int64_t k = design_blocks[0].cols();

  // Global response statistics for TSS (one small all-reduce).
  double y_sum = 0.0, y_sumsq = 0.0;
  int64_t m_total = 0;
  for (const auto& y : y_blocks) {
    for (double v : y) {
      y_sum += v;
      y_sumsq += v * v;
    }
    m_total += static_cast<int64_t>(y.size());
  }
  cluster->AllReduce(3 * 8);
  if (m_total < k) {
    return genbase::Status::InvalidArgument("fewer rows than predictors");
  }
  const double mean_y = y_sum / static_cast<double>(m_total);
  const double tss = y_sumsq - static_cast<double>(m_total) * mean_y * mean_y;

  // Local TSQR step per node.
  struct NodeReduced {
    linalg::Matrix r;        // k x k (or m_i x k fallback).
    std::vector<double> c;   // Matching row count.
    double rho = 0.0;        // Residual energy already resolved locally.
  };
  std::vector<NodeReduced> reduced(static_cast<size_t>(p));
  GENBASE_RETURN_NOT_OK(cluster->Compute([&](int node) -> genbase::Status {
    auto& nr = reduced[static_cast<size_t>(node)];
    linalg::Matrix& block = design_blocks[static_cast<size_t>(node)];
    const std::vector<double>& y = y_blocks[static_cast<size_t>(node)];
    const int64_t m_i = block.rows();
    if (m_i >= k) {
      GENBASE_ASSIGN_OR_RETURN(
          linalg::HouseholderQr qr,
          linalg::HouseholderQr::Factor(std::move(block), ctx));
      std::vector<double> qty = y;
      qr.ApplyQTranspose(qty.data());
      nr.r = qr.R();
      nr.c.assign(qty.begin(), qty.begin() + k);
      for (int64_t i = k; i < m_i; ++i) nr.rho += qty[i] * qty[i];
    } else {
      // Short block: ship it raw (standard TSQR fallback).
      nr.r = std::move(block);
      nr.c = y;
    }
    return genbase::Status::OK();
  }));

  // Gather reduced factors to the root.
  int64_t max_bytes = 0;
  int64_t stacked_rows = 0;
  for (const auto& nr : reduced) {
    max_bytes = std::max(max_bytes, nr.r.bytes() +
                                        static_cast<int64_t>(nr.c.size()) * 8);
    stacked_rows += nr.r.rows();
  }
  cluster->Gather(0, max_bytes);

  // Root: stack and solve the reduced problem.
  linalg::LeastSquaresFit fit;
  genbase::Status root_status = genbase::Status::OK();
  GENBASE_RETURN_NOT_OK(cluster->Compute([&](int node) -> genbase::Status {
    if (node != 0) return genbase::Status::OK();
    linalg::Matrix stacked(stacked_rows, k);
    std::vector<double> stacked_c;
    stacked_c.reserve(static_cast<size_t>(stacked_rows));
    int64_t at = 0;
    double rho_total = 0.0;
    for (const auto& nr : reduced) {
      for (int64_t i = 0; i < nr.r.rows(); ++i) {
        std::copy(nr.r.Row(i), nr.r.Row(i) + k, stacked.Row(at + i));
      }
      at += nr.r.rows();
      stacked_c.insert(stacked_c.end(), nr.c.begin(), nr.c.end());
      rho_total += nr.rho;
    }
    auto root_fit = linalg::LeastSquaresQr(std::move(stacked), stacked_c,
                                           ctx);
    if (!root_fit.ok()) {
      root_status = root_fit.status();
      return genbase::Status::OK();
    }
    fit.coefficients = std::move(root_fit->coefficients);
    const double rss = rho_total + root_fit->residual_norm *
                                       root_fit->residual_norm;
    fit.residual_norm = std::sqrt(rss);
    fit.r_squared = tss > 0 ? 1.0 - rss / tss : 0.0;
    return genbase::Status::OK();
  }));
  GENBASE_RETURN_NOT_OK(root_status);
  // Broadcast the coefficients back (small).
  cluster->Broadcast(0, k * 8);
  return fit;
}

genbase::Result<linalg::Matrix> DistributedCovariance(
    SimCluster* cluster, const std::vector<linalg::Matrix>& x_blocks,
    linalg::KernelQuality quality, ExecContext* ctx) {
  const int p = cluster->nodes();
  const int64_t n = x_blocks[0].cols();
  int64_t m_total = 0;
  for (const auto& b : x_blocks) m_total += b.rows();
  if (m_total < 2) {
    return genbase::Status::InvalidArgument("covariance needs >= 2 samples");
  }

  // Column means: local partial sums, all-reduce of length-n vector.
  std::vector<double> sums(static_cast<size_t>(n), 0.0);
  GENBASE_RETURN_NOT_OK(cluster->Compute([&](int node) -> genbase::Status {
    const auto& b = x_blocks[static_cast<size_t>(node)];
    for (int64_t i = 0; i < b.rows(); ++i) {
      const double* row = b.Row(i);
      for (int64_t j = 0; j < n; ++j) sums[static_cast<size_t>(j)] += row[j];
    }
    return genbase::Status::OK();
  }));
  cluster->AllReduce(n * 8);
  std::vector<double> means(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) {
    means[static_cast<size_t>(j)] = sums[static_cast<size_t>(j)] /
                                    static_cast<double>(m_total);
  }

  // Local centered Gram per node, accumulated into the reduce result.
  MemoryTracker* tracker = ctx != nullptr ? ctx->memory() : nullptr;
  GENBASE_ASSIGN_OR_RETURN(linalg::Matrix total,
                           linalg::Matrix::Create(n, n, tracker));
  GENBASE_ASSIGN_OR_RETURN(linalg::Matrix local,
                           linalg::Matrix::Create(n, n, tracker));
  for (int node = 0; node < p; ++node) {
    genbase::Status st = cluster->Compute([&](int it) -> genbase::Status {
      if (it != node) return genbase::Status::OK();
      const auto& b = x_blocks[static_cast<size_t>(node)];
      if (b.rows() == 0) {
        local.Fill(0.0);
        return genbase::Status::OK();
      }
      GENBASE_ASSIGN_OR_RETURN(
          linalg::Matrix centered,
          linalg::Matrix::Create(b.rows(), n, tracker));
      for (int64_t i = 0; i < b.rows(); ++i) {
        const double* src = b.Row(i);
        double* dst = centered.Row(i);
        for (int64_t j = 0; j < n; ++j) {
          dst[j] = src[j] - means[static_cast<size_t>(j)];
        }
      }
      if (quality == linalg::KernelQuality::kTuned) {
        return linalg::Syrk(linalg::MatrixView(centered), &local,
                            ctx != nullptr ? ctx->pool() : nullptr, ctx);
      }
      return linalg::SyrkNaive(linalg::MatrixView(centered), &local, ctx);
    });
    GENBASE_RETURN_NOT_OK(st);
    for (int64_t i = 0; i < n * n; ++i) total.data()[i] += local.data()[i];
  }
  // The n x n Gram all-reduce: the dominant communication cost of Query 2.
  cluster->AllReduce(n * n * 8);
  const double inv = 1.0 / static_cast<double>(m_total - 1);
  for (int64_t i = 0; i < n * n; ++i) total.data()[i] *= inv;
  return total;
}

genbase::Result<DistributedSvdResult> DistributedTruncatedSvd(
    SimCluster* cluster, const std::vector<linalg::Matrix>& a_blocks,
    int rank, linalg::KernelQuality quality, uint64_t seed,
    ExecContext* ctx) {
  const int64_t n = a_blocks[0].cols();

  // Per-node temp for A_i v.
  int64_t max_rows = 0;
  for (const auto& b : a_blocks) max_rows = std::max(max_rows, b.rows());
  std::vector<double> tmp(static_cast<size_t>(max_rows));
  std::vector<double> partial(static_cast<size_t>(n));

  double op_cpu_seconds = 0.0;
  linalg::LinearOperator op;
  op.n = n;
  op.apply = [&](const double* x, double* y) -> genbase::Status {
    WallTimer op_timer;
    std::fill(y, y + n, 0.0);
    GENBASE_RETURN_NOT_OK(
        cluster->Compute([&](int node) -> genbase::Status {
          const auto& b = a_blocks[static_cast<size_t>(node)];
          if (b.rows() == 0) return genbase::Status::OK();
          linalg::GramApply(linalg::MatrixView(b), quality, x, tmp.data(),
                            partial.data());
          for (int64_t j = 0; j < n; ++j) y[j] += partial[j];
          return genbase::Status::OK();
        }));
    // One length-n all-reduce per operator application.
    cluster->AllReduce(n * 8);
    op_cpu_seconds += op_timer.Seconds();
    if (ctx != nullptr) return ctx->CheckBudgets();
    return genbase::Status::OK();
  };

  linalg::LanczosOptions opt;
  opt.num_eigenpairs = std::min<int64_t>(rank, n);
  opt.seed = seed;
  WallTimer total_timer;
  GENBASE_ASSIGN_OR_RETURN(linalg::LanczosResult lr,
                           linalg::LanczosLargestEigenpairs(op, opt, ctx));
  // The Lanczos recurrence (reorthogonalization etc.) ran on the root;
  // charge its CPU time beyond the distributed operator applications.
  const double driver_seconds =
      std::max(0.0, total_timer.Seconds() - op_cpu_seconds);
  cluster->ChargeCompute(0, driver_seconds);

  DistributedSvdResult out;
  out.iterations = lr.iterations;
  out.singular_values = linalg::SingularValues(lr.eigenvalues);
  return out;
}

}  // namespace genbase::cluster
