#ifndef GENBASE_LINALG_LANCZOS_H_
#define GENBASE_LINALG_LANCZOS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/exec_context.h"
#include "common/memory_tracker.h"
#include "common/status.h"

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
};

struct LanczosResult {
  std::vector<double> eigenvalues;  ///< Descending, length <= k.
  int iterations = 0;
  bool converged = false;
};

/// \brief Everything the Lanczos recurrence reads to take its next step:
/// the state after m steps, with m = iterations().
struct LanczosState {
  std::vector<double> basis;  ///< v_0 .. v_{m-1}, m rows of n, row-major.
  std::vector<double> alpha;  ///< The m diagonal entries of T_m.
  std::vector<double> beta;   ///< Its m-1 off-diagonal entries.
  std::vector<double> w;      ///< The residual after step m (length n).
  double w_norm = 0.0;        ///< ||w||: the residual bound's beta_m.

  int iterations() const { return static_cast<int>(alpha.size()); }
  /// Heap bytes the state holds (vector capacities).
  int64_t bytes() const;
};

/// \brief Lanczos iteration with full reorthogonalization for the largest
/// eigenvalues of a symmetric positive semidefinite operator (no Ritz
/// vectors: every Q4 answer is values only).
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
genbase::Result<LanczosResult> LanczosLargestEigenpairs(
    const LinearOperator& op, const LanczosOptions& options,
    ExecContext* ctx = nullptr);

/// \brief One Lanczos run recorded for every k at once. The recurrence never
/// reads k; only the stopping rule does, through how many of T_m's top Ritz
/// pairs meet the tolerance. So the record keeps the recurrence so far and
/// that count for each m it reached, and answers any k as
/// LanczosLargestEigenpairs(op, options) would, bit for bit: values,
/// iterations and converged.
///
/// Thread-safe. The record is published as immutable snapshots. A run scans
/// the current one with the stopping rule and solves T_m once, at its stop.
/// Only when that stop lies past the snapshot does it continue a copy of
/// the recurrence, and then it publishes the longer record, which replaces
/// the current one under a mutex unless a longer one got there first. Every
/// run must pass the same operator, tolerance and seed.
class LanczosRecord {
 public:
  /// One published length of the record.
  struct Snapshot {
    LanczosState state;  ///< The recurrence after M steps.
    /// converged_pairs[m - 1], m = 1..M: the largest c such that T_m's top
    /// c Ritz pairs all meet the tolerance.
    std::vector<int> converged_pairs;

    int64_t bytes() const;
  };

  /// Each published growth is charged to `account` (null: not charged). A
  /// run that seeds the record (finds it empty) fails with the account's
  /// error when it cannot reserve the seed. A later growth the account
  /// cannot reserve is not published; the run still answers from its own
  /// copy.
  explicit LanczosRecord(GrowingReservation* account = nullptr)
      : account_(account) {}

  /// The run for options.num_eigenpairs.
  genbase::Result<LanczosResult> Run(const LinearOperator& op,
                                     const LanczosOptions& options,
                                     ExecContext* ctx = nullptr);

  std::shared_ptr<const Snapshot> snapshot() const;
  /// Heap bytes of the current snapshot.
  int64_t bytes() const { return snapshot()->bytes(); }

 private:
  /// Replaces the snapshot with `next` if `next` is longer and its growth
  /// could be charged, else returns the account's error; the replaced one
  /// is freed outside the lock.
  genbase::Status Publish(std::shared_ptr<Snapshot> next);

  GrowingReservation* account_;
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> snapshot_ = std::make_shared<Snapshot>();
};

}  // namespace genbase::linalg

#endif  // GENBASE_LINALG_LANCZOS_H_
