#ifndef GENBASE_BICLUSTER_CHENG_CHURCH_H_
#define GENBASE_BICLUSTER_CHENG_CHURCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/exec_context.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace genbase::bicluster {

/// \brief A bicluster: a subset of rows and columns whose submatrix has low
/// mean squared residue (rows and columns move together).
struct Bicluster {
  std::vector<int64_t> rows;
  std::vector<int64_t> cols;
  double mean_squared_residue = 0.0;
};

/// \brief Which residue engine drives the deletion/addition phases.
///
/// kIncremental maintains row/col sums, sums of squares and the squared-
/// residue accumulator under single-node deletion/addition: per-iteration
/// stat updates cost O(|I|+|J|), the mean squared residue H comes from the
/// two-way ANOVA identity SSQ = Q - sum(S_r^2)/|J| - sum(S_c^2)/|I| +
/// T^2/(|I||J|) in O(|I|+|J|), and the per-row/per-column residues reduce
/// to two Gemv calls (2 FLOPs per cell) against a packed working submatrix
/// instead of four scalar residue passes.
///
/// kReference is the original from-scratch implementation (recomputes
/// SubmatrixStats + Msr + RowResidues + ColResidues every iteration). Kept
/// as the cross-check oracle and the baseline kernelbench measures against.
enum class ChengChurchImpl { kIncremental, kReference };

/// \brief Work accounting for the residue engines, so the FLOP reduction is
/// a measured number, not a claim. Counted analytically at each pass from
/// the touched cell count.
struct ChengChurchCounters {
  int64_t residue_flops = 0;  ///< FLOPs spent on stats/residue computation.
  int64_t iterations = 0;     ///< Deletion rounds + addition phases run.
};

struct ChengChurchOptions {
  double delta = 0.1;          ///< Max acceptable mean squared residue.
  double alpha = 1.2;          ///< Multiple-deletion aggressiveness.
  int max_biclusters = 4;      ///< Successive biclusters to extract.
  int64_t min_rows = 2;
  int64_t min_cols = 2;
  uint64_t mask_seed = 7;      ///< Seed for masking found cells.

  ChengChurchImpl impl = ChengChurchImpl::kIncremental;

  /// Debug cross-check: after every incremental iteration, recompute stats
  /// and residues from scratch via the reference helpers and fail loudly on
  /// divergence beyond FP noise. O(|I|*|J|) per iteration — tests only.
  bool cross_check = false;

  /// Optional work accounting (see ChengChurchCounters). Not owned.
  ChengChurchCounters* counters = nullptr;

  /// Invoked once per algorithm pass (each deletion round / addition phase).
  /// Engines that run the algorithm through a per-call interface (the column
  /// store's R UDFs) use this to charge their per-invocation overhead; a
  /// non-OK status aborts the run.
  std::function<genbase::Status()> pass_hook;
};

/// \brief Mean squared residue H(I, J) of a submatrix selection: the
/// Cheng & Church (ISMB 2000) homogeneity score,
///   H = mean_(i,j) (a_ij - a_iJ - a_Ij + a_IJ)^2.
double MeanSquaredResidue(const linalg::MatrixView& m,
                          const std::vector<int64_t>& rows,
                          const std::vector<int64_t>& cols);

/// H of the whole matrix: the overload above over every row and column.
double MeanSquaredResidue(const linalg::MatrixView& m);

/// The incremental engine's state for one extraction (cheng_church.cc).
class IncrementalCluster;

/// \brief What ChengChurch computes on one matrix before it reads delta,
/// max_biclusters or mask_seed (see ChengChurchPrefix).
struct ChengChurchState {
  double full_msr = 0.0;  ///< H of the whole input.
  double lo = 0.0;        ///< The input's minimum and maximum: the range
  double hi = 0.0;        ///< the masking noise is drawn from.
  /// The first extraction after multiple node deletion ran to its end,
  /// holding only its live block; null when the deletion removed nothing
  /// (a run then repeats its one round) or the input is smaller than the
  /// minimum bicluster.
  std::shared_ptr<const IncrementalCluster> first;
  double min_h = 0.0;  ///< The smallest H that deletion tested.

  /// Heap bytes `first` holds.
  int64_t bytes() const;
};

/// \brief The part of ChengChurch(data, options) that reads neither delta,
/// max_biclusters nor mask_seed: the input's H and range, and the first
/// extraction's multiple node deletion run until a round deletes nothing.
/// That deletion removes nodes by alpha * H alone and delta can only stop
/// it early, so a run whose delta is below min_h reaches `first` exactly.
/// Reads options' alpha, min_rows and min_cols, and no hook or counters.
genbase::Result<ChengChurchState> ChengChurchPrefix(
    const linalg::MatrixView& data, const ChengChurchOptions& options,
    ExecContext* ctx = nullptr);

/// \brief Cheng & Church biclustering: multiple node deletion, single node
/// deletion, then node addition; successive biclusters are found after
/// masking previous ones with random noise. This is GenBase Query 3's
/// analytics step ("biclustering allows the simultaneous clustering of rows
/// and columns of a matrix into sub-matrices with similar patterns").
///
/// The input matrix is copied internally (masking mutates it). Results are
/// deterministic for a given (input, options) pair. The two impls may pick
/// different nodes when residues tie exactly, and may keep different
/// survivors when the min_rows/min_cols floor truncates a multiple-deletion
/// round (the incremental engine scans rows/cols in packed order, the
/// reference in original order); both always honor delta/alpha and the
/// floors.
///
/// With `prefix` (ChengChurchPrefix of the same data, alpha, min_rows and
/// min_cols), the run takes the masking range from it, and when delta <
/// prefix->min_h its first extraction continues a copy of prefix->first
/// (if any) instead of starting over, with the same answer bit for bit. A
/// run with a pass_hook, counters, cross_check or the reference impl
/// ignores the prefix: those see every pass.
genbase::Result<std::vector<Bicluster>> ChengChurch(
    const linalg::MatrixView& data, const ChengChurchOptions& options,
    ExecContext* ctx = nullptr, const ChengChurchState* prefix = nullptr);

/// \brief ChengChurch runs on one matrix recorded for every delta at once.
/// A run reads delta only through its stop tests `H <= delta` and the
/// prefix guard `delta < min_h`, so its answer is constant on each
/// half-open piece [lo, hi) of deltas that take every one of its tests the
/// same way. Each test narrows the run's piece as it is made; the record
/// keeps each run's piece with its biclusters, and answers a delta inside
/// a piece of its count from it, as ChengChurch(data, options, ctx,
/// &prefix()) would, bit for bit. Pieces of one count never overlap: any
/// delta inside a run's piece repeats that run.
///
/// Thread-safe once seeded. A miss runs ChengChurch continuing the prefix
/// and publishes its piece under a mutex, unless an equal one got there
/// first. Every run must pass the seeded data and the same options apart
/// from delta and max_biclusters. A NaN or infinite delta, and a run with
/// a pass_hook, counters, cross_check or the reference impl, runs
/// ChengChurch and publishes nothing.
class ChengChurchRecord {
 public:
  /// One recorded run: every delta in [lo, hi) at this count answers
  /// `biclusters`.
  struct Piece {
    double lo = 0.0;
    double hi = 0.0;
    int max_biclusters = 0;
    std::vector<Bicluster> biclusters;

    /// Heap bytes the piece holds.
    int64_t bytes() const;
  };

  /// The prefix and each published piece are charged to `account` (null:
  /// not charged). A piece the account refuses is not published; the run
  /// still answers.
  explicit ChengChurchRecord(GrowingReservation* account = nullptr)
      : account_(account) {}

  /// Seeds the record with ChengChurchPrefix of the data every run passes.
  /// Fails with the account's error when it cannot reserve the prefix.
  /// Call once, before any Run.
  genbase::Status Seed(ChengChurchState prefix);

  /// ChengChurch(data, options, ctx, &prefix()).
  genbase::Result<std::vector<Bicluster>> Run(const linalg::MatrixView& data,
                                              const ChengChurchOptions& options,
                                              ExecContext* ctx = nullptr);

  const ChengChurchState& prefix() const { return prefix_; }
  /// The published pieces, in publish order.
  std::vector<Piece> pieces() const;

 private:
  /// Adds `piece` unless an equal one is published or the account refuses
  /// its bytes.
  void Publish(Piece piece);

  GrowingReservation* account_;
  ChengChurchState prefix_;
  mutable std::mutex mu_;
  std::vector<Piece> pieces_;  ///< Guarded by mu_.
};

}  // namespace genbase::bicluster

#endif  // GENBASE_BICLUSTER_CHENG_CHURCH_H_
