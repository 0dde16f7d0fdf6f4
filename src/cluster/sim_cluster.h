#ifndef GENBASE_CLUSTER_SIM_CLUSTER_H_
#define GENBASE_CLUSTER_SIM_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"

namespace genbase::cluster {

/// \brief Interconnect cost model: a GbE-class network by default
/// (SimConfig). Transfers charge latency + bytes/bandwidth.
struct NetworkModel {
  double bandwidth_bytes_per_s = 125e6;
  double latency_s = 200e-6;

  double TransferSeconds(int64_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bandwidth_bytes_per_s;
  }
};

/// \brief Virtual-time cluster simulator (bulk-synchronous accounting).
///
/// Only 2 physical cores exist in this environment, so a real N-node run is
/// impossible; instead every node's local work is executed for real —
/// sequentially, one node at a time, so its wall seconds measure that
/// node's work — and charged to that node's *virtual* clock. Communication
/// steps advance clocks by modeled collective costs (ring all-reduce, tree
/// broadcast, ...). Cluster elapsed time is the maximum node clock: the
/// critical path. This reproduces the paper's multi-node phenomena (e.g.
/// SciDB's 2-node covariance being no faster than 1-node because the
/// all-reduce of the gene x gene Gram matrix eats the compute savings)
/// deterministically.
///
/// Compute and communication are tracked separately so the coprocessor
/// model can accelerate compute while leaving communication untouched
/// (the mechanism behind Table 1's shrinking speedups at higher node
/// counts).
class SimCluster {
 public:
  SimCluster(int nodes, NetworkModel net);

  int nodes() const { return static_cast<int>(clock_.size()); }

  /// Critical-path elapsed virtual seconds.
  double elapsed() const;

  /// Portion of elapsed() spent in collectives (critical path).
  double comm_elapsed() const { return comm_elapsed_; }

  /// Runs fn(node) for every node in turn, adding each node's wall seconds
  /// to its virtual clock. Stops at the first non-OK status.
  genbase::Status Compute(const std::function<genbase::Status(int)>& fn);

  /// Adds externally measured (or modeled) compute seconds to one node.
  void ChargeCompute(int node, double seconds) {
    clock_[static_cast<size_t>(node)] += seconds;
  }

  /// Adds modeled seconds to every node simultaneously (e.g. per-job
  /// startup latency of a MapReduce stage).
  void ChargeAll(double seconds) {
    for (auto& c : clock_) c += seconds;
  }

  /// Synchronizes all clocks to the maximum (tree barrier latency).
  void Barrier();

  /// Ring all-reduce of `bytes` per node.
  void AllReduce(int64_t bytes);

  /// Every non-root node sends `bytes_per_node` to root.
  void Gather(int root, int64_t bytes_per_node);

  /// Root sends `bytes` to every other node (binomial tree).
  void Broadcast(int root, int64_t bytes);

  /// Each ordered pair exchanges `bytes_per_pair`.
  void AllToAll(int64_t bytes_per_pair);

 private:
  double MaxClock() const;
  void AdvanceAll(double from, double cost);

  std::vector<double> clock_;
  NetworkModel net_;
  double comm_elapsed_ = 0.0;
};

}  // namespace genbase::cluster

#endif  // GENBASE_CLUSTER_SIM_CLUSTER_H_
