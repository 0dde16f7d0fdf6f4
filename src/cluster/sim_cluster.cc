#include "cluster/sim_cluster.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/timer.h"

namespace genbase::cluster {

SimCluster::SimCluster(int nodes, NetworkModel net)
    : clock_(static_cast<size_t>(nodes), 0.0), net_(net) {
  GENBASE_CHECK(nodes >= 1);
}

double SimCluster::MaxClock() const {
  return *std::max_element(clock_.begin(), clock_.end());
}

double SimCluster::elapsed() const { return MaxClock(); }

genbase::Status SimCluster::Compute(
    const std::function<genbase::Status(int)>& fn) {
  // Node steps run one at a time, so each step's wall time measures that
  // node's local work alone.
  for (int node = 0; node < nodes(); ++node) {
    WallTimer timer;
    GENBASE_RETURN_NOT_OK(fn(node));
    clock_[static_cast<size_t>(node)] += timer.Seconds();
  }
  return genbase::Status::OK();
}

void SimCluster::AdvanceAll(double from, double cost) {
  for (auto& c : clock_) c = from + cost;
  comm_elapsed_ += cost;
}

void SimCluster::Barrier() {
  if (nodes() == 1) return;
  const double steps = std::ceil(std::log2(static_cast<double>(nodes())));
  AdvanceAll(MaxClock(), steps * net_.latency_s);
}

void SimCluster::AllReduce(int64_t bytes) {
  if (nodes() == 1) return;
  // Ring all-reduce: 2(P-1) steps of latency + (bytes/P)/bandwidth.
  const double p = static_cast<double>(nodes());
  const double per_step =
      net_.latency_s +
      static_cast<double>(bytes) / p / net_.bandwidth_bytes_per_s;
  AdvanceAll(MaxClock(), 2.0 * (p - 1.0) * per_step);
}

void SimCluster::Gather(int root, int64_t bytes_per_node) {
  if (nodes() == 1) return;
  (void)root;  // Cost symmetric in root identity under BSP accounting.
  // Root serializes (P-1) receives.
  const double cost = static_cast<double>(nodes() - 1) *
                      net_.TransferSeconds(bytes_per_node);
  AdvanceAll(MaxClock(), cost);
}

void SimCluster::Broadcast(int root, int64_t bytes) {
  if (nodes() == 1) return;
  (void)root;
  const double steps = std::ceil(std::log2(static_cast<double>(nodes())));
  AdvanceAll(MaxClock(), steps * net_.TransferSeconds(bytes));
}

void SimCluster::AllToAll(int64_t bytes_per_pair) {
  if (nodes() == 1) return;
  // Each node sends and receives (P-1) blocks; links are full duplex.
  const double cost = static_cast<double>(nodes() - 1) *
                      net_.TransferSeconds(bytes_per_pair);
  AdvanceAll(MaxClock(), cost);
}

}  // namespace genbase::cluster
