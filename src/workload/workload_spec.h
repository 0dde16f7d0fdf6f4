#ifndef GENBASE_WORKLOAD_WORKLOAD_SPEC_H_
#define GENBASE_WORKLOAD_WORKLOAD_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/datasets.h"
#include "core/queries.h"

namespace genbase::workload {

/// \brief How clients issue operations.
///  * kClosedLoop: each client issues the next operation as soon as the
///    previous one finishes — the classic "N concurrent users" model.
///  * kOpenLoopPoisson: operations arrive on a Poisson process at
///    `arrival_rate_qps` (aggregate), independent of completion times —
///    models internet-facing traffic where users do not wait for each other.
///  * kOpenLoopUniform: deterministic arrivals at fixed 1/rate spacing.
enum class ClientModel { kClosedLoop, kOpenLoopPoisson, kOpenLoopUniform };

const char* ClientModelName(ClientModel model);

/// \brief One entry of a query mix: a benchmark query and its relative
/// weight (any positive number; weights are normalized over the mix).
struct QueryMixEntry {
  core::QueryId query = core::QueryId::kRegression;
  double weight = 1.0;
};

/// \brief Full description of a concurrent benchmark workload: what to run
/// (query mix + params + dataset size), how to run it (client model, client
/// count, arrival rate), and how much of it (warm-up and measured operation
/// budgets). Every op's time budget is the run's INF cutoff,
/// core::SimConfig's timeout_seconds (GENBASE_TIMEOUT).
///
/// Everything that shapes the *operation sequence* is derived from `seed`
/// through common/rng, so two runs of the same spec execute the identical
/// sequence of (query, arrival-offset) operations — only measured latencies
/// differ. Durations are specified as operation budgets rather than wall
/// seconds for exactly this reason.
struct WorkloadSpec {
  std::string name = "mixed";

  /// Relative per-query weights. Empty = uniform over Q1..Q5.
  std::vector<QueryMixEntry> mix;
  core::QueryParams params;
  core::DatasetSize size = core::DatasetSize::kSmall;

  ClientModel model = ClientModel::kClosedLoop;
  int clients = 4;
  /// Open loop: aggregate target arrival rate (operations per second).
  double arrival_rate_qps = 50.0;

  /// Operations executed before measurement starts (results discarded).
  int warmup_ops = 0;
  /// Measured operations. The run executes exactly this many.
  int measured_ops = 100;

  /// Number of distinct parameter variants ops draw from (>= 1). Variant 0
  /// is `params` itself; variant v > 0 is VariantParams(params, v). With V
  /// variants over Q queries a mix has ~Q*V distinct (query, params) keys,
  /// which is the knob serving-cache sweeps turn to target a hit ratio.
  int param_variants = 1;

  uint64_t seed = 42;

  /// Appended to the name obs::RequestTraceId hashes into each request's
  /// trace id, and read nowhere else: runs of one schedule that must not
  /// share trace ids, such as a figure's cells, each set their own.
  std::string trace_scope;

  /// Verify every completed operation against core/reference ground truth.
  bool verify = true;

  genbase::Status Validate() const;

  /// The mix with weights normalized to sum 1. An empty mix — or one whose
  /// weights are all zero (rejected by Validate, but reachable through the
  /// pure-function API) — falls back to uniform over Q1..Q5.
  std::vector<QueryMixEntry> NormalizedMix() const;
};

/// \brief One scheduled operation of a workload run.
struct ScheduledOp {
  core::QueryId query = core::QueryId::kRegression;
  /// Parameter variant index in [0, spec.param_variants).
  int variant = 0;
  /// Open-loop models: seconds after the measured phase starts at which
  /// this operation becomes eligible to issue. Zero under closed loop.
  double arrival_offset_s = 0.0;
};

/// \brief Deterministic mild perturbation of the benchmark parameters for
/// variant `v` (v == 0 returns `base` unchanged). Perturbed fields stay
/// inside ranges that are valid at every dataset scale the tests and
/// benches use, so any (query, variant) pair has a computable reference
/// result. Distinct variants produce distinct params fingerprints, which is
/// what makes them distinct serving-cache keys.
core::QueryParams VariantParams(const core::QueryParams& base, int variant);

/// \brief Deterministically expands a spec into its full operation sequence
/// (warm-up followed by measured ops). Draws query ids from the normalized
/// mix and arrival offsets from the client model, all from rng streams
/// derived from (spec.name, spec.seed) — the schedule is a pure function of
/// the spec.
std::vector<ScheduledOp> BuildSchedule(const WorkloadSpec& spec);

}  // namespace genbase::workload

#endif  // GENBASE_WORKLOAD_WORKLOAD_SPEC_H_
