#ifndef GENBASE_WORKLOAD_RUNNER_H_
#define GENBASE_WORKLOAD_RUNNER_H_

#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/datasets.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "serving/serving_stack.h"
#include "workload/report.h"
#include "workload/workload_spec.h"

namespace genbase::workload {

/// \brief Drives a concurrent mixed-query workload against one engine or a
/// serving stack.
///
/// The runner expands the spec into its deterministic operation schedule
/// (see BuildSchedule), then fans `spec.clients` client threads out over a
/// dedicated common/thread_pool. Clients claim operations from the shared
/// schedule through an atomic cursor and execute them either directly
/// through core::RunCellWithContext — the same timed, timeout/INF-enforcing
/// path the single-cell figures use — or through serving::ServingStack
/// (result cache, admission control, shard routing), each with its own
/// reusable ExecContext. Engines are driven as one shared session: they only
/// read loaded state during RunQuery and their trackers are atomic, so a
/// single loaded engine serves all clients, exactly like a database server
/// under concurrent sessions.
///
/// Determinism: operation count, query mix and parameter variants of a run
/// are a pure function of the spec (schedule is pre-built; every scheduled
/// op executes — or is shed — exactly once). Latencies, throughput and shed
/// decisions are measured and vary run to run.
///
/// Latency accounting is coordinated-omission aware: under the open-loop
/// models, a served op's latency runs from its *scheduled arrival* (the
/// instant a real client would have issued it), not from whenever a
/// dispatch thread got to it, and the queueing share (dispatch lag plus
/// admission wait) is recorded in its own histogram.
///
/// When `spec.verify` is set, the ground truth for every (query, variant)
/// pair in the measured schedule is computed once through core/reference and
/// every served operation's result — cached or executed — is compared
/// against it (core/verify tolerances); mismatches are tallied as
/// verify_failures. With `spec.verify` off, no result is compared.
class WorkloadRunner {
 public:
  /// Ground truth is keyed by (query, param-variant index).
  using TruthKey = std::pair<core::QueryId, int>;
  using TruthTable = std::map<TruthKey, core::QueryResult>;

  explicit WorkloadRunner(WorkloadSpec spec);

  const WorkloadSpec& spec() const { return spec_; }

  /// Keeps ground truth in `table` (non-owning; must outlive every Run)
  /// instead of the runner's own. Run adds the measured schedule's missing
  /// (query, variant) truths to it before any client thread starts and only
  /// reads it after, so runners that run one after another share one table
  /// and compute each truth once. A truth depends on (query, data, params):
  /// share a table only among runners over one dataset with one
  /// `spec.params`.
  void set_truths(TruthTable* table) { shared_truths_ = table; }

  /// Invoked immediately before the measured phase starts issuing ops
  /// (after warm-up and after the measured-phase counter window opens).
  /// Reload-while-serving benches use it to launch dataset churn that is
  /// guaranteed to land inside the measured window — and inside the
  /// measured counter delta — rather than racing the warm-up.
  void set_on_measure_start(std::function<void()> hook) {
    on_measure_start_ = std::move(hook);
  }

  /// Loads `data` into `engine`, runs the warm-up and measured phases
  /// directly against the engine, and returns the aggregated report. Returns
  /// a non-OK status only for spec/load/reference failures; per-operation
  /// failures are reported in the WorkloadReport counters.
  genbase::Result<WorkloadReport> Run(core::Engine* engine,
                                      const core::GenBaseData& data);

  /// Runs the workload through a serving stack (whose shards were loaded at
  /// ServingStack::Create). `data` is used only to compute missing reference
  /// truths. The report additionally carries the measured-phase
  /// cache/admission/shard counters and shed tallies.
  genbase::Result<WorkloadReport> Run(serving::ServingStack* stack,
                                      const core::GenBaseData& data);

 private:
  /// Runs one op. The returned ServeResult carries its queue, cache,
  /// flight, dispatch and execute stages; the runner adds the dispatch-lag
  /// share of queue and the verify stage, so stages.Sum() == Queued() +
  /// cell.total_s + verify.
  using Executor = std::function<serving::ServeResult(
      const ScheduledOp& op, const core::DriverOptions& options,
      std::optional<std::chrono::steady_clock::time_point> scheduled_arrival,
      ExecContext* ctx)>;

  /// The table set by set_truths, else the runner's own.
  TruthTable& truths() {
    return shared_truths_ != nullptr ? *shared_truths_ : own_truths_;
  }

  genbase::Status EnsureTruths(const core::GenBaseData& data,
                               const std::vector<ScheduledOp>& schedule);

  /// The shared client/phase machinery behind both Run overloads.
  genbase::Result<WorkloadReport> RunScheduled(
      const std::string& engine_name, int shards,
      serving::ServingStack* stack, const std::vector<ScheduledOp>& schedule,
      const Executor& exec);

  WorkloadSpec spec_;
  TruthTable own_truths_;
  TruthTable* shared_truths_ = nullptr;
  std::function<void()> on_measure_start_;
};

}  // namespace genbase::workload

#endif  // GENBASE_WORKLOAD_RUNNER_H_
