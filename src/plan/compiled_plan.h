#ifndef GENBASE_PLAN_COMPILED_PLAN_H_
#define GENBASE_PLAN_COMPILED_PLAN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "core/queries.h"
#include "engine/engine_util.h"
#include "linalg/matrix.h"
#include "plan/arena.h"
#include "plan/memory_planner.h"
#include "plan/plan_graph.h"
#include "relational/restructure.h"

namespace genbase::plan {

/// \brief Everything resolved once at compile time and shared (read-only)
/// by every execution of the plan: the dataset snapshot the plan was built
/// against plus the relational access paths (filters, join matches, dense
/// mappings). Built from the shape params only (ShapeFingerprint); per-run
/// state lives in the arena or in ExecFrame::params(), never here.
struct PlanStatics {
  std::shared_ptr<const engine::ColumnarTables> tables;
  /// Microarray rows the compile-time hash join matched (the join index's
  /// right side; its left side is never read at execute).
  std::vector<int64_t> matched_rows;
  relational::DenseMapping row_map;
  relational::DenseMapping col_map;
  std::vector<int64_t> row_ids;
  std::vector<int64_t> col_ids;
  // lint:allow(plan-arena-alloc): compile-time static (statics reservation).
  std::vector<double> y;
  std::vector<std::vector<int64_t>> memberships;
  core::GeneMetaLookup meta;
  int64_t sample_count = 0;
};

class CompiledPlan;

/// \brief Per-execution frame: binds plan value ids to addresses inside one
/// arena and this execution's params, and tracks the observed high-water
/// mark (max touched offset+size), which the obs stack compares against the
/// planner's predicted peak.
class ExecFrame {
 public:
  ExecFrame(PlanArena* arena, const CompiledPlan* plan,
            const core::QueryParams* params)
      : arena_(arena), plan_(plan), params_(params) {}

  /// Address of value `id`'s buffer (alias chains share the root's offset).
  double* Data(int value_id);

  /// Read-only dense view of a 2-D value.
  linalg::MatrixView View(int value_id);

  /// The compile-time statics shared by every execution of this plan.
  const PlanStatics& statics() const;

  /// This execution's params. Ops read only the fields bound at execute;
  /// the shape fields were fixed when the plan was compiled.
  const core::QueryParams& params() const { return *params_; }

  int64_t observed_peak() const { return observed_peak_; }

 private:
  PlanArena* arena_;
  const CompiledPlan* plan_;
  const core::QueryParams* params_;
  int64_t observed_peak_ = 0;
};

/// \brief One schedulable operator closure. `run` does only kernel work on
/// arena buffers — compile time already did the planning, binding and
/// allocation.
struct CompiledOp {
  OpKind kind = OpKind::kScan;
  std::string name;
  std::function<genbase::Status(ExecFrame*, ExecContext*,
                                core::QueryResult*)>
      run;
};

/// \brief A query compiled to a static plan: operator DAG, deterministic
/// schedule, memory plan, and the closures that execute each op against the
/// arena. Compiled once per (query, shape params, dataset epoch), then
/// executed concurrently by any number of serving threads under any params
/// of that shape — executions grab an arena from a small pool so they never
/// contend on buffer memory.
class CompiledPlan {
 public:
  CompiledPlan(core::QueryId query, PlanGraph graph,
               std::vector<int> schedule, MemoryPlan mem,
               PlanStatics statics, ScopedReservation statics_reservation,
               std::vector<CompiledOp> ops, MemoryTracker* tracker)
      : query_(query),
        graph_(std::move(graph)),
        schedule_(std::move(schedule)),
        mem_(std::move(mem)),
        statics_(std::move(statics)),
        statics_reservation_(std::move(statics_reservation)),
        ops_(std::move(ops)),
        tracker_(tracker) {}

  /// Runs the schedule with `params` bound to the frame. `params` must have
  /// the shape the plan was compiled for (same ShapeFingerprint); its other
  /// fields are free. Each op gets a trace span + phase attribution;
  /// success bumps plan_executes_total and publishes the observed arena
  /// peak (with a mismatch counter if it differs from the predicted peak —
  /// property tests keep that counter at zero).
  genbase::Result<core::QueryResult> Execute(const core::QueryParams& params,
                                             ExecContext* ctx);

  core::QueryId query() const { return query_; }
  const PlanGraph& graph() const { return graph_; }
  const std::vector<int>& schedule() const { return schedule_; }
  const MemoryPlan& memory_plan() const { return mem_; }
  const PlanStatics& statics() const { return statics_; }

  int64_t compile_ns() const { return compile_ns_; }
  void set_compile_ns(int64_t ns) { compile_ns_ = ns; }

  /// Max observed arena high-water mark across all executions so far
  /// (== memory_plan().arena_bytes once any execution completed; tested).
  int64_t observed_peak_bytes() const {
    return observed_peak_bytes_.load(std::memory_order_relaxed);
  }

  /// The allocation-plan dump (planner decisions, one line per buffer).
  std::string DumpAllocationPlan() const { return mem_.Dump(graph_); }

 private:
  friend class ExecFrame;

  genbase::Result<std::unique_ptr<PlanArena>> AcquireArena();
  void ReleaseArena(std::unique_ptr<PlanArena> arena);

  core::QueryId query_;
  PlanGraph graph_;
  std::vector<int> schedule_;
  MemoryPlan mem_;
  PlanStatics statics_;
  ScopedReservation statics_reservation_;
  std::vector<CompiledOp> ops_;  ///< In schedule order.
  MemoryTracker* tracker_;
  int64_t compile_ns_ = 0;

  std::mutex arena_mu_;
  std::vector<std::unique_ptr<PlanArena>> arena_pool_;
  std::atomic<int64_t> observed_peak_bytes_{0};
};

}  // namespace genbase::plan

#endif  // GENBASE_PLAN_COMPILED_PLAN_H_
