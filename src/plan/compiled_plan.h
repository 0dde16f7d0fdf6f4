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

/// \brief Compile-time state of one plan: the dataset snapshot it is built
/// against plus the relational access paths (filters, join matches, dense
/// mappings) its folded ops read. Built from the shape params only
/// (ShapeFingerprint) and released when compilation returns; an op that
/// runs at execute captures whatever of it that op still needs.
struct PlanStatics {
  std::shared_ptr<const engine::ColumnarTables> tables;
  /// Microarray rows the compile-time hash join matched (the join index's
  /// right side; its left side is never read).
  std::vector<int64_t> matched_rows;
  relational::DenseMapping row_map;  ///< Patient id -> matrix row.
  relational::DenseMapping col_map;  ///< Gene id -> matrix column / score.
  // lint:allow(plan-arena-alloc): compile-time static (statics reservation).
  std::vector<double> y;
  std::vector<std::vector<int64_t>> memberships;
  core::GeneMetaLookup meta;
  int64_t sample_count = 0;
};

class CompiledPlan;
struct PlanHalf;

/// \brief One op run's frame: binds plan value ids to addresses — in the
/// arena of the frame's half, or at execute in the plan's retained folded
/// values — plus what the half may read: the compile-time statics when
/// folding, the bound params when executing. Tracks the observed arena
/// high-water mark (max touched offset+size), which the obs stack compares
/// against the planner's predicted peak.
class ExecFrame {
 public:
  /// Folding frame: statics, no params.
  ExecFrame(const CompiledPlan* plan, PlanArena* arena,
            const PlanStatics* statics);
  /// Execute frame: params, no statics.
  ExecFrame(const CompiledPlan* plan, PlanArena* arena,
            const core::QueryParams* params);

  /// Writable buffer of a value this frame's half writes (alias chains
  /// share the root's offset). Retained folded values are read-only at
  /// execute: asking for one here is a CHECK failure.
  double* Data(int value_id);

  /// Read-only buffer of a value this frame's ops may read.
  const double* In(int value_id);

  /// Read-only dense view of a 2-D value.
  linalg::MatrixView View(int value_id);

  /// The compile-time statics; only folded ops may read them.
  const PlanStatics& statics() const;

  /// This execution's params. Only ops declared `reads_params` may call
  /// this: a folding frame has no params, records the read, and the
  /// compile fails right after the op, so no request's params can be baked
  /// into a plan shared across params.
  const core::QueryParams& params();

  bool params_read() const { return params_read_; }
  int64_t observed_peak() const { return observed_peak_; }

 private:
  const CompiledPlan* plan_;
  const PlanHalf* half_;
  PlanArena* arena_;
  const PlanStatics* statics_;
  const core::QueryParams* params_;
  bool params_read_ = false;
  int64_t observed_peak_ = 0;
};

/// Kernel work of one op: reads its inputs from the frame, writes its
/// outputs and the QueryResult fields it owns.
using OpFn = std::function<genbase::Status(ExecFrame*, ExecContext*,
                                           core::QueryResult*)>;

/// \brief One half of a compiled plan — the ops folded at compile, or the
/// ops left for execute — as a subgraph with its own deterministic schedule
/// and memory plan.
struct PlanHalf {
  PlanGraph graph;             ///< This half's ops and the values they write.
  std::vector<int> op_ids;     ///< Subgraph op id -> full-graph op id.
  std::vector<int> value_ids;  ///< Subgraph value id -> full-graph value id.
  std::vector<int> schedule;   ///< Subgraph op ids in run order.
  MemoryPlan mem;
};

/// \brief A query compiled to a static plan and partially evaluated against
/// what its key (query, shape params, dataset epoch) fixes. Build runs every
/// folded op once (OpDef's fold rule) and keeps only two things: the folded
/// values an execute op reads (retained, read-only) and the QueryResult
/// fields the folded ops wrote. Everything else — compile statics, the
/// folding arena — is released before Build returns. Execute copies that
/// result and runs only the remaining ops, on an arena sized by the execute
/// half's memory plan; any number of serving threads execute one plan
/// concurrently under any params of its shape, each on a pooled arena.
class CompiledPlan {
 public:
  /// Splits `graph` (with `ops[i]` running op i) into folded and execute
  /// halves, schedules and memory-plans each, runs the folded half against
  /// `statics`, and retains what the execute half reads. Reserves
  /// `retained_static_bytes` on `tracker` for what execute-op closures
  /// captured from the statics. Fails with Internal if a folded op reads
  /// params, and InvalidArgument if an execute op would write in place
  /// over a folded value.
  static genbase::Result<std::shared_ptr<CompiledPlan>> Build(
      core::QueryId query, PlanGraph graph, std::vector<OpFn> ops,
      const PlanStatics& statics, int64_t retained_static_bytes,
      MemoryTracker* tracker, ExecContext* ctx);

  /// Use Build.
  CompiledPlan(core::QueryId query, PlanGraph graph, MemoryTracker* tracker)
      : query_(query), graph_(std::move(graph)), tracker_(tracker) {}

  /// Runs the execute half with `params` bound to the frame, starting from
  /// the folded result. `params` must have the shape the plan was compiled
  /// for (same ShapeFingerprint); its other fields are free. Each op gets a
  /// trace span + phase attribution; success bumps plan_executes_total and
  /// publishes the observed arena peak (with a mismatch counter if it
  /// differs from the predicted peak — property tests keep it at zero).
  genbase::Result<core::QueryResult> Execute(const core::QueryParams& params,
                                             ExecContext* ctx);

  core::QueryId query() const { return query_; }
  /// The full operator DAG, both halves.
  const PlanGraph& graph() const { return graph_; }

  /// Full-graph op ids in run order: folded at compile / run per execute.
  std::vector<int> FoldedOps() const { return RunOrder(folded_); }
  std::vector<int> ExecuteOps() const { return RunOrder(execute_); }

  /// The execute half's memory plan: what each execution allocates.
  const MemoryPlan& memory_plan() const { return execute_.mem; }
  /// The folded half's memory plan: the arena used once, at compile.
  const MemoryPlan& folded_memory_plan() const { return folded_.mem; }

  /// Tracker bytes the plan holds between executions: retained folded
  /// values plus what execute ops captured from the statics.
  int64_t retained_bytes() const { return retained_bytes_; }

  int64_t compile_ns() const { return compile_ns_; }
  void set_compile_ns(int64_t ns) { compile_ns_ = ns; }

  /// Observed folding-arena high-water mark (== folded_memory_plan()
  /// .arena_bytes; tested).
  int64_t folded_observed_peak_bytes() const { return folded_peak_bytes_; }

  /// Max observed execute-arena high-water mark across all executions so
  /// far (== memory_plan().arena_bytes once any execution completed).
  int64_t observed_peak_bytes() const {
    return observed_peak_bytes_.load(std::memory_order_relaxed);
  }

  /// The allocation-plan dump (planner decisions, one line per buffer) of
  /// both halves.
  std::string DumpAllocationPlan() const;

 private:
  friend class ExecFrame;

  /// Where a full-graph value lives: which half writes it, its id there.
  struct ValueHome {
    bool folded = false;
    int sub_id = -1;
  };

  static std::vector<int> RunOrder(const PlanHalf& half);

  genbase::Status RunFolded(const std::vector<OpFn>& ops,
                            const std::vector<bool>& retained,
                            const PlanStatics& statics, ExecContext* ctx);

  genbase::Result<std::unique_ptr<PlanArena>> AcquireArena();
  void ReleaseArena(std::unique_ptr<PlanArena> arena);

  core::QueryId query_;
  PlanGraph graph_;
  PlanHalf folded_;
  PlanHalf execute_;
  std::vector<ValueHome> homes_;  ///< Indexed by full-graph value id.
  /// Retained folded values, one read-only arena each; indexed by
  /// full-graph value id, null for values execute never reads.
  std::vector<std::unique_ptr<PlanArena>> retained_;
  ScopedReservation retained_static_reservation_;
  core::QueryResult folded_result_;
  std::vector<OpFn> execute_fns_;  ///< In execute schedule order.
  MemoryTracker* tracker_;
  int64_t retained_bytes_ = 0;
  int64_t compile_ns_ = 0;
  int64_t folded_peak_bytes_ = 0;

  std::mutex arena_mu_;
  std::vector<std::unique_ptr<PlanArena>> arena_pool_;
  std::atomic<int64_t> observed_peak_bytes_{0};
};

}  // namespace genbase::plan

#endif  // GENBASE_PLAN_COMPILED_PLAN_H_
