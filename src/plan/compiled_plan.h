#ifndef GENBASE_PLAN_COMPILED_PLAN_H_
#define GENBASE_PLAN_COMPILED_PLAN_H_

#include <array>
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
  int64_t sample_count = 0;
};

class CompiledPlan;

/// \brief One op run's frame: binds plan value ids to their slots in the
/// plan's region arenas, plus what the run may read: the compile-time
/// statics when folding, the bound params when executing. A folding frame
/// writes the retained and scratch regions; an execute frame writes only
/// its execute arena and reads the retained region.
class ExecFrame {
 public:
  /// Folding frame: statics, no params; the retained region is the plan's.
  ExecFrame(const CompiledPlan* plan, PlanArena* scratch,
            const PlanStatics* statics);
  /// Execute frame: params, no statics.
  ExecFrame(const CompiledPlan* plan, PlanArena* execute,
            const core::QueryParams* params);

  /// Writable buffer of a value in a region this frame writes. Retained
  /// values are read-only at execute: asking for one here is a CHECK
  /// failure.
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

 private:
  double* Address(int value_id) const;

  const CompiledPlan* plan_;
  bool folding_;
  /// Region base addresses, null for a region this frame cannot see.
  std::array<unsigned char*, kNumRegions> base_{};
  const PlanStatics* statics_;
  const core::QueryParams* params_;
  bool params_read_ = false;
};

/// Kernel work of one op: reads its inputs from the frame, writes its
/// outputs and the QueryResult fields it owns.
using OpFn = std::function<genbase::Status(ExecFrame*, ExecContext*,
                                           core::QueryResult*)>;

/// \brief A query compiled to a static plan and partially evaluated against
/// what its key (query, shape params, dataset epoch) fixes. Build runs every
/// folded op once (OpDef's fold rule), in op order, and keeps only two
/// things: the retained region (the folded values an execute op reads,
/// written in place by the folded ops, read-only afterwards) and the
/// QueryResult fields the folded ops wrote. Everything else — compile
/// statics, the scratch region — is released before Build returns. Execute
/// copies that result and runs only the remaining ops, in op order, on an
/// execute-region arena; any number of serving threads execute one plan
/// concurrently under any params of its shape, each on a pooled arena.
class CompiledPlan {
 public:
  /// Splits `graph`'s ops (with `ops[i]` running op i) into folded and
  /// execute ops, lays out their values, runs the folded ops against
  /// `statics`, and keeps the retained region. Reserves
  /// `retained_static_bytes` on `tracker` for what execute-op closures
  /// captured from the statics. Fails with Internal if a folded op reads
  /// params or overwrites a guard word.
  static genbase::Result<std::shared_ptr<CompiledPlan>> Build(
      core::QueryId query, PlanGraph graph, std::vector<OpFn> ops,
      const PlanStatics& statics, int64_t retained_static_bytes,
      MemoryTracker* tracker, ExecContext* ctx);

  /// Use Build.
  CompiledPlan(core::QueryId query, PlanGraph graph, MemoryTracker* tracker)
      : query_(query), graph_(std::move(graph)), tracker_(tracker) {}

  /// Runs the execute ops with `params` bound to the frame, starting from
  /// the folded result. `params` must have the shape the plan was compiled
  /// for (same ShapeFingerprint); its other fields are free. Each op gets a
  /// trace span + phase attribution; success bumps plan_executes_total. An
  /// op that overwrote a guard word fails the run with Internal, bumps
  /// plan_peak_mismatch_total and drops its arena instead of pooling it.
  genbase::Result<core::QueryResult> Execute(const core::QueryParams& params,
                                             ExecContext* ctx);

  core::QueryId query() const { return query_; }
  const PlanGraph& graph() const { return graph_; }

  /// Op ids in run order: folded at compile / run per execute.
  const std::vector<int>& FoldedOps() const { return folded_ops_; }
  const std::vector<int>& ExecuteOps() const { return execute_ops_; }

  /// Every value's region and slot.
  const MemoryLayout& layout() const { return layout_; }

  /// Tracker bytes the plan holds between executions: the retained region
  /// plus what execute ops captured from the statics.
  int64_t retained_bytes() const { return retained_bytes_; }

  int64_t compile_ns() const { return compile_ns_; }
  void set_compile_ns(int64_t ns) { compile_ns_ = ns; }

  /// The layout dump: one line per value.
  std::string DumpAllocationPlan() const { return layout_.Dump(graph_); }

 private:
  friend class ExecFrame;

  genbase::Status RunFolded(const std::vector<OpFn>& ops,
                            const PlanStatics& statics, ExecContext* ctx);

  /// A guarded arena for `region`, or none when the region is empty.
  genbase::Result<std::unique_ptr<PlanArena>> NewArena(Region region) const;

  /// Internal, naming the value, if a run overwrote a guard in `region`.
  genbase::Status CheckGuards(Region region, const PlanArena* arena) const;

  genbase::Result<std::unique_ptr<PlanArena>> AcquireArena();
  void ReleaseArena(std::unique_ptr<PlanArena> arena);

  core::QueryId query_;
  PlanGraph graph_;
  std::vector<int> folded_ops_;
  std::vector<int> execute_ops_;
  MemoryLayout layout_;
  std::unique_ptr<PlanArena> retained_;  ///< Null when nothing is retained.
  ScopedReservation retained_static_reservation_;
  core::QueryResult folded_result_;
  std::vector<OpFn> execute_fns_;  ///< Parallel to execute_ops_.
  MemoryTracker* tracker_;
  int64_t retained_bytes_ = 0;
  int64_t compile_ns_ = 0;

  std::mutex arena_mu_;
  std::vector<std::unique_ptr<PlanArena>> arena_pool_;
};

}  // namespace genbase::plan

#endif  // GENBASE_PLAN_COMPILED_PLAN_H_
