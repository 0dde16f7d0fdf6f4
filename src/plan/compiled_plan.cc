#include "plan/compiled_plan.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"
#include "plan/plan_stats.h"
#include "plan/scheduler.h"

namespace genbase::plan {

namespace {

/// Schedules and memory-plans the subgraph of `op_ids`; `live_out` marks
/// the full-graph values read after the half ends.
genbase::Result<PlanHalf> MakeHalf(const PlanGraph& graph,
                                   const std::vector<int>& op_ids,
                                   const std::vector<bool>& live_out) {
  PlanHalf half;
  half.op_ids = op_ids;
  half.graph = graph.Subgraph(op_ids, &half.value_ids);
  GENBASE_ASSIGN_OR_RETURN(half.schedule, TopologicalSchedule(half.graph));
  std::vector<int> sub_live_out;
  for (size_t s = 0; s < half.value_ids.size(); ++s) {
    if (live_out[static_cast<size_t>(half.value_ids[s])]) {
      sub_live_out.push_back(static_cast<int>(s));
    }
  }
  GENBASE_ASSIGN_OR_RETURN(
      half.mem,
      PlanMemory(half.graph, half.schedule, /*alignment=*/64, sub_live_out));
  return half;
}

/// Runs one op under its trace span and phase.
genbase::Status RunOp(const OpDef& def, const OpFn& fn, ExecFrame* frame,
                      ExecContext* ctx, core::QueryResult* result) {
  obs::ScopedSpan span(OpSpanName(def.kind));
  span.SetDetail(def.name);
  ScopedPhase phase(ctx, OpPhase(def.kind));
  return fn(frame, ctx, result);
}

/// An arena for `mem`, or none when the plan places no bytes.
genbase::Result<std::unique_ptr<PlanArena>> MaybeArena(const MemoryPlan& mem,
                                                       MemoryTracker* tracker) {
  if (mem.arena_bytes == 0) return std::unique_ptr<PlanArena>();
  return PlanArena::Create(mem.arena_bytes, mem.alignment, tracker);
}

}  // namespace

ExecFrame::ExecFrame(const CompiledPlan* plan, PlanArena* arena,
                     const PlanStatics* statics)
    : plan_(plan),
      half_(&plan->folded_),
      arena_(arena),
      statics_(statics),
      params_(nullptr) {}

ExecFrame::ExecFrame(const CompiledPlan* plan, PlanArena* arena,
                     const core::QueryParams* params)
    : plan_(plan),
      half_(&plan->execute_),
      arena_(arena),
      statics_(nullptr),
      params_(params) {}

double* ExecFrame::Data(int value_id) {
  const CompiledPlan::ValueHome& home =
      plan_->homes_[static_cast<size_t>(value_id)];
  GENBASE_CHECK((home.folded == (half_ == &plan_->folded_)) &&
                "op writes a value of the other plan half");
  const BufferAssignment& b =
      half_->mem.buffers[static_cast<size_t>(home.sub_id)];
  observed_peak_ = std::max(observed_peak_, b.offset + b.size);
  return arena_ == nullptr ? nullptr : arena_->DoubleAt(b.offset);
}

const double* ExecFrame::In(int value_id) {
  const CompiledPlan::ValueHome& home =
      plan_->homes_[static_cast<size_t>(value_id)];
  if (home.folded == (half_ == &plan_->folded_)) return Data(value_id);
  const PlanArena* retained =
      plan_->retained_[static_cast<size_t>(value_id)].get();
  GENBASE_CHECK(retained != nullptr && "op reads an unretained folded value");
  return retained->DoubleAt(0);
}

linalg::MatrixView ExecFrame::View(int value_id) {
  const TensorSpec& spec =
      plan_->graph_.values()[static_cast<size_t>(value_id)].spec;
  return linalg::MatrixView(In(value_id), spec.rows, spec.cols, spec.cols);
}

const PlanStatics& ExecFrame::statics() const {
  GENBASE_CHECK(statics_ != nullptr && "statics are released after compile");
  return *statics_;
}

const core::QueryParams& ExecFrame::params() {
  if (params_ == nullptr) {
    params_read_ = true;
    static const core::QueryParams kNone;
    return kNone;
  }
  return *params_;
}

genbase::Result<std::shared_ptr<CompiledPlan>> CompiledPlan::Build(
    core::QueryId query, PlanGraph graph, std::vector<OpFn> ops,
    const PlanStatics& statics, int64_t retained_static_bytes,
    MemoryTracker* tracker, ExecContext* ctx) {
  GENBASE_RETURN_NOT_OK(graph.Validate());
  if (ops.size() != graph.ops().size()) {
    return genbase::Status::InvalidArgument("one closure per op required");
  }
  GENBASE_ASSIGN_OR_RETURN(const std::vector<int> order,
                           TopologicalSchedule(graph));
  const auto& defs = graph.ops();
  const size_t num_values = graph.values().size();
  std::vector<int> producer(num_values, -1);
  for (size_t o = 0; o < defs.size(); ++o) {
    for (int v : defs[o].outputs) {
      producer[static_cast<size_t>(v)] = static_cast<int>(o);
    }
  }

  // The fold rule, decided in schedule order so producers come first.
  std::vector<bool> folds(defs.size(), false);
  const auto folded_input = [&](int v) {
    return folds[static_cast<size_t>(producer[static_cast<size_t>(v)])];
  };
  for (int o : order) {
    const OpDef& op = defs[static_cast<size_t>(o)];
    folds[static_cast<size_t>(o)] =
        !op.reads_params &&
        std::all_of(op.inputs.begin(), op.inputs.end(), folded_input);
  }
  std::vector<int> folded_ops;
  std::vector<int> execute_ops;
  std::vector<bool> retained(num_values, false);
  for (size_t o = 0; o < defs.size(); ++o) {
    if (folds[o]) {
      folded_ops.push_back(static_cast<int>(o));
      continue;
    }
    execute_ops.push_back(static_cast<int>(o));
    for (int v : defs[o].inputs) {
      if (folded_input(v)) retained[static_cast<size_t>(v)] = true;
    }
    if (defs[o].in_place &&
        retained[static_cast<size_t>(defs[o].inputs[0])]) {
      return genbase::Status::InvalidArgument(
          "op " + defs[o].name + " would write a folded value in place");
    }
  }

  auto plan = std::make_shared<CompiledPlan>(query, std::move(graph), tracker);
  GENBASE_ASSIGN_OR_RETURN(plan->folded_,
                           MakeHalf(plan->graph_, folded_ops, retained));
  GENBASE_ASSIGN_OR_RETURN(
      plan->execute_,
      MakeHalf(plan->graph_, execute_ops, std::vector<bool>(num_values)));
  plan->homes_.resize(num_values);
  for (const PlanHalf* half : {&plan->folded_, &plan->execute_}) {
    for (size_t s = 0; s < half->value_ids.size(); ++s) {
      plan->homes_[static_cast<size_t>(half->value_ids[s])] = {
          half == &plan->folded_, static_cast<int>(s)};
    }
  }
  plan->folded_result_.query = query;
  GENBASE_RETURN_NOT_OK(plan->RunFolded(ops, retained, statics, ctx));
  GENBASE_ASSIGN_OR_RETURN(
      plan->retained_static_reservation_,
      ScopedReservation::Acquire(tracker, retained_static_bytes));
  plan->retained_bytes_ += retained_static_bytes;
  for (int op_id : plan->ExecuteOps()) {
    plan->execute_fns_.push_back(std::move(ops[static_cast<size_t>(op_id)]));
  }
  return plan;
}

genbase::Status CompiledPlan::RunFolded(const std::vector<OpFn>& ops,
                                        const std::vector<bool>& retained,
                                        const PlanStatics& statics,
                                        ExecContext* ctx) {
  GENBASE_ASSIGN_OR_RETURN(std::unique_ptr<PlanArena> arena,
                           MaybeArena(folded_.mem, tracker_));
  ExecFrame frame(this, arena.get(), &statics);
  for (int op_id : FoldedOps()) {
    const OpDef& def = graph_.ops()[static_cast<size_t>(op_id)];
    GENBASE_RETURN_NOT_OK(RunOp(def, ops[static_cast<size_t>(op_id)], &frame,
                                ctx, &folded_result_));
    if (frame.params_read()) {
      return genbase::Status::Internal(
          "plan op " + def.name +
          " read params but is declared param-free, so it was folded into "
          "a plan shared across params");
    }
  }
  folded_peak_bytes_ = frame.observed_peak();
  PlanMetrics& m = PlanMetrics::Get();
  m.peak_bytes->SetMax(static_cast<double>(folded_peak_bytes_));
  if (folded_peak_bytes_ != folded_.mem.arena_bytes) m.peak_mismatches->Inc();

  // Retain what execute reads; the folding arena goes when we return.
  retained_.resize(retained.size());
  for (size_t v = 0; v < retained.size(); ++v) {
    if (!retained[v]) continue;
    const int64_t bytes = graph_.values()[v].spec.bytes();
    GENBASE_ASSIGN_OR_RETURN(
        retained_[v],
        PlanArena::Create(bytes, folded_.mem.alignment, tracker_));
    if (bytes > 0) {
      std::memcpy(retained_[v]->base(), frame.In(static_cast<int>(v)),
                  static_cast<size_t>(bytes));
    }
    retained_bytes_ += retained_[v]->reserved_bytes();
  }
  return genbase::Status::OK();
}

std::vector<int> CompiledPlan::RunOrder(const PlanHalf& half) {
  std::vector<int> ids;
  for (int sub : half.schedule) {
    ids.push_back(half.op_ids[static_cast<size_t>(sub)]);
  }
  return ids;
}

std::string CompiledPlan::DumpAllocationPlan() const {
  return "folded at compile:\n" + folded_.mem.Dump(folded_.graph) +
         "run per execute:\n" + execute_.mem.Dump(execute_.graph);
}

genbase::Result<std::unique_ptr<PlanArena>> CompiledPlan::AcquireArena() {
  {
    std::lock_guard<std::mutex> lock(arena_mu_);
    if (!arena_pool_.empty()) {
      std::unique_ptr<PlanArena> arena = std::move(arena_pool_.back());
      arena_pool_.pop_back();
      return arena;
    }
  }
  return MaybeArena(execute_.mem, tracker_);
}

void CompiledPlan::ReleaseArena(std::unique_ptr<PlanArena> arena) {
  if (arena == nullptr) return;
  std::lock_guard<std::mutex> lock(arena_mu_);
  // A small pool is enough: the serving stack runs a handful of worker
  // threads; beyond that, returning the arena to the tracker is cheaper
  // than pinning idle memory.
  if (arena_pool_.size() < 8) arena_pool_.push_back(std::move(arena));
}

genbase::Result<core::QueryResult> CompiledPlan::Execute(
    const core::QueryParams& params, ExecContext* ctx) {
  GENBASE_ASSIGN_OR_RETURN(std::unique_ptr<PlanArena> arena, AcquireArena());
  ExecFrame frame(this, arena.get(), &params);
  core::QueryResult result = folded_result_;
  for (size_t i = 0; i < execute_fns_.size(); ++i) {
    const int op_id = execute_.op_ids[static_cast<size_t>(
        execute_.schedule[i])];
    genbase::Status s =
        RunOp(graph_.ops()[static_cast<size_t>(op_id)], execute_fns_[i],
              &frame, ctx, &result);
    if (!s.ok()) {
      ReleaseArena(std::move(arena));
      return s;
    }
  }
  PlanMetrics& m = PlanMetrics::Get();
  m.executes->Inc();
  m.peak_bytes->SetMax(static_cast<double>(frame.observed_peak()));
  // A successful execution must touch exactly the planned high-water mark;
  // anything else means planner and runtime disagree about lifetimes.
  if (frame.observed_peak() != execute_.mem.arena_bytes) {
    m.peak_mismatches->Inc();
  }
  int64_t cur = observed_peak_bytes_.load(std::memory_order_relaxed);
  while (cur < frame.observed_peak() &&
         !observed_peak_bytes_.compare_exchange_weak(
             cur, frame.observed_peak(), std::memory_order_relaxed)) {
  }
  ReleaseArena(std::move(arena));
  return result;
}

}  // namespace genbase::plan
