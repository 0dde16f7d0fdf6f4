#include "plan/compiled_plan.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"
#include "plan/plan_stats.h"

namespace genbase::plan {

namespace {

/// Runs one op under its trace span and phase.
genbase::Status RunOp(const OpDef& def, const OpFn& fn, ExecFrame* frame,
                      ExecContext* ctx, core::QueryResult* result) {
  obs::ScopedSpan span(OpSpanName(def.kind));
  span.SetDetail(def.name);
  ScopedPhase phase(ctx, OpPhase(def.kind));
  return fn(frame, ctx, result);
}

unsigned char* BaseOf(PlanArena* arena) {
  return arena == nullptr ? nullptr : arena->base();
}

}  // namespace

ExecFrame::ExecFrame(const CompiledPlan* plan, PlanArena* scratch,
                     const PlanStatics* statics)
    : plan_(plan), folding_(true), statics_(statics), params_(nullptr) {
  base_[static_cast<size_t>(Region::kRetained)] = BaseOf(plan->retained_.get());
  base_[static_cast<size_t>(Region::kScratch)] = BaseOf(scratch);
}

ExecFrame::ExecFrame(const CompiledPlan* plan, PlanArena* execute,
                     const core::QueryParams* params)
    : plan_(plan), folding_(false), statics_(nullptr), params_(params) {
  base_[static_cast<size_t>(Region::kRetained)] = BaseOf(plan->retained_.get());
  base_[static_cast<size_t>(Region::kExecute)] = BaseOf(execute);
}

double* ExecFrame::Address(int value_id) const {
  const Slot& slot = plan_->layout_.slots[static_cast<size_t>(value_id)];
  unsigned char* base = base_[static_cast<size_t>(slot.region)];
  GENBASE_CHECK(base != nullptr && "op touches a region its frame cannot see");
  return reinterpret_cast<double*>(base + slot.offset);
}

double* ExecFrame::Data(int value_id) {
  const Region region =
      plan_->layout_.slots[static_cast<size_t>(value_id)].region;
  GENBASE_CHECK(folding_ == (region != Region::kExecute) &&
                "op writes a value outside its frame's regions");
  return Address(value_id);
}

const double* ExecFrame::In(int value_id) { return Address(value_id); }

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
  auto plan = std::make_shared<CompiledPlan>(query, std::move(graph), tracker);
  const auto& defs = plan->graph_.ops();

  // The fold rule, in op order: Validate guarantees producers come first.
  std::vector<bool> folds(defs.size(), false);
  std::vector<bool> folded_value(plan->graph_.values().size(), false);
  for (size_t o = 0; o < defs.size(); ++o) {
    const OpDef& op = defs[o];
    folds[o] = !op.reads_params &&
               std::all_of(op.inputs.begin(), op.inputs.end(), [&](int v) {
                 return folded_value[static_cast<size_t>(v)];
               });
    for (int v : op.outputs) folded_value[static_cast<size_t>(v)] = folds[o];
    (folds[o] ? plan->folded_ops_ : plan->execute_ops_)
        .push_back(static_cast<int>(o));
  }
  plan->layout_ = LayOut(plan->graph_, folds);

  plan->folded_result_.query = query;
  GENBASE_RETURN_NOT_OK(plan->RunFolded(ops, statics, ctx));
  GENBASE_ASSIGN_OR_RETURN(
      plan->retained_static_reservation_,
      ScopedReservation::Acquire(tracker, retained_static_bytes));
  plan->retained_bytes_ += retained_static_bytes;
  for (int op_id : plan->execute_ops_) {
    plan->execute_fns_.push_back(std::move(ops[static_cast<size_t>(op_id)]));
  }
  return plan;
}

genbase::Status CompiledPlan::RunFolded(const std::vector<OpFn>& ops,
                                        const PlanStatics& statics,
                                        ExecContext* ctx) {
  GENBASE_ASSIGN_OR_RETURN(retained_, NewArena(Region::kRetained));
  GENBASE_ASSIGN_OR_RETURN(std::unique_ptr<PlanArena> scratch,
                           NewArena(Region::kScratch));
  ExecFrame frame(this, scratch.get(), &statics);
  for (int op_id : folded_ops_) {
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
  GENBASE_RETURN_NOT_OK(CheckGuards(Region::kRetained, retained_.get()));
  GENBASE_RETURN_NOT_OK(CheckGuards(Region::kScratch, scratch.get()));
  if (retained_ != nullptr) retained_bytes_ += retained_->reserved_bytes();
  return genbase::Status::OK();
}

genbase::Result<std::unique_ptr<PlanArena>> CompiledPlan::NewArena(
    Region region) const {
  if (layout_.bytes(region) == 0) return std::unique_ptr<PlanArena>();
  GENBASE_ASSIGN_OR_RETURN(
      std::unique_ptr<PlanArena> arena,
      PlanArena::Create(layout_.bytes(region), kSlotAlignment, tracker_));
  layout_.FillGuards(region, arena->base());
  return arena;
}

genbase::Status CompiledPlan::CheckGuards(Region region,
                                          const PlanArena* arena) const {
  if (arena == nullptr) return genbase::Status::OK();
  const int v = layout_.OverwrittenGuard(region, arena->base());
  if (v < 0) return genbase::Status::OK();
  PlanMetrics::Get().peak_mismatches->Inc();
  return genbase::Status::Internal(
      "plan value " + graph_.values()[static_cast<size_t>(v)].name +
      " was written past its " + RegionName(region) + " slot");
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
  return NewArena(Region::kExecute);
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
  genbase::Status s;
  for (size_t i = 0; i < execute_fns_.size() && s.ok(); ++i) {
    s = RunOp(graph_.ops()[static_cast<size_t>(execute_ops_[i])],
              execute_fns_[i], &frame, ctx, &result);
  }
  // A failed op may have written past its slot too: check before pooling.
  GENBASE_RETURN_NOT_OK(CheckGuards(Region::kExecute, arena.get()));
  ReleaseArena(std::move(arena));
  GENBASE_RETURN_NOT_OK(s);
  PlanMetrics::Get().executes->Inc();
  return result;
}

}  // namespace genbase::plan
