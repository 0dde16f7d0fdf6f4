#include "plan/compiled_plan.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "plan/plan_stats.h"

namespace genbase::plan {

double* ExecFrame::Data(int value_id) {
  const BufferAssignment& b =
      plan_->mem_.buffers[static_cast<size_t>(value_id)];
  observed_peak_ = std::max(observed_peak_, b.offset + b.size);
  return arena_->DoubleAt(b.offset);
}

linalg::MatrixView ExecFrame::View(int value_id) {
  const TensorSpec& spec =
      plan_->graph_.values()[static_cast<size_t>(value_id)].spec;
  return linalg::MatrixView(Data(value_id), spec.rows, spec.cols, spec.cols);
}

const PlanStatics& ExecFrame::statics() const { return plan_->statics_; }

genbase::Result<std::unique_ptr<PlanArena>> CompiledPlan::AcquireArena() {
  {
    std::lock_guard<std::mutex> lock(arena_mu_);
    if (!arena_pool_.empty()) {
      std::unique_ptr<PlanArena> arena = std::move(arena_pool_.back());
      arena_pool_.pop_back();
      return arena;
    }
  }
  return PlanArena::Create(mem_.arena_bytes, mem_.alignment, tracker_);
}

void CompiledPlan::ReleaseArena(std::unique_ptr<PlanArena> arena) {
  std::lock_guard<std::mutex> lock(arena_mu_);
  // A small pool is enough: the serving stack runs a handful of worker
  // threads; beyond that, returning the arena to the tracker is cheaper
  // than pinning idle memory.
  if (arena_pool_.size() < 8) arena_pool_.push_back(std::move(arena));
}

genbase::Result<core::QueryResult> CompiledPlan::Execute(
    const core::QueryParams& params, ExecContext* ctx) {
  GENBASE_ASSIGN_OR_RETURN(std::unique_ptr<PlanArena> arena, AcquireArena());
  ExecFrame frame(arena.get(), this, &params);
  core::QueryResult result;
  result.query = query_;
  for (const CompiledOp& op : ops_) {
    obs::ScopedSpan span(OpSpanName(op.kind));
    span.SetDetail(op.name);
    ScopedPhase phase(ctx, OpPhase(op.kind));
    genbase::Status s = op.run(&frame, ctx, &result);
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
  if (frame.observed_peak() != mem_.arena_bytes) m.peak_mismatches->Inc();
  int64_t cur = observed_peak_bytes_.load(std::memory_order_relaxed);
  while (cur < frame.observed_peak() &&
         !observed_peak_bytes_.compare_exchange_weak(
             cur, frame.observed_peak(), std::memory_order_relaxed)) {
  }
  ReleaseArena(std::move(arena));
  return result;
}

}  // namespace genbase::plan
