#ifndef GENBASE_PLAN_PLAN_BUILDER_H_
#define GENBASE_PLAN_PLAN_BUILDER_H_

#include <cstdint>
#include <memory>

#include "common/exec_context.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "core/queries.h"
#include "engine/engine_util.h"
#include "plan/compiled_plan.h"

namespace genbase::plan {

/// \brief Fingerprint of the QueryParams fields that give `query`'s plan its
/// shape: the fields the statics builders (filters, joins, mappings) and the
/// graph's buffer shapes read. Every other field is bound at execute through
/// ExecFrame::params(), so one compiled plan serves every params value that
/// agrees on these:
///
///   query            shape (in the plan key)   bound at execute
///   Q1 regression    function_threshold        -
///   Q2 covariance    disease_id                covariance_quantile
///   Q3 biclustering  gender, max_age           bicluster_delta_fraction,
///                                              bicluster_count
///   Q4 SVD           function_threshold        svd_rank
///   Q5 statistics    sample_fraction           significance
uint64_t ShapeFingerprint(core::QueryId query,
                          const core::QueryParams& params);

/// \brief Compiles one query against a dataset snapshot into a static plan:
/// runs the relational prep (filters, hash joins, dense mappings) once,
/// builds the operator DAG with exact buffer shapes, and hands it to
/// CompiledPlan::Build, which runs every op that reads no bound param
/// (folding) and plans the rest. Only the shape fields of `params` (see
/// ShapeFingerprint) are read; the result executes any number of times,
/// under any params of the same shape, running only the param-reading ops
/// with zero per-run planning or allocation beyond one arena grab.
///
/// Planned execution is bitwise identical to the legacy
/// PrepareInputsColumnar + RunStandardAnalytics path: every operator runs
/// the same kernel entry points in the same order (property-tested).
genbase::Result<std::shared_ptr<CompiledPlan>> CompileQuery(
    std::shared_ptr<const engine::ColumnarTables> tables,
    core::QueryId query, const core::QueryParams& params,
    MemoryTracker* tracker, ExecContext* ctx);

}  // namespace genbase::plan

#endif  // GENBASE_PLAN_PLAN_BUILDER_H_
