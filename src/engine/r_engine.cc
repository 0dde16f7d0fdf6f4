#include "engine/r_engine.h"

#include <cstring>

#include "core/config.h"

namespace genbase::engine {

namespace {

/// R's memory budget: calibrated as a multiple of the medium dataset's dense
/// size (core::SimConfig::r_memory_budget_vs_medium). With the default
/// factor, small and medium runs fit and the large dataset exhausts the
/// budget, matching the paper's Figure 1.
int64_t RBudgetBytes() {
  const auto& config = core::SimConfig::Get();
  const core::DatasetDims medium =
      core::DimsFor(core::DatasetSize::kMedium, config.scale);
  return static_cast<int64_t>(config.r_memory_budget_vs_medium *
                              static_cast<double>(medium.dense_bytes()));
}

}  // namespace

VanillaREngine::VanillaREngine() : tracker_(RBudgetBytes(), "R") {}

genbase::Status VanillaREngine::DoLoadDataset(const core::GenBaseData& data) {
  DoUnloadDataset();
  // R 3.0.x hard limit: no single vector may exceed 2^31 - 1 cells. The
  // microarray data frame holds one vector per column of `cells` length.
  const auto& config = core::SimConfig::Get();
  if (data.dims.cells() > config.r_max_cells) {
    return genbase::Status::OutOfMemory(
        "R: array exceeds 2^31-1 cell limit (" +
        std::to_string(data.dims.cells()) + " cells)");
  }
  auto tables = std::make_unique<ColumnarTables>();
  GENBASE_RETURN_NOT_OK(LoadColumnarTables(data, &tracker_, tables.get()));
  tables_ = std::move(tables);
  return genbase::Status::OK();
}

void VanillaREngine::DoUnloadDataset() {
  tables_.reset();
  tracker_.Reset();
}

void VanillaREngine::PrepareContext(ExecContext* ctx) {
  ctx->set_memory(&tracker_);
  ctx->set_pool(nullptr);  // Single threaded, like R.
}

genbase::Result<core::QueryResult> VanillaREngine::RunQuery(
    core::QueryId query, const core::QueryParams& params, ExecContext* ctx) {
  if (tables_ == nullptr) {
    return genbase::Status::OutOfMemory("R: dataset failed to load");
  }
  QueryInputs inputs;
  {
    ScopedPhase dm(ctx, Phase::kDataManagement);
    GENBASE_ASSIGN_OR_RETURN(
        inputs, PrepareInputsColumnar(*tables_, query, params, ctx));
    // R's copy-on-modify semantics: model.matrix / scale() duplicate the
    // analysis matrix before the fit. Make the copy for real so both the
    // time and the memory budget feel it.
    if (inputs.x.size() > 0) {
      GENBASE_ASSIGN_OR_RETURN(
          linalg::Matrix duplicate,
          linalg::Matrix::Create(inputs.x.rows(), inputs.x.cols(),
                                 ctx->memory()));
      std::memcpy(duplicate.data(), inputs.x.data(),
                  static_cast<size_t>(inputs.x.bytes()));
      inputs.x = std::move(duplicate);
    }
  }
  return RunStandardAnalytics(query, std::move(inputs), params,
                              linalg::KernelQuality::kTuned, ctx);
}

}  // namespace genbase::engine
