#include "plan/plan_graph.h"

namespace genbase::plan {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kScan:
      return "scan";
    case OpKind::kSelect:
      return "select";
    case OpKind::kJoin:
      return "join";
    case OpKind::kGemm:
      return "gemm";
    case OpKind::kSyrkCentered:
      return "syrk_centered";
    case OpKind::kSvdHelper:
      return "svd_helper";
    case OpKind::kWilcoxonRank:
      return "wilcoxon_rank";
    case OpKind::kChengChurchStep:
      return "cheng_church_step";
    case OpKind::kColumnMeans:
      return "column_means";
    case OpKind::kQuantile:
      return "quantile";
    case OpKind::kCount:
      return "count";
  }
  return "?";
}

const char* OpSpanName(OpKind kind) {
  switch (kind) {
    case OpKind::kScan:
      return "plan.scan";
    case OpKind::kSelect:
      return "plan.select";
    case OpKind::kJoin:
      return "plan.join";
    case OpKind::kGemm:
      return "plan.gemm";
    case OpKind::kSyrkCentered:
      return "plan.syrk_centered";
    case OpKind::kSvdHelper:
      return "plan.svd_helper";
    case OpKind::kWilcoxonRank:
      return "plan.wilcoxon_rank";
    case OpKind::kChengChurchStep:
      return "plan.cheng_church_step";
    case OpKind::kColumnMeans:
      return "plan.column_means";
    case OpKind::kQuantile:
      return "plan.quantile";
    case OpKind::kCount:
      return "plan.count";
  }
  return "plan.op";
}

Phase OpPhase(OpKind kind) {
  // The scan restructures relational rows into the dense arena buffer —
  // exactly the work PrepareInputsColumnar charges to data management.
  return kind == OpKind::kScan ? Phase::kDataManagement : Phase::kAnalytics;
}

int PlanGraph::AddValue(std::string name, TensorSpec spec) {
  values_.push_back(ValueDef{std::move(name), spec});
  return static_cast<int>(values_.size()) - 1;
}

int PlanGraph::AddOp(OpDef op) {
  ops_.push_back(std::move(op));
  return static_cast<int>(ops_.size()) - 1;
}

genbase::Status PlanGraph::Validate() const {
  const int num_values = static_cast<int>(values_.size());
  std::vector<bool> written(values_.size(), false);
  for (const OpDef& op : ops_) {
    for (int v : op.inputs) {
      if (v < 0 || v >= num_values) {
        return genbase::Status::InvalidArgument(
            "op " + op.name + " reads out-of-range value id");
      }
      if (!written[static_cast<size_t>(v)]) {
        return genbase::Status::InvalidArgument(
            "op " + op.name + " reads value " +
            values_[static_cast<size_t>(v)].name +
            ", which no earlier op writes");
      }
    }
    for (int v : op.outputs) {
      if (v < 0 || v >= num_values) {
        return genbase::Status::InvalidArgument(
            "op " + op.name + " writes out-of-range value id");
      }
      if (written[static_cast<size_t>(v)]) {
        return genbase::Status::InvalidArgument(
            "value " + values_[static_cast<size_t>(v)].name +
            " has two producers");
      }
      written[static_cast<size_t>(v)] = true;
    }
  }
  for (size_t v = 0; v < values_.size(); ++v) {
    if (!written[v]) {
      return genbase::Status::InvalidArgument(
          "value " + values_[v].name + " has no producer");
    }
  }
  return genbase::Status::OK();
}

}  // namespace genbase::plan
