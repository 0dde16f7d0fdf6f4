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
    case OpKind::kScale:
      return "scale";
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
    case OpKind::kScale:
      return "plan.scale";
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
  std::vector<int> producer(values_.size(), -1);
  for (size_t o = 0; o < ops_.size(); ++o) {
    const OpDef& op = ops_[o];
    for (int v : op.inputs) {
      if (v < 0 || v >= num_values) {
        return genbase::Status::InvalidArgument(
            "op " + op.name + " reads out-of-range value id");
      }
    }
    for (int v : op.outputs) {
      if (v < 0 || v >= num_values) {
        return genbase::Status::InvalidArgument(
            "op " + op.name + " writes out-of-range value id");
      }
      if (producer[static_cast<size_t>(v)] != -1) {
        return genbase::Status::InvalidArgument(
            "value " + values_[static_cast<size_t>(v)].name +
            " has two producers");
      }
      producer[static_cast<size_t>(v)] = static_cast<int>(o);
    }
    if (op.in_place) {
      if (op.inputs.empty() || op.outputs.empty()) {
        return genbase::Status::InvalidArgument(
            "in-place op " + op.name + " needs an input and an output");
      }
      const TensorSpec& in = values_[static_cast<size_t>(op.inputs[0])].spec;
      const TensorSpec& out =
          values_[static_cast<size_t>(op.outputs[0])].spec;
      if (in.bytes() != out.bytes()) {
        return genbase::Status::InvalidArgument(
            "in-place op " + op.name + " aliases mismatched byte sizes");
      }
    }
  }
  for (size_t v = 0; v < values_.size(); ++v) {
    if (producer[v] == -1) {
      return genbase::Status::InvalidArgument(
          "value " + values_[v].name + " has no producer");
    }
  }
  return genbase::Status::OK();
}

PlanGraph PlanGraph::Subgraph(const std::vector<int>& op_ids,
                              std::vector<int>* value_ids) const {
  PlanGraph sub;
  value_ids->clear();
  std::vector<int> sub_id(values_.size(), -1);
  for (int o : op_ids) {
    for (int v : ops_[static_cast<size_t>(o)].outputs) {
      sub_id[static_cast<size_t>(v)] = sub.AddValue(
          values_[static_cast<size_t>(v)].name,
          values_[static_cast<size_t>(v)].spec);
      value_ids->push_back(v);
    }
  }
  const auto remap = [&sub_id](const std::vector<int>& ids) {
    std::vector<int> out;
    for (int v : ids) {
      if (sub_id[static_cast<size_t>(v)] >= 0) {
        out.push_back(sub_id[static_cast<size_t>(v)]);
      }
    }
    return out;
  };
  for (int o : op_ids) {
    OpDef op = ops_[static_cast<size_t>(o)];
    op.inputs = remap(op.inputs);
    op.outputs = remap(op.outputs);
    sub.AddOp(std::move(op));
  }
  return sub;
}

}  // namespace genbase::plan
