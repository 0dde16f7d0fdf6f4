#include "workload/workload_spec.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace genbase::workload {

const char* ClientModelName(ClientModel model) {
  switch (model) {
    case ClientModel::kClosedLoop:
      return "closed-loop";
    case ClientModel::kOpenLoopPoisson:
      return "open-loop/poisson";
    case ClientModel::kOpenLoopUniform:
      return "open-loop/uniform";
  }
  return "?";
}

genbase::Status WorkloadSpec::Validate() const {
  if (clients < 1) {
    return genbase::Status::InvalidArgument("workload: clients must be >= 1");
  }
  if (measured_ops < 1) {
    return genbase::Status::InvalidArgument(
        "workload: measured_ops must be >= 1");
  }
  if (warmup_ops < 0) {
    return genbase::Status::InvalidArgument(
        "workload: warmup_ops must be >= 0");
  }
  if (model != ClientModel::kClosedLoop && arrival_rate_qps <= 0) {
    return genbase::Status::InvalidArgument(
        "workload: open-loop models need arrival_rate_qps > 0");
  }
  if (param_variants < 1) {
    return genbase::Status::InvalidArgument(
        "workload: param_variants must be >= 1");
  }
  double weight_sum = 0;
  for (const auto& entry : mix) {
    if (entry.weight < 0 || !std::isfinite(entry.weight)) {
      return genbase::Status::InvalidArgument(
          "workload: mix weights must be finite and >= 0");
    }
    weight_sum += entry.weight;
  }
  if (!mix.empty() && weight_sum <= 0) {
    return genbase::Status::InvalidArgument(
        "workload: mix weights must not all be zero");
  }
  return genbase::Status::OK();
}

std::vector<QueryMixEntry> WorkloadSpec::NormalizedMix() const {
  std::vector<QueryMixEntry> entries = mix;
  double sum = 0;
  for (const auto& e : entries) sum += std::max(0.0, e.weight);
  if (entries.empty() || sum <= 0) {
    entries.clear();
    for (core::QueryId q : core::kAllQueries) entries.push_back({q, 1.0});
    sum = static_cast<double>(entries.size());
  }
  for (auto& e : entries) e.weight = std::max(0.0, e.weight) / sum;
  return entries;
}

core::QueryParams VariantParams(const core::QueryParams& base, int variant) {
  if (variant <= 0) return base;
  core::QueryParams p = base;
  // Mild arithmetic perturbations: each stays valid down to the tiny test
  // scales (selections stay non-empty, ranks stay >= 2), and each changes
  // at least one query's answer so cached results cannot be shared across
  // variants.
  p.function_threshold =
      std::max<int64_t>(64, base.function_threshold - 8 * (variant % 8));
  p.covariance_quantile = std::clamp(
      base.covariance_quantile - 0.02 * (variant % 4), 0.50, 0.99);
  p.max_age = base.max_age + 3 * (variant % 3);
  p.svd_rank = std::max(2, base.svd_rank - (variant % 4));
  // The visible perturbations above cycle (period 24); this strictly
  // monotone microscopic offset keeps every variant's params bit-distinct —
  // hence a distinct serving-cache key — at any variant count. 1e-9
  // relative is far below any p-value granularity the Wilcoxon test
  // produces, and reference truth is computed with the same params, so
  // verification is unaffected either way.
  p.significance = base.significance * (1.0 + 1e-9 * variant);
  return p;
}

std::vector<ScheduledOp> BuildSchedule(const WorkloadSpec& spec) {
  const std::vector<QueryMixEntry> mix = spec.NormalizedMix();
  const int total = spec.warmup_ops + spec.measured_ops;
  std::vector<ScheduledOp> ops;
  ops.reserve(total);

  Rng mix_rng(SeedFromTag("workload/mix", SeedFromTag(spec.name), spec.seed));
  Rng arrival_rng(
      SeedFromTag("workload/arrival", SeedFromTag(spec.name), spec.seed));
  Rng variant_rng(
      SeedFromTag("workload/variant", SeedFromTag(spec.name), spec.seed));

  // Fallback for the inverse-CDF draw below: the last entry with positive
  // weight, so floating-point residue in the cumulative sum can never
  // schedule a query the spec excluded with weight 0.
  core::QueryId fallback = mix.back().query;
  for (const auto& e : mix) {
    if (e.weight > 0) fallback = e.query;
  }

  double arrival = 0.0;
  for (int i = 0; i < total; ++i) {
    ScheduledOp op;
    // Weighted draw by inverse CDF over the normalized mix.
    const double u = mix_rng.Uniform();
    double cumulative = 0.0;
    op.query = fallback;
    for (const auto& e : mix) {
      if (e.weight <= 0) continue;
      cumulative += e.weight;
      if (u < cumulative) {
        op.query = e.query;
        break;
      }
    }
    if (spec.param_variants > 1) {
      op.variant = static_cast<int>(
          variant_rng.UniformInt(0, spec.param_variants - 1));
    }
    // Warm-up operations are issued immediately regardless of model: they
    // exist to populate caches, not to shape arrival timing. Arrival
    // offsets are relative to the *measured* phase start, so interarrival
    // accumulation begins at the warm-up boundary.
    if (i < spec.warmup_ops) {
      ops.push_back(op);
      continue;
    }
    switch (spec.model) {
      case ClientModel::kClosedLoop:
        break;
      case ClientModel::kOpenLoopPoisson: {
        // Exponential interarrival at the aggregate rate.
        const double u01 = arrival_rng.Uniform();
        arrival += -std::log(1.0 - u01) / spec.arrival_rate_qps;
        op.arrival_offset_s = arrival;
        break;
      }
      case ClientModel::kOpenLoopUniform:
        arrival += 1.0 / spec.arrival_rate_qps;
        op.arrival_offset_s = arrival;
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

}  // namespace genbase::workload
