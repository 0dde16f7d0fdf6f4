#include "plan/memory_planner.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace genbase::plan {

namespace {

int64_t RoundUp(int64_t bytes, int64_t alignment) {
  return (bytes + alignment - 1) / alignment * alignment;
}

/// One distinct physical buffer (alias class root) to place.
struct Root {
  int value_id = 0;
  int64_t size = 0;
  int def_step = 0;
  int last_step = 0;
  int64_t offset = -1;

  bool Overlaps(const Root& o) const {
    return def_step <= o.last_step && o.def_step <= last_step;
  }
};

}  // namespace

genbase::Result<MemoryPlan> PlanMemory(const PlanGraph& graph,
                                       const std::vector<int>& schedule,
                                       int64_t alignment,
                                       const std::vector<int>& live_out) {
  if (alignment < 64 || (alignment & (alignment - 1)) != 0) {
    return genbase::Status::InvalidArgument(
        "arena alignment must be a power of two >= 64");
  }
  GENBASE_RETURN_NOT_OK(graph.Validate());
  const auto& ops = graph.ops();
  const auto& values = graph.values();
  if (schedule.size() != ops.size()) {
    return genbase::Status::InvalidArgument("schedule/op count mismatch");
  }
  const int num_steps = static_cast<int>(schedule.size());
  const int num_values = static_cast<int>(values.size());

  // Resolve in-place alias chains to roots. Walking in schedule order means
  // an op's input root is final before its output aliases it.
  std::vector<int> root(static_cast<size_t>(num_values));
  for (int v = 0; v < num_values; ++v) root[static_cast<size_t>(v)] = v;
  for (int step = 0; step < num_steps; ++step) {
    const OpDef& op = ops[static_cast<size_t>(schedule[step])];
    if (op.in_place) {
      root[static_cast<size_t>(op.outputs[0])] =
          root[static_cast<size_t>(op.inputs[0])];
    }
  }

  // Lifetimes over the schedule: a root is live from its first write to its
  // last touch. Values nothing consumes (graph outputs) and live-out values
  // stay live to the end of the schedule.
  std::vector<int> def_step(static_cast<size_t>(num_values), num_steps);
  std::vector<int> last_step(static_cast<size_t>(num_values), -1);
  std::vector<int> consumers(static_cast<size_t>(num_values), 0);
  for (int step = 0; step < num_steps; ++step) {
    const OpDef& op = ops[static_cast<size_t>(schedule[step])];
    for (int v : op.inputs) {
      const int r = root[static_cast<size_t>(v)];
      last_step[static_cast<size_t>(r)] =
          std::max(last_step[static_cast<size_t>(r)], step);
      ++consumers[static_cast<size_t>(v)];
    }
    for (int v : op.outputs) {
      const int r = root[static_cast<size_t>(v)];
      def_step[static_cast<size_t>(r)] =
          std::min(def_step[static_cast<size_t>(r)], step);
      last_step[static_cast<size_t>(r)] =
          std::max(last_step[static_cast<size_t>(r)], step);
    }
  }
  for (int v : live_out) {
    if (v < 0 || v >= num_values) {
      return genbase::Status::InvalidArgument(
          "live-out value id out of range");
    }
    ++consumers[static_cast<size_t>(v)];
    last_step[static_cast<size_t>(root[static_cast<size_t>(v)])] =
        num_steps - 1;
  }
  for (int v = 0; v < num_values; ++v) {
    if (consumers[static_cast<size_t>(v)] == 0) {
      last_step[static_cast<size_t>(root[static_cast<size_t>(v)])] =
          num_steps - 1;
    }
  }

  std::vector<Root> roots;
  for (int v = 0; v < num_values; ++v) {
    if (root[static_cast<size_t>(v)] != v) continue;
    Root r;
    r.value_id = v;
    r.size = RoundUp(values[static_cast<size_t>(v)].spec.bytes(), alignment);
    r.def_step = def_step[static_cast<size_t>(v)];
    r.last_step = last_step[static_cast<size_t>(v)];
    roots.push_back(r);
  }

  // Greedy-by-size offline placement (the shape TFLite's GreedyBySize and
  // onnxruntime's arena planner use): place big buffers first, each at the
  // best-fit gap among already-placed buffers whose lifetimes overlap it.
  // Buffers with disjoint lifetimes never constrain each other, so a dead
  // buffer's address range is reused for free.
  std::vector<size_t> order(roots.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&roots](size_t a, size_t b) {
    if (roots[a].size != roots[b].size) return roots[a].size > roots[b].size;
    return roots[a].value_id < roots[b].value_id;
  });

  int64_t arena_bytes = 0;
  std::vector<const Root*> placed;
  std::vector<const Root*> blockers;
  for (size_t idx : order) {
    Root& r = roots[idx];
    blockers.clear();
    for (const Root* p : placed) {
      if (p->Overlaps(r)) blockers.push_back(p);
    }
    std::sort(blockers.begin(), blockers.end(),
              [](const Root* a, const Root* b) {
                return a->offset < b->offset;
              });
    // Best fit: smallest gap between live neighbours that holds the buffer;
    // the open gap after the last blocker always fits (ties -> lowest
    // offset, so the choice stays deterministic).
    int64_t best_offset = -1;
    int64_t best_gap = std::numeric_limits<int64_t>::max();
    int64_t cursor = 0;
    for (const Root* p : blockers) {
      if (p->offset > cursor) {
        const int64_t gap = p->offset - cursor;
        if (gap >= r.size && gap < best_gap) {
          best_gap = gap;
          best_offset = cursor;
        }
      }
      cursor = std::max(cursor, p->offset + p->size);
    }
    if (best_offset < 0) best_offset = cursor;
    r.offset = best_offset;
    arena_bytes = std::max(arena_bytes, r.offset + r.size);
    placed.push_back(&r);
  }

  MemoryPlan plan;
  plan.alignment = alignment;
  plan.arena_bytes = arena_bytes;
  plan.buffers.resize(static_cast<size_t>(num_values));
  std::vector<int64_t> root_offset(static_cast<size_t>(num_values), 0);
  for (const Root& r : roots) {
    root_offset[static_cast<size_t>(r.value_id)] = r.offset;
    plan.total_bytes_no_reuse += r.size;
  }
  plan.reused_bytes = plan.total_bytes_no_reuse - plan.arena_bytes;
  for (int v = 0; v < num_values; ++v) {
    const int rv = root[static_cast<size_t>(v)];
    BufferAssignment& b = plan.buffers[static_cast<size_t>(v)];
    b.offset = root_offset[static_cast<size_t>(rv)];
    b.size = RoundUp(values[static_cast<size_t>(v)].spec.bytes(), alignment);
    b.def_step = def_step[static_cast<size_t>(rv)];
    b.last_use_step = last_step[static_cast<size_t>(rv)];
    b.alias_root = rv == v ? -1 : rv;
  }
  return plan;
}

std::string MemoryPlan::Dump(const PlanGraph& graph) const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "plan-arena: %zu values, arena=%lld B, no-reuse=%lld B, "
                "reused=%lld B, align=%lld\n",
                buffers.size(), static_cast<long long>(arena_bytes),
                static_cast<long long>(total_bytes_no_reuse),
                static_cast<long long>(reused_bytes),
                static_cast<long long>(alignment));
  out += line;
  for (size_t v = 0; v < buffers.size(); ++v) {
    const BufferAssignment& b = buffers[v];
    const ValueDef& val = graph.values()[v];
    std::snprintf(line, sizeof(line),
                  "  [%2zu] %-16s %6lldx%-6lld %10lld B @%-10lld "
                  "live[%d,%d]%s%s\n",
                  v, val.name.c_str(), static_cast<long long>(val.spec.rows),
                  static_cast<long long>(val.spec.cols),
                  static_cast<long long>(val.spec.bytes()),
                  static_cast<long long>(b.offset), b.def_step,
                  b.last_use_step, b.alias_root >= 0 ? " alias-of " : "",
                  b.alias_root >= 0
                      ? graph.values()[static_cast<size_t>(b.alias_root)]
                            .name.c_str()
                      : "");
    out += line;
  }
  return out;
}

}  // namespace genbase::plan
