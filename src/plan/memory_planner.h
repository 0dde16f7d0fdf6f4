#ifndef GENBASE_PLAN_MEMORY_PLANNER_H_
#define GENBASE_PLAN_MEMORY_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/plan_graph.h"

namespace genbase::plan {

/// \brief Static placement of one plan value inside the arena.
struct BufferAssignment {
  int64_t offset = 0;     ///< Byte offset into the arena (alignment-multiple).
  int64_t size = 0;       ///< Alignment-rounded byte size.
  int def_step = 0;       ///< First schedule step that writes the buffer.
  int last_use_step = 0;  ///< Last schedule step that touches the buffer.
  int alias_root = -1;    ///< Value id this aliases (in-place chains), or -1.
};

/// \brief The static allocation plan: per-value offsets into one arena,
/// plus the accounting the obs stack reports. `arena_bytes` is an exact
/// peak — executing the schedule touches exactly the planned high-water
/// mark, never more (property-tested), so peak memory is known before the
/// first byte is allocated.
struct MemoryPlan {
  std::vector<BufferAssignment> buffers;  ///< Indexed by value id.
  int64_t alignment = 64;
  int64_t arena_bytes = 0;            ///< Peak = arena size.
  int64_t total_bytes_no_reuse = 0;   ///< Sum of distinct buffer sizes.
  int64_t reused_bytes = 0;           ///< total_bytes_no_reuse - arena_bytes.

  /// Human-readable allocation plan (one line per value: offset, size,
  /// lifetime, alias) for debugging planner decisions.
  std::string Dump(const PlanGraph& graph) const;
};

/// \brief Computes buffer lifetimes over `schedule` and assigns arena
/// offsets greedily by size (largest first), best-fit into the gaps left by
/// lifetime-overlapping buffers — lifetime-disjoint buffers may share
/// offsets, which is where the reuse comes from. In-place op chains
/// collapse to one buffer (shared offset, merged lifetime). All sizes are
/// rounded up to `alignment` (>= 64 for the SIMD kernels' aligned loads)
/// and every offset is an alignment multiple. Values nothing in the graph
/// consumes, and the `live_out` values (read after the schedule ends), stay
/// live to its last step.
genbase::Result<MemoryPlan> PlanMemory(const PlanGraph& graph,
                                       const std::vector<int>& schedule,
                                       int64_t alignment = 64,
                                       const std::vector<int>& live_out = {});

}  // namespace genbase::plan

#endif  // GENBASE_PLAN_MEMORY_PLANNER_H_
