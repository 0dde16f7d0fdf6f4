#ifndef GENBASE_PLAN_MEMORY_PLANNER_H_
#define GENBASE_PLAN_MEMORY_PLANNER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "plan/plan_graph.h"

namespace genbase::plan {

/// \brief The arena a plan value lives in, chosen by the fold split.
enum class Region {
  kRetained = 0,  ///< Folded values an execute op reads: written once at
                  ///< compile, read-only afterwards, owned by the plan.
  kScratch,       ///< Every other folded value: freed before Build returns.
  kExecute,       ///< Values execute ops write: one pooled arena per run.
};
inline constexpr int kNumRegions = 3;

const char* RegionName(Region region);

/// Every slot offset is a multiple of this (the SIMD kernels' aligned
/// loads), and so is every region's base.
inline constexpr int64_t kSlotAlignment = 64;
/// Each slot ends in one guard word of this many bytes, filled with a fixed
/// pattern when its arena is created; a write past a value's end lands in it.
inline constexpr int64_t kGuardBytes = 64;

/// \brief One value's place: [offset, offset + size) of its region — the
/// value's bytes rounded up to kSlotAlignment, then its guard word.
struct Slot {
  Region region = Region::kScratch;
  int64_t offset = 0;
  int64_t size = 0;

  int64_t guard_offset() const { return offset + size - kGuardBytes; }
};

/// \brief Where every value of a plan lives. No two values share bytes, so
/// a region's size is the sum of its slots and is known before any op runs.
struct MemoryLayout {
  std::vector<Slot> slots;  ///< Indexed by value id.
  std::array<int64_t, kNumRegions> region_bytes{};

  int64_t bytes(Region region) const {
    return region_bytes[static_cast<size_t>(region)];
  }

  /// Writes the guard pattern into every slot of `region` at `base`.
  void FillGuards(Region region, unsigned char* base) const;

  /// The first value of `region` whose guard word at `base` no longer holds
  /// the pattern, or -1 when every guard is intact.
  int OverwrittenGuard(Region region, const unsigned char* base) const;

  /// One line per value: name, shape, bytes, region and offset.
  std::string Dump(const PlanGraph& graph) const;
};

/// \brief Bump layout of `graph`'s values, in op order. `folds[o]` is the
/// fold split (op o runs at compile). A value an execute op writes goes to
/// the execute region; a folded value an execute op reads goes to the
/// retained region; every other folded value goes to scratch. Within its
/// region each value takes the next aligned slot.
MemoryLayout LayOut(const PlanGraph& graph, const std::vector<bool>& folds);

}  // namespace genbase::plan

#endif  // GENBASE_PLAN_MEMORY_PLANNER_H_
