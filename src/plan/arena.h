#ifndef GENBASE_PLAN_ARENA_H_
#define GENBASE_PLAN_ARENA_H_

#include <cstdint>
#include <memory>

#include "common/memory_tracker.h"
#include "common/status.h"

namespace genbase::plan {

/// \brief One contiguous aligned allocation backing every value of one
/// region of a compiled plan (MemoryLayout). The arena is sized by the
/// layout before any op runs, charged to the engine's MemoryTracker as a
/// single reservation, and handed out purely by precomputed offsets —
/// operators never allocate (enforced by the `plan-arena-alloc` lint
/// rule).
class PlanArena {
 public:
  /// Allocates `bytes` rounded up to `alignment`, with the base pointer
  /// aligned to `alignment` (>= 64 so kernel-facing buffers satisfy the
  /// SIMD layer's aligned-load contract). Charges the tracker (nullptr =
  /// untracked) and fails with OutOfMemory when over budget.
  static genbase::Result<std::unique_ptr<PlanArena>> Create(
      int64_t bytes, int64_t alignment, MemoryTracker* tracker);

  unsigned char* base() { return base_; }
  const unsigned char* base() const { return base_; }
  int64_t size() const { return size_; }
  int64_t alignment() const { return alignment_; }
  /// Bytes charged to the tracker: the rounded size plus alignment slack.
  int64_t reserved_bytes() const { return size_ + alignment_; }

  PlanArena(const PlanArena&) = delete;
  PlanArena& operator=(const PlanArena&) = delete;

 private:
  PlanArena(std::unique_ptr<unsigned char[]> storage, unsigned char* base,
            int64_t size, int64_t alignment,
            ScopedReservation reservation)
      : storage_(std::move(storage)),
        base_(base),
        size_(size),
        alignment_(alignment),
        reservation_(std::move(reservation)) {}

  std::unique_ptr<unsigned char[]> storage_;
  unsigned char* base_;
  int64_t size_;
  int64_t alignment_;
  ScopedReservation reservation_;
};

}  // namespace genbase::plan

#endif  // GENBASE_PLAN_ARENA_H_
