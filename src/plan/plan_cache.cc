#include "plan/plan_cache.h"

#include <utility>

namespace genbase::plan {

// Tripwire: if PlanKey changes shape, re-audit PlanKeyHash and every place
// a key is built. (QueryParams coverage is ShapeFingerprint's tripwire, in
// plan_builder.cc.)
static_assert(sizeof(PlanKey) == 24,
              "PlanKey changed: re-audit PlanKeyHash, operator== and all "
              "key-construction sites");

genbase::Result<std::shared_ptr<CompiledPlan>> PlanCache::GetOrCompile(
    const PlanKey& key, const Compiler& compile, bool* cache_hit) {
  for (;;) {
    std::shared_ptr<Slot> slot;
    bool leader = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (key.epoch > epoch_) {
        slots_.clear();  // Every slot is keyed to the older epoch_.
        epoch_ = key.epoch;
      }
      if (key.epoch == epoch_) {
        auto it = slots_.find(key);
        if (it == slots_.end()) {
          slot = std::make_shared<Slot>();
          slots_.emplace(key, slot);
          leader = true;
        } else {
          slot = it->second;
        }
      }
    }
    if (slot == nullptr) {
      // A straggler on an evicted epoch: serve it, but never re-cache it.
      if (cache_hit != nullptr) *cache_hit = false;
      return compile();
    }
    if (leader) {
      auto result = compile();
      {
        std::lock_guard<std::mutex> lock(slot->mu);
        if (result.ok()) slot->plan = *result;
        slot->done = true;
      }
      if (!result.ok()) {
        // Release the slot so the next requester retries the compile.
        std::lock_guard<std::mutex> lock(mu_);
        auto it = slots_.find(key);
        if (it != slots_.end() && it->second == slot) slots_.erase(it);
      }
      slot->cv.notify_all();
      if (cache_hit != nullptr) *cache_hit = false;
      return result;
    }
    {
      std::unique_lock<std::mutex> lock(slot->mu);
      slot->cv.wait(lock, [&slot] { return slot->done; });
      if (slot->plan != nullptr) {
        if (cache_hit != nullptr) *cache_hit = true;
        return slot->plan;
      }
    }
    // Leader failed and released the slot; loop to retry (possibly
    // becoming the new leader).
  }
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
}

int64_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(slots_.size());
}

}  // namespace genbase::plan
