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
  if (cache_hit != nullptr) *cache_hit = false;
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    if (key.epoch > epoch_) {
      plans_.clear();  // Every plan is keyed to the older epoch_.
      epoch_ = key.epoch;
      ++evictions_;
    }
    if (key.epoch < epoch_) {
      // A straggler on an evicted epoch: serve it, but never re-cache it.
      lock.unlock();
      return compile();
    }
    auto it = plans_.find(key);
    if (it != plans_.end()) {
      if (cache_hit != nullptr) *cache_hit = true;
      return it->second;
    }
    Flights::Ticket ticket = flights_.Join(key);
    const uint64_t evictions = evictions_;
    lock.unlock();

    if (ticket.leader()) {
      auto result = compile();
      if (result.ok()) {
        lock.lock();
        // A newer epoch or Clear() evicted this key mid-compile: the plan
        // still answers this flight, but must not re-enter the cache.
        if (evictions_ == evictions) plans_.emplace(key, *result);
        lock.unlock();
        ticket.Publish(*result);
      }
      // A failed compile's ticket closes unpublished: its waiters retry.
      return result;
    }
    std::shared_ptr<CompiledPlan> plan;
    if (ticket.Wait(std::nullopt, &plan) == Flights::WaitResult::kServed) {
      if (cache_hit != nullptr) *cache_hit = true;
      return plan;
    }
  }
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  plans_.clear();
  ++evictions_;
}

int64_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(plans_.size());
}

}  // namespace genbase::plan
