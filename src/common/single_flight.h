#ifndef GENBASE_COMMON_SINGLE_FLIGHT_H_
#define GENBASE_COMMON_SINGLE_FLIGHT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace genbase {

/// \brief Coalesces concurrent identical work on one key into a single
/// computation — the cache-stampede defense. The first Join on a key opens
/// a flight and gets the leader's ticket; every Join on the key while the
/// flight is open gets a follower's ticket, which waits for the leader's
/// value instead of redoing the work.
///
/// A leader's ticket publishes exactly once: through Publish(value), or as
/// a failure when it is destroyed unpublished, so no exit path of a leader
/// can strand its followers. Publishing closes the flight to new joiners
/// (the next Join on the key opens a fresh one) and wakes every follower.
/// What a follower does after a failed leader or a passed deadline is the
/// caller's policy. The table must outlive its tickets.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class SingleFlight {
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::optional<Value> value;  ///< Empty if the leader failed.
  };

 public:
  /// Outcome of a follower's wait.
  enum class WaitResult {
    kServed,        ///< The leader published a value (copied to *out).
    kLeaderFailed,  ///< The leader's ticket closed without publishing.
    kTimeout,       ///< The deadline passed before the leader finished.
  };

  /// One Join's membership in a flight. Move-only.
  class Ticket {
   public:
    Ticket(Ticket&&) noexcept = default;  // The source keeps no flight.

    ~Ticket() {
      if (leader_ && flight_ != nullptr) Close(std::nullopt);
    }

    bool leader() const { return leader_; }

    /// Leader only, at most once: hands `value` to every follower.
    void Publish(Value value) {
      GENBASE_CHECK(leader_ && flight_ != nullptr);
      Close(std::move(value));
    }

    /// Follower only: blocks until the leader publishes or fails, bounded
    /// by `deadline` when set. On kServed the value is copied into `out`
    /// (if non-null).
    WaitResult Wait(
        std::optional<std::chrono::steady_clock::time_point> deadline,
        Value* out) const {
      GENBASE_CHECK(!leader_);
      Flight& f = *flight_;
      std::unique_lock<std::mutex> lock(f.mu);
      const auto done = [&f] { return f.done; };
      if (!deadline.has_value()) {
        f.cv.wait(lock, done);
      } else if (!f.cv.wait_until(lock, *deadline, done)) {
        return WaitResult::kTimeout;
      }
      if (!f.value.has_value()) return WaitResult::kLeaderFailed;
      if (out != nullptr) *out = *f.value;
      return WaitResult::kServed;
    }

   private:
    friend class SingleFlight;

    Ticket(SingleFlight* table, const Key& key, std::shared_ptr<Flight> flight,
           bool leader)
        : table_(table), key_(key), flight_(std::move(flight)),
          leader_(leader) {}

    /// Closes the flight to new joiners, then wakes its followers. An empty
    /// `value` is a failure.
    void Close(std::optional<Value> value) {
      const std::shared_ptr<Flight> flight = std::move(flight_);
      {
        std::lock_guard<std::mutex> lock(table_->mu_);
        auto it = table_->flights_.find(key_);
        // Only a flight's leader erases it, once: the entry is still ours.
        GENBASE_CHECK(it != table_->flights_.end() && it->second == flight);
        table_->flights_.erase(it);
      }
      {
        std::lock_guard<std::mutex> lock(flight->mu);
        flight->done = true;
        flight->value = std::move(value);
      }
      flight->cv.notify_all();
    }

    SingleFlight* table_;
    Key key_;
    /// Shared with the table entry and every follower, so followers keep
    /// the flight after its leader closed it. Null once a leader closed.
    std::shared_ptr<Flight> flight_;
    bool leader_;
  };

  /// Joins the open flight for `key` as a follower, or opens one and leads
  /// it.
  Ticket Join(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Flight>& flight = flights_[key];
    const bool leader = flight == nullptr;
    if (leader) flight = std::make_shared<Flight>();
    return Ticket(this, key, flight, leader);
  }

  /// Flights open right now (for tests).
  int64_t open_flights() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(flights_.size());
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<Key, std::shared_ptr<Flight>, Hash> flights_;
};

}  // namespace genbase

#endif  // GENBASE_COMMON_SINGLE_FLIGHT_H_
