#include "serving/admission.h"

#include <algorithm>
#include <cmath>

#include "common/timer.h"

namespace genbase::serving {

const char* AdmissionOutcomeName(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kAdmitted:
      return "admitted";
    case AdmissionOutcome::kShedQueueFull:
      return "shed/queue-full";
    case AdmissionOutcome::kShedTimeout:
      return "shed/timeout";
  }
  return "?";
}

int AdaptiveNextLimit(const AdmissionOptions& options, int current_limit,
                      double mean_service_s, double queue_len_ewma,
                      int64_t shed_pressure) {
  const int lo = std::max(1, options.min_inflight);
  const int hi = std::max(lo, options.max_inflight_cap);
  if (mean_service_s <= 0) return std::clamp(current_limit, lo, hi);
  // Little's law target: enough slots that the observed backlog drains
  // within the target delay.
  const double needed = queue_len_ewma * mean_service_s /
                        std::max(options.target_queue_delay_s, 1e-9);
  const int wanted = static_cast<int>(std::ceil(needed));
  // Move at most a quarter of the current limit per step: the inputs are
  // EWMAs of a bursty process, and chasing them at full stride oscillates.
  const int step = std::max(1, current_limit / 4);
  int next = current_limit;
  if (wanted > current_limit) {
    next = current_limit + std::min(step, wanted - current_limit);
  } else if (wanted < current_limit) {
    next = current_limit - std::min(step, current_limit - wanted);
  }
  // Arrivals shed queue-full mean demand beyond what the limit-scaled
  // queue can even show the delay term: do not shrink into known
  // shedding, probe up instead.
  if (shed_pressure > 0) next = std::max(next, current_limit + 1);
  return std::clamp(next, lo, hi);
}

AdmissionController::AdmissionController(AdmissionOptions options,
                                         const std::string& instance)
    : options_(options),
      instance_(instance),
      // Adaptive mode starts low and probes up: under-admitting briefly at
      // startup only queues work, while over-admitting puts every service
      // time past target before the first adjustment can react.
      limit_(options.adaptive ? std::max(1, options.min_inflight)
                              : options.max_inflight) {
  auto& reg = obs::MetricsRegistry::Global();
  const obs::Labels labels{{"instance", instance_}};
  admitted_ = reg.GetCounter("serving_admission_admitted_total", labels);
  shed_queue_full_ =
      reg.GetCounter("serving_admission_shed_queue_full_total", labels);
  shed_timeout_ =
      reg.GetCounter("serving_admission_shed_timeout_total", labels);
  shed_brownout_ =
      reg.GetCounter("serving_admission_shed_brownout_total", labels);
  peak_queue_gauge_ = reg.GetGauge("serving_admission_peak_queue", labels);
  limit_gauge_ = reg.GetGauge("serving_admission_limit", labels);
  limit_gauge_->Set(limit_);
}

obs::Counter* AdmissionController::ShedCounterLocked(int class_id) {
  auto it = shed_by_class_.find(class_id);
  if (it == shed_by_class_.end()) {
    it = shed_by_class_
             .emplace(class_id,
                      obs::MetricsRegistry::Global().GetCounter(
                          "serving_admission_shed_total",
                          {{"instance", instance_},
                           {"class", std::to_string(class_id)}}))
             .first;
  }
  return it->second;
}

bool AdmissionController::IsHeavyLocked(int class_id) const {
  if (!options_.adaptive) return false;
  // The classification is the *streak*, not the instantaneous ratio: a
  // class acts heavy only after kHeavyStreak consecutive completions
  // above the threshold (hysteresis). The streak is maintained in Release,
  // where the EWMAs update.
  auto it = classes_.find(class_id);
  return it != classes_.end() && it->second.heavy_streak >= kHeavyStreak;
}

bool AdmissionController::SampleRatioHeavyLocked(int class_id,
                                                 double sample_s) const {
  // Judges one fresh (winsorized) sample against the cheapest peer's EWMA.
  // The streak deliberately consumes samples, not the class's own EWMA: an
  // EWMA inflated by a stall burst stays above the threshold for several
  // completions while it decays, which would feed the streak exactly the
  // consecutive hits the hysteresis exists to demand. A normal-speed
  // sample resets the streak instantly; only genuinely sustained slowness
  // keeps it growing.
  //
  // The ratio needs evidence: the class itself and a cheapest peer must
  // both have settled EWMAs, otherwise everything is (optimistically)
  // cheap and the first runs teach the model.
  constexpr int64_t kMinCompletions = 3;
  auto it = classes_.find(class_id);
  if (it == classes_.end() || it->second.completions < kMinCompletions) {
    return false;
  }
  double min_ewma = 0.0;
  bool have_min = false;
  for (const auto& [id, stat] : classes_) {
    if (id == class_id || stat.completions < kMinCompletions) continue;
    if (!have_min || stat.service_ewma_s < min_ewma) {
      min_ewma = stat.service_ewma_s;
      have_min = true;
    }
  }
  return have_min && min_ewma > 0 &&
         sample_s > kHeavyServiceFactor * min_ewma;
}

int AdmissionController::HeavyCapLocked() const {
  const double factor = capacity_factor_.load(std::memory_order_relaxed);
  const int cap =
      static_cast<int>(limit_ * kHeavyShare * std::clamp(factor, 0.0, 1.0));
  // Above the brown-out threshold heavy classes always keep one slot (mild
  // degradation shrinks the cap proportionally at most); in a brown-out
  // the cap may shrink to zero — heavy arrivals are then shed on arrival
  // (see Admit) so cheap traffic inherits the surviving capacity.
  return factor >= kBrownoutShedFactor ? std::max(1, cap) : std::max(0, cap);
}

int AdmissionController::MaxQueueLocked() const {
  if (options_.max_queue > 0) return options_.max_queue;
  return options_.adaptive ? 2 * limit_ : 0;
}

bool AdmissionController::CanStartLocked(bool heavy) const {
  if (inflight_ >= limit_) return false;
  return !heavy || heavy_inflight_ < HeavyCapLocked();
}

AdmissionOutcome AdmissionController::Admit(
    std::optional<std::chrono::steady_clock::time_point> start_deadline,
    double* waited_s, int class_id, bool* admitted_heavy) {
  if (waited_s != nullptr) *waited_s = 0.0;
  if (admitted_heavy != nullptr) *admitted_heavy = false;
  if (!enabled()) return AdmissionOutcome::kAdmitted;

  const auto expired = [&start_deadline] {
    return start_deadline.has_value() &&
           std::chrono::steady_clock::now() >= *start_deadline;
  };

  WallTimer timer;
  std::unique_lock<std::mutex> lock(mu_);
  // Backlog sample for the target-delay controller: the queue depth this
  // arrival finds ahead of it.
  queue_ewma_ += kEwmaAlpha * (waiting_ - queue_ewma_);
  // A stale arrival is shed outright — free slot or not. The deadline
  // models the instant the op's client gave up; executing past it would be
  // wasted work counted as goodput.
  if (expired()) {
    shed_timeout_->Inc();
    ShedCounterLocked(class_id)->Inc();
    return AdmissionOutcome::kShedTimeout;
  }
  // Heaviness is decided on arrival and kept for this op's whole admission
  // (slot accounting must be symmetric with Release even if the class is
  // reclassified mid-wait).
  const bool heavy = IsHeavyLocked(class_id);
  if (!CanStartLocked(heavy)) {
    // Brown-out: with the fleet meaningfully degraded (factor below the
    // engagement threshold — the same bar that may zero the heavy cap), a
    // heavy arrival that cannot start is shed immediately rather than
    // queued — queueing it would make it compete with cheap ops for the
    // shrunken capacity, which is exactly the priority inversion graceful
    // degradation exists to prevent. Milder degradation keeps the normal
    // queueing path: the cap shrinks proportionally, nothing cliffs.
    if (heavy &&
        capacity_factor_.load(std::memory_order_relaxed) <
            kBrownoutShedFactor) {
      shed_queue_full_->Inc();
      shed_brownout_->Inc();
      ShedCounterLocked(class_id)->Inc();
      ++sheds_since_adjust_;
      return AdmissionOutcome::kShedQueueFull;
    }
    if (waiting_ >= MaxQueueLocked()) {
      shed_queue_full_->Inc();
      ShedCounterLocked(class_id)->Inc();
      ++sheds_since_adjust_;
      return AdmissionOutcome::kShedQueueFull;
    }
    ++waiting_;
    peak_queue_gauge_->SetMax(waiting_);
    while (!CanStartLocked(heavy) && !expired()) {
      if (start_deadline.has_value()) {
        slot_free_.wait_until(lock, *start_deadline);
      } else {
        slot_free_.wait(lock);
      }
    }
    --waiting_;
    if (waited_s != nullptr) *waited_s = timer.Seconds();
    // Shed if the start deadline passed in queue — even when a slot freed
    // in the same instant, the client is already gone.
    if (!CanStartLocked(heavy) || expired()) {
      shed_timeout_->Inc();
      ShedCounterLocked(class_id)->Inc();
      // If this waiter consumed a Release() wakeup and then shed on its own
      // deadline, capacity may still be free — pass the wakeup along so
      // another waiter is not left sleeping next to idle capacity.
      const bool capacity_free = inflight_ < limit_;
      lock.unlock();
      if (capacity_free) slot_free_.notify_all();
      return AdmissionOutcome::kShedTimeout;
    }
  }
  ++inflight_;
  if (heavy) ++heavy_inflight_;
  if (admitted_heavy != nullptr) *admitted_heavy = heavy;
  admitted_->Inc();
  return AdmissionOutcome::kAdmitted;
}

void AdmissionController::Release(int class_id, double service_s,
                                  bool was_heavy) {
  if (!enabled()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
    if (was_heavy) --heavy_inflight_;
    if (service_s >= 0) {
      // Winsorized updates: a sample contributes at most
      // kServiceOutlierCap x the current estimate, so one scheduler-stall
      // outlier cannot reclassify a class or collapse the adaptive limit;
      // sustained slowness still compounds through the cap.
      ClassStat& stat = classes_[class_id];
      double sample = service_s;
      if (stat.completions > 0 && stat.service_ewma_s > 0) {
        sample = std::min(sample, kServiceOutlierCap * stat.service_ewma_s);
      }
      stat.service_ewma_s =
          stat.completions == 0
              ? sample
              : stat.service_ewma_s +
                    kEwmaAlpha * (sample - stat.service_ewma_s);
      ++stat.completions;
      double global_sample = service_s;
      if (service_samples_ > 0 && service_ewma_s_ > 0) {
        global_sample =
            std::min(global_sample, kServiceOutlierCap * service_ewma_s_);
      }
      service_ewma_s_ =
          service_samples_ == 0
              ? global_sample
              : service_ewma_s_ +
                    kEwmaAlpha * (global_sample - service_ewma_s_);
      ++service_samples_;
      // Hysteresis input: consecutive above-threshold samples.
      stat.heavy_streak =
          SampleRatioHeavyLocked(class_id, sample) ? stat.heavy_streak + 1
                                                   : 0;
    }
    if (options_.adaptive &&
        ++completions_since_adjust_ >= std::max(1, options_.adjust_interval)) {
      completions_since_adjust_ = 0;
      limit_ = AdaptiveNextLimit(options_, limit_, service_ewma_s_,
                                 queue_ewma_, sheds_since_adjust_);
      sheds_since_adjust_ = 0;
      limit_gauge_->Set(limit_);
    }
  }
  // notify_all, not notify_one: with per-class slot shares, the runnable
  // waiter is not necessarily the one a single wakeup lands on (a heavy
  // waiter may still be capped while a cheap one could start).
  slot_free_.notify_all();
}

void AdmissionController::SetCapacityFactor(double factor) {
  factor = std::clamp(factor, 0.0, 1.0);
  const double prev = capacity_factor_.exchange(factor,
                                                std::memory_order_relaxed);
  // Recovering capacity can unblock heavy waiters whose cap just grew back.
  if (factor > prev) slot_free_.notify_all();
}

int AdmissionController::current_limit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return limit_;
}

bool AdmissionController::IsHeavyClass(int class_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return IsHeavyLocked(class_id);
}

double AdmissionController::ClassServiceEwma(int class_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = classes_.find(class_id);
  return it == classes_.end() ? 0.0 : it->second.service_ewma_s;
}

}  // namespace genbase::serving
