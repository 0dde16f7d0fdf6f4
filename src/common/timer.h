#ifndef GENBASE_COMMON_TIMER_H_
#define GENBASE_COMMON_TIMER_H_

#include <chrono>
#include <ctime>

namespace genbase {

/// \brief Wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = std::chrono::steady_clock::now(); }

  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// \brief Per-thread CPU-time stopwatch. The cluster simulator times each
/// virtual node's local work with this clock so that scheduling two virtual
/// nodes onto one physical core does not inflate their reported compute time.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() { Restart(); }

  void Restart() { start_ = Now(); }

  double Seconds() const { return Now() - start_; }

  static double Now() {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
  }

 private:
  double start_;
};

}  // namespace genbase

#endif  // GENBASE_COMMON_TIMER_H_
