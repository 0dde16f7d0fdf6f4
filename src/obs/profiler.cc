#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/timer.h"
#include "obs/metrics.h"

#if defined(__linux__)
#include <unistd.h>

#include <cstdio>
#endif

namespace genbase::obs {

namespace {

bool EnabledFromEnv() {
  const char* env = std::getenv("GENBASE_PROFILE");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag{EnabledFromEnv()};
  return flag;
}

/// Thread-CPU seconds on CLOCK_THREAD_CPUTIME_ID, or -1 when profiling is
/// off.
double CpuBegin() {
  return Profiler::Enabled() ? ThreadCpuTimer::Now() : -1.0;
}

}  // namespace

bool Profiler::Enabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

void Profiler::SetEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

int64_t ReadRssBytes() {
#if defined(__linux__)
  // /proc/self/statm: "size resident shared text lib data dt", in pages.
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long long size_pages = 0;
  long long resident_pages = 0;
  const int matched = std::fscanf(f, "%lld %lld", &size_pages, &resident_pages);
  std::fclose(f);
  if (matched != 2) return -1;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<int64_t>(resident_pages) *
         static_cast<int64_t>(page > 0 ? page : 4096);
#else
  return -1;
#endif
}

int64_t SampleProcessRss() {
  const int64_t rss = ReadRssBytes();
  if (rss < 0) return rss;
  static Gauge* current =
      MetricsRegistry::Global().GetGauge("process_rss_bytes", {});
  static Gauge* peak =
      MetricsRegistry::Global().GetGauge("process_peak_rss_bytes", {});
  current->Set(static_cast<double>(rss));
  peak->SetMax(static_cast<double>(rss));
  return rss;
}

namespace {

/// The execute-stage hardware-counter totals, process-wide registry
/// counters registered on first use.
struct ExecutePerfCounters {
  Counter* cycles;
  Counter* instructions;
  Counter* cache_references;
  Counter* cache_misses;
  Counter* branch_misses;
  Counter* scopes;
};

const ExecutePerfCounters& PerfTotals() {
  static const ExecutePerfCounters totals = [] {
    auto& reg = MetricsRegistry::Global();
    return ExecutePerfCounters{
        reg.GetCounter("execute_perf_cycles_total"),
        reg.GetCounter("execute_perf_instructions_total"),
        reg.GetCounter("execute_perf_cache_references_total"),
        reg.GetCounter("execute_perf_cache_misses_total"),
        reg.GetCounter("execute_perf_branch_misses_total"),
        reg.GetCounter("execute_perf_scopes_total")};
  }();
  return totals;
}

}  // namespace

PerfReading ExecutePerf(const MetricsWindow& window, int64_t* scopes) {
  PerfReading r;
  *scopes = 0;
  // The counters register with the first scope that reads valid hardware
  // counters; a window from before then has nothing to read.
  if (!window.Has("execute_perf_scopes_total")) return r;
  const auto change = [&window](const char* name) {
    return static_cast<int64_t>(window.Change(name));
  };
  *scopes = change("execute_perf_scopes_total");
  r.valid = *scopes > 0;
  r.cycles = change("execute_perf_cycles_total");
  r.instructions = change("execute_perf_instructions_total");
  r.cache_references = change("execute_perf_cache_references_total");
  r.cache_misses = change("execute_perf_cache_misses_total");
  r.branch_misses = change("execute_perf_branch_misses_total");
  return r;
}

ScopedExecutePerf::ScopedExecutePerf() {
  if (!Profiler::Enabled()) return;
  PerfCounterSet* set = ThreadPerfCounters();
  if (!set->available()) return;
  begin_ = set->Read();
  active_ = begin_.valid;
}

ScopedExecutePerf::~ScopedExecutePerf() {
  if (!active_) return;
  const PerfReading end = ThreadPerfCounters()->Read();
  if (!end.valid) return;
  const PerfReading d = end - begin_;
  const ExecutePerfCounters& totals = PerfTotals();
  totals.cycles->Inc(d.cycles);
  totals.instructions->Inc(d.instructions);
  totals.cache_references->Inc(d.cache_references);
  totals.cache_misses->Inc(d.cache_misses);
  totals.branch_misses->Inc(d.branch_misses);
  totals.scopes->Inc();
}

StageScope::StageScope(RequestStage stage, StageSeconds* stages)
    : span_(RequestStageName(stage)),
      cpu_s_(&stages->Cpu(stage)) {
  if (stage == RequestStage::kExecute) perf_.emplace();
  cpu_begin_ = CpuBegin();
}

StageScope::~StageScope() {
  if (cpu_begin_ >= 0.0) {
    *cpu_s_ += std::max(0.0, ThreadCpuTimer::Now() - cpu_begin_);
  }
}

void StageScope::EmitPhases(double dm_s, double analytics_s, double glue_s) {
  if (!span_.active()) return;
  const double start_s = span_.start_s();
  const double data_s = std::max(0.0, dm_s - glue_s);
  EmitChildSpan("data_management", start_s, data_s);
  EmitChildSpan("analytics", start_s + data_s, analytics_s);
  EmitChildSpan("glue", start_s + data_s + analytics_s, glue_s);
}

}  // namespace genbase::obs
