#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/profiler.h"

namespace genbase::obs {
namespace {

/// Restores the process-global profiling switch around each test so suites
/// sharing the binary never observe each other's state.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = Profiler::Enabled(); }
  void TearDown() override { Profiler::SetEnabled(saved_); }
  bool saved_ = false;
};

TEST_F(ProfilerTest, DisabledStageScopeAddsNoCpu) {
  Profiler::SetEnabled(false);
  StageSeconds stages;
  {
    StageScope scope(RequestStage::kExecute, &stages);
    volatile double sink = 0;
    for (int i = 0; i < 2000000; ++i) sink += i * 1e-9;
  }
  EXPECT_EQ(stages.CpuSum(), 0.0);
  EXPECT_EQ(stages.Sum(), 0.0);
}

TEST_F(ProfilerTest, EnabledStageScopeAddsThreadCpuToItsStage) {
  Profiler::SetEnabled(true);
  StageSeconds stages;
  stages.Cpu(RequestStage::kVerify) = 1.0;
  {
    StageScope scope(RequestStage::kVerify, &stages);
    // Burn a little CPU so the delta is strictly positive even on coarse
    // clocks.
    volatile double sink = 0;
    for (int i = 0; i < 2000000; ++i) sink += i * 1e-9;
  }
  // Added to what the stage held; no other stage and no wall time touched.
  const double delta = stages.Cpu(RequestStage::kVerify) - 1.0;
  EXPECT_GT(delta, 0.0);
  EXPECT_LT(delta, 60.0);  // Sanity: seconds, not nanoseconds.
  EXPECT_EQ(stages.CpuSum(), stages.Cpu(RequestStage::kVerify));
  EXPECT_EQ(stages.Sum(), 0.0);
}

TEST_F(ProfilerTest, SetEnabledToggles) {
  Profiler::SetEnabled(true);
  EXPECT_TRUE(Profiler::Enabled());
  Profiler::SetEnabled(false);
  EXPECT_FALSE(Profiler::Enabled());
}

TEST_F(ProfilerTest, RssReadableOnLinux) {
#if defined(__linux__)
  const int64_t rss = ReadRssBytes();
  EXPECT_GT(rss, 0);
  // A test binary holds at least a page and at most ~terabytes.
  EXPECT_LT(rss, int64_t{1} << 42);
#else
  EXPECT_EQ(ReadRssBytes(), -1);
#endif
}

TEST_F(ProfilerTest, SampleProcessRssPublishesGauges) {
  const int64_t sampled = SampleProcessRss();
  if (sampled < 0) GTEST_SKIP() << "RSS unavailable on this platform";
  auto& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.GetGauge("process_rss_bytes", {})->Value(), sampled);
  EXPECT_GE(registry.GetGauge("process_peak_rss_bytes", {})->Value(),
            sampled);
  // Peak is a high-water mark: a second sample never lowers it.
  const int64_t peak =
      registry.GetGauge("process_peak_rss_bytes", {})->Value();
  SampleProcessRss();
  EXPECT_GE(registry.GetGauge("process_peak_rss_bytes", {})->Value(), peak);
}

TEST_F(ProfilerTest, PerfCountersDegradeGracefully) {
  // Whatever the host allows (perf_event_paranoid, missing PMU), opening
  // and reading must never crash or error: either the set is available and
  // reads are valid, or it is unavailable and reads are invalid.
  PerfCounterSet* set = ThreadPerfCounters();
  ASSERT_NE(set, nullptr);
  const PerfReading reading = set->Read();
  EXPECT_EQ(reading.valid, set->available());
  if (reading.valid) {
    EXPECT_GE(reading.cycles, 0);
    EXPECT_GE(reading.instructions, 0);
  } else {
    EXPECT_EQ(reading.ipc(), 0.0);
    EXPECT_EQ(reading.cache_miss_rate(), 0.0);
  }
}

TEST_F(ProfilerTest, InvalidPerfReadingSerializesAsNulls) {
  const PerfReading invalid;
  const std::string json = invalid.ToJson();
  EXPECT_NE(json.find("\"cycles\":null"), std::string::npos);
  EXPECT_NE(json.find("\"ipc\":null"), std::string::npos);
}

TEST_F(ProfilerTest, ExecutePerfScopeAccumulatesOrStaysSilent) {
  Profiler::SetEnabled(true);
  MetricsWindow window(std::vector<std::string>{});
  {
    ScopedExecutePerf scope;
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink += i;
  }
  window.Stop();
  int64_t scopes = -1;
  const PerfReading delta = ExecutePerf(window, &scopes);
  if (ThreadPerfCounters()->available()) {
    EXPECT_EQ(scopes, 1);
    EXPECT_TRUE(delta.valid);
    EXPECT_GT(delta.cycles, 0);
    EXPECT_GT(delta.instructions, 0);
  } else {
    EXPECT_EQ(scopes, 0);
    EXPECT_FALSE(delta.valid);
  }
}

TEST_F(ProfilerTest, ExecutePerfScopeInertWhenDisabled) {
  Profiler::SetEnabled(false);
  MetricsWindow window(std::vector<std::string>{});
  {
    ScopedExecutePerf scope;
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink += i;
  }
  window.Stop();
  int64_t scopes = -1;
  const PerfReading delta = ExecutePerf(window, &scopes);
  EXPECT_EQ(scopes, 0);
  EXPECT_FALSE(delta.valid);
}

}  // namespace
}  // namespace genbase::obs
