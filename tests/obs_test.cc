#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace genbase::obs {
namespace {

// --- metrics registry --------------------------------------------------------

TEST(MetricKeyTest, CanonicalizesLabelOrder) {
  EXPECT_EQ(MetricKey("m", {}), "m");
  EXPECT_EQ(MetricKey("m", {{"b", "2"}, {"a", "1"}}),
            MetricKey("m", {{"a", "1"}, {"b", "2"}}));
  EXPECT_EQ(MetricKey("m", {{"a", "1"}, {"b", "2"}}),
            "m{a=\"1\",b=\"2\"}");
}

TEST(MetricsRegistryTest, SameKeyReturnsSameInstrument) {
  auto& reg = MetricsRegistry::Global();
  Counter* a = reg.GetCounter("obs_test_same_key", {{"k", "v"}});
  Counter* b = reg.GetCounter("obs_test_same_key", {{"k", "v"}});
  Counter* c = reg.GetCounter("obs_test_same_key", {{"k", "other"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Inc(3);
  EXPECT_EQ(b->Value(), 3);
  EXPECT_EQ(c->Value(), 0);
}

TEST(MetricsRegistryTest, SnapshotAndExportersContainInstruments) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("obs_test_export_counter")->Inc(7);
  reg.GetGauge("obs_test_export_gauge")->Set(2.5);
  reg.GetHistogram("obs_test_export_hist")->Observe(0.010);

  bool saw_counter = false;
  for (const MetricSample& s : reg.Snapshot()) {
    if (s.name == "obs_test_export_counter") {
      saw_counter = true;
      EXPECT_EQ(static_cast<int64_t>(s.value), 7);
    }
  }
  EXPECT_TRUE(saw_counter);

  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"obs_test_export_counter\":7"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_export_hist\""), std::string::npos);
}

// The lock-free hot path: counters and histogram buckets are plain relaxed
// atomics, so under concurrency the *counts* must still be exact (this is
// also the test to run under -fsanitize=thread to validate the claim that
// the instrument hot path has no data races — it passes functionally by
// exactness either way).
TEST(MetricsRegistryTest, ConcurrentUpdatesAreExact) {
  auto& reg = MetricsRegistry::Global();
  Counter* counter = reg.GetCounter("obs_test_concurrent_counter");
  Histogram* hist = reg.GetHistogram("obs_test_concurrent_hist");
  Gauge* peak = reg.GetGauge("obs_test_concurrent_peak");

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Inc();
        hist->Observe((t + 1) * 1e-3);
        peak->SetMax(t + 1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(snap.min, 1e-3);
  EXPECT_DOUBLE_EQ(snap.max, kThreads * 1e-3);
  EXPECT_DOUBLE_EQ(peak->Value(), kThreads);
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  Histogram h;
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 0.0);
}

TEST(HistogramTest, QuantileExtremesExactMiddleBucketed) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Observe(i * 1e-3);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1000);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 1e-3);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 1.0);
  EXPECT_NEAR(snap.Quantile(0.5), 0.5, 0.5 * 0.06);
  EXPECT_NEAR(snap.Quantile(0.99), 0.99, 0.99 * 0.06);
}

// --- metrics window ------------------------------------------------------------

/// Each case registers its own instance, so registrations from other cases
/// in this process never leak into its window.
Labels Instance(const std::string& id) { return {{"instance", id}}; }

TEST(MetricsWindowTest, CountersSubtract) {
  const std::string id = MetricsRegistry::NextInstanceId("window");
  Counter* c = MetricsRegistry::Global().GetCounter("window_test_ops_total",
                                                    Instance(id));
  c->Inc(5);
  MetricsWindow window({id});
  c->Inc(3);
  window.Stop();
  EXPECT_EQ(window.Change("window_test_ops_total"), 3);
  EXPECT_EQ(window.End("window_test_ops_total"), 8);
}

TEST(MetricsWindowTest, InstrumentRegisteredInsideTheWindowCountsFromZero) {
  const std::string id = MetricsRegistry::NextInstanceId("window");
  MetricsWindow window({id});
  MetricsRegistry::Global()
      .GetCounter("window_test_late_total", Instance(id))
      ->Inc(4);
  window.Stop();
  EXPECT_TRUE(window.Has("window_test_late_total"));
  EXPECT_EQ(window.Change("window_test_late_total"), 4);
}

TEST(MetricsWindowTest, EndReadsAGaugeAtStop) {
  const std::string id = MetricsRegistry::NextInstanceId("window");
  Gauge* g = MetricsRegistry::Global().GetGauge("window_test_level",
                                                Instance(id));
  g->Set(10);
  MetricsWindow window({id});
  g->Set(7);
  window.Stop();
  g->Set(1);  // After Stop: not seen.
  EXPECT_EQ(window.End("window_test_level"), 7);
}

TEST(MetricsWindowTest, ChangeReadsAnAccumulatingGauge) {
  const std::string id = MetricsRegistry::NextInstanceId("window");
  Gauge* g = MetricsRegistry::Global().GetGauge("window_test_busy_seconds",
                                                Instance(id));
  g->Add(1.5);
  MetricsWindow window({id});
  g->Add(2.25);
  window.Stop();
  EXPECT_DOUBLE_EQ(window.Change("window_test_busy_seconds"), 2.25);
}

TEST(MetricsWindowTest, OutOfScopeInstanceIsIgnored) {
  auto& reg = MetricsRegistry::Global();
  const std::string in = MetricsRegistry::NextInstanceId("window");
  const std::string out = MetricsRegistry::NextInstanceId("window");
  Counter* mine = reg.GetCounter("window_test_scoped_total", Instance(in));
  Counter* other = reg.GetCounter("window_test_scoped_total", Instance(out));
  // No instance label: process-wide, always in scope.
  Counter* global = reg.GetCounter("window_test_process_total");
  MetricsWindow window({in});
  mine->Inc(2);
  other->Inc(100);
  global->Inc(3);
  window.Stop();
  EXPECT_EQ(window.Change("window_test_scoped_total"), 2);
  EXPECT_EQ(window.Change("window_test_process_total"), 3);
  // A name registered only under another instance is not in the window.
  reg.GetCounter("window_test_foreign_total", Instance(out));
  MetricsWindow scoped({in});
  scoped.Stop();
  EXPECT_FALSE(scoped.Has("window_test_foreign_total"));
}

TEST(MetricsWindowTest, LabelSubsetsSumAndLabelValuesAreNumeric) {
  const std::string id = MetricsRegistry::NextInstanceId("window");
  MetricsWindow window({id});
  for (const char* shard : {"10", "2", "1"}) {
    MetricsRegistry::Global()
        .GetCounter("window_test_shard_ops_total",
                    {{"instance", id}, {"shard", shard}})
        ->Inc(std::stoi(shard));
  }
  window.Stop();
  EXPECT_EQ(window.LabelValues("window_test_shard_ops_total", "shard"),
            (std::vector<std::string>{"1", "2", "10"}));
  EXPECT_EQ(window.Change("window_test_shard_ops_total", {{"shard", "10"}}),
            10);
  EXPECT_EQ(window.Change("window_test_shard_ops_total"), 13);
  EXPECT_TRUE(window.LabelValues("window_test_shard_ops_total", "class")
                  .empty());
}

TEST(MetricsWindowDeathTest, ReadingAnUnregisteredNameDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  MetricsWindow window({MetricsRegistry::NextInstanceId("window")});
  window.Stop();
  EXPECT_FALSE(window.Has("window_test_misspelt_total"));
  EXPECT_DEATH(window.Change("window_test_misspelt_total"),
               "cannot read 'window_test_misspelt_total'");
}

// --- trace ids + sampling ----------------------------------------------------

TEST(TraceSamplingTest, TraceIdsAreDeterministic) {
  const uint64_t a = RequestTraceId(42, "serving-mix", 7);
  EXPECT_EQ(a, RequestTraceId(42, "serving-mix", 7));
  EXPECT_NE(a, RequestTraceId(42, "serving-mix", 8));
  EXPECT_NE(a, RequestTraceId(43, "serving-mix", 7));
  EXPECT_NE(a, RequestTraceId(42, "churn-mix", 7));
  EXPECT_NE(a, 0u);  // 0 is reserved for "no trace installed".
}

TEST(TraceSamplingTest, SamplingIsDeterministicAndRateBounded) {
  const uint64_t id = RequestTraceId(1, "w", 1);
  EXPECT_FALSE(TraceSampled(id, 0.0));
  EXPECT_TRUE(TraceSampled(id, 1.0));
  EXPECT_EQ(TraceSampled(id, 0.01), TraceSampled(id, 0.01));

  int sampled = 0;
  constexpr int kIds = 20000;
  for (int i = 0; i < kIds; ++i) {
    if (TraceSampled(RequestTraceId(42, "w", i), 0.01)) ++sampled;
  }
  // E[sampled] = 200, sd ~14; a 6-sigma band will not flake.
  EXPECT_GT(sampled, 100);
  EXPECT_LT(sampled, 300);
}

// --- spans -------------------------------------------------------------------

TEST(ScopedSpanTest, NestingSetsParentIds) {
  Tracer& tracer = Tracer::Global();
  tracer.TakeCollected();  // Start from a drained ring.
  constexpr uint64_t kTrace = 0xabcdefULL;
  {
    ScopedTrace trace(kTrace, /*sampled=*/true);
    ScopedSpan request("request");
    ASSERT_TRUE(request.active());
    {
      ScopedSpan execute("execute");
      ASSERT_TRUE(execute.active());
      EmitChildSpan("analytics", 0.0, 0.1, "phase");
    }
  }
  std::vector<Span> spans;
  for (const Span& s : tracer.TakeCollected()) {
    if (s.trace_id == kTrace) spans.push_back(s);
  }
  ASSERT_EQ(spans.size(), 3u);
  // Recorded innermost-first: the emitted child, then execute, then request.
  const Span& analytics = spans[0];
  const Span& execute = spans[1];
  const Span& request = spans[2];
  EXPECT_STREQ(analytics.name, "analytics");
  EXPECT_STREQ(execute.name, "execute");
  EXPECT_STREQ(request.name, "request");
  EXPECT_EQ(request.parent_id, 0u);
  EXPECT_EQ(execute.parent_id, request.span_id);
  EXPECT_EQ(analytics.parent_id, execute.span_id);
  EXPECT_STREQ(analytics.detail, "phase");
  EXPECT_GE(execute.start_s, request.start_s);
}

TEST(ScopedSpanTest, UnsampledTraceRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.TakeCollected();
  constexpr uint64_t kTrace = 0xdeadULL;
  {
    ScopedTrace trace(kTrace, /*sampled=*/false);
    ScopedSpan request("request");
    EXPECT_FALSE(request.active());
    EmitChildSpan("execute", 0.0, 0.1);
  }
  for (const Span& s : tracer.TakeCollected()) {
    EXPECT_NE(s.trace_id, kTrace);
  }
}

TEST(TracerTest, FullRingDropsAndCountsInsteadOfBlocking) {
  Tracer& tracer = Tracer::Global();
  tracer.TakeCollected();  // Ring starts empty.
  const int64_t dropped_before = tracer.spans_dropped();
  constexpr uint64_t kTrace = 0xf100dULL;
  constexpr size_t kOverflow = 100;
  {
    ScopedTrace trace(kTrace, /*sampled=*/true);
    for (size_t i = 0; i < Tracer::kRingCapacity + kOverflow; ++i) {
      EmitChildSpan("spam", 0.0, 0.0);
    }
  }
  EXPECT_EQ(tracer.spans_dropped() - dropped_before,
            static_cast<int64_t>(kOverflow));
  size_t kept = 0;
  for (const Span& s : tracer.TakeCollected()) {
    if (s.trace_id == kTrace) ++kept;
  }
  EXPECT_EQ(kept, Tracer::kRingCapacity);
}

TEST(TracerTest, CollectDrainsSpansFromOtherThreads) {
  Tracer& tracer = Tracer::Global();
  tracer.TakeCollected();
  constexpr uint64_t kTrace = 0x7417ULL;
  std::thread worker([&] {
    ScopedTrace trace(kTrace, /*sampled=*/true);
    ScopedSpan span("request");
  });
  worker.join();
  size_t found = 0;
  for (const Span& s : tracer.TakeCollected()) {
    if (s.trace_id == kTrace) ++found;
  }
  EXPECT_EQ(found, 1u);
}

// --- exporters ---------------------------------------------------------------

TEST(TraceExportTest, ChromeTraceJsonShape) {
  Span span;
  span.trace_id = 0x1234;
  span.span_id = 1;
  span.name = "request";
  span.start_s = 0.5;
  span.dur_s = 0.25;
  span.tid = 3;
  span.synthetic = true;
  span.SetDetail("regression/v0");
  const std::string json = ChromeTraceJson({span});
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":500000.000000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":250000.000000"), std::string::npos);
  EXPECT_NE(json.find("\"synthetic\":true"), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"regression/v0\""), std::string::npos);
  // Trace ids are hex strings: 64-bit values exceed JSON exact integers.
  EXPECT_NE(json.find("\"trace_id\":\"0000000000001234\""),
            std::string::npos);
}

TEST(TraceExportTest, SlowQueryJsonlOneLinePerRecord) {
  SlowQueryRecord rec;
  rec.trace_id = 5;
  rec.workload = "serving-mix";
  rec.query = "svd";
  rec.stages[RequestStage::kQueue] = 0.001;
  rec.stages[RequestStage::kExecute] = 0.040;
  rec.shed = true;
  const std::string jsonl = SlowQueryJsonl({rec, rec});
  size_t lines = 0;
  for (char c : jsonl) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(jsonl.find("\"workload\":\"serving-mix\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"queue\":0.001000"), std::string::npos);
  EXPECT_NE(jsonl.find("\"execute\":0.040000"), std::string::npos);
  EXPECT_NE(jsonl.find("\"shed\":true"), std::string::npos);
  EXPECT_NE(jsonl.find("\"slowest\":false"), std::string::npos);
}

// --- exporter round-trips ----------------------------------------------------
// The emitted artifacts are parsed back with the in-repo JSON parser: shape
// regressions (a missing comma, an unquoted value) fail here instead of in
// a downstream trace viewer.

TEST(TraceExportRoundTripTest, ChromeTraceParsesWithContainment) {
  Tracer& tracer = Tracer::Global();
  tracer.TakeCollected();
  constexpr uint64_t kTrace = 0x0cabULL;
  {
    ScopedTrace trace(kTrace, /*sampled=*/true);
    ScopedSpan request("request");
    {
      ScopedSpan execute("execute");
      volatile double sink = 0;
      for (int i = 0; i < 10000; ++i) sink += i;
    }
  }
  std::vector<Span> spans;
  for (const Span& s : tracer.TakeCollected()) {
    if (s.trace_id == kTrace) spans.push_back(s);
  }
  ASSERT_EQ(spans.size(), 2u);

  const std::string stamp =
      "{\"git_sha\":\"abc\",\"kernel_backend\":\"simd\","
      "\"timestamp\":\"2026-08-08T00:00:00Z\"}";
  auto parsed = json::Parse(ChromeTraceJson(spans, stamp));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value doc = std::move(parsed).ValueOrDie();
  const json::Value* metadata = doc.Find("metadata");
  ASSERT_NE(metadata, nullptr);
  EXPECT_EQ(metadata->StringOr("git_sha", ""), "abc");
  const json::Value* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);

  // Locate request/execute by name; check ts monotonicity and containment:
  // the child must start at or after its parent and end within it.
  const json::Value* request = nullptr;
  const json::Value* execute = nullptr;
  for (const json::Value& e : events->array) {
    ASSERT_TRUE(e.is_object());
    EXPECT_EQ(e.StringOr("ph", ""), "X");
    EXPECT_GE(e.NumberOr("ts", -1), 0.0);
    EXPECT_GE(e.NumberOr("dur", -1), 0.0);
    const std::string name = e.StringOr("name", "");
    if (name == "request") request = &e;
    if (name == "execute") execute = &e;
  }
  ASSERT_NE(request, nullptr);
  ASSERT_NE(execute, nullptr);
  const double req_ts = request->NumberOr("ts", 0);
  const double req_end = req_ts + request->NumberOr("dur", 0);
  const double exec_ts = execute->NumberOr("ts", 0);
  const double exec_end = exec_ts + execute->NumberOr("dur", 0);
  constexpr double kSlackUs = 1.0;  // Double round-trip through the text.
  EXPECT_GE(exec_ts, req_ts - kSlackUs);
  EXPECT_LE(exec_end, req_end + kSlackUs);
}

TEST(TraceExportRoundTripTest, SlowQueryJsonlParsesPerLine) {
  SlowQueryRecord with_cpu;
  with_cpu.trace_id = 7;
  with_cpu.workload = "serving-mix";
  with_cpu.query = "regression";
  with_cpu.latency_s = 0.050;
  with_cpu.stages[RequestStage::kQueue] = 0.010;
  with_cpu.stages[RequestStage::kExecute] = 0.030;
  with_cpu.stages.Cpu(RequestStage::kExecute) = 0.025;
  with_cpu.alloc_delta_bytes = 4096;
  with_cpu.deadline_missed = true;

  SlowQueryRecord without_cpu;
  without_cpu.trace_id = 8;
  without_cpu.workload = "serving-mix";
  without_cpu.query = "svd";
  without_cpu.stages[RequestStage::kExecute] = 0.020;
  without_cpu.slowest = true;  // alloc_delta_bytes stays -1 (unknown).

  const std::string jsonl = SlowQueryJsonl({with_cpu, without_cpu});
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t i = 0; i < jsonl.size(); ++i) {
    if (jsonl[i] == '\n') {
      lines.push_back(jsonl.substr(start, i - start));
      start = i + 1;
    }
  }
  ASSERT_EQ(lines.size(), 2u);

  // The JSONL schema, pinned key by key and in order: readers of the log
  // (and diffs between two runs' logs) depend on it.
  using Names = std::vector<std::string>;
  const auto keys = [](const json::Value& object) {
    Names names;
    for (const auto& member : object.object) names.push_back(member.first);
    return names;
  };
  const Names stage_names{"queue",    "cache",   "flight",
                          "dispatch", "execute", "verify"};

  auto first = json::Parse(lines[0]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const json::Value rec = std::move(first).ValueOrDie();
  EXPECT_EQ(keys(rec),
            (Names{"trace_id", "workload", "query", "variant", "class_id",
                   "start_s", "latency_s", "stages_s", "stages_cpu_s",
                   "alloc_delta_bytes", "shed", "stale_tripwire",
                   "deadline_missed", "verify_failed", "retries",
                   "slowest"}));
  const json::Value* stages = rec.Find("stages_s");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(keys(*stages), stage_names);
  EXPECT_NEAR(stages->NumberOr("execute", 0), 0.030, 1e-9);
  const json::Value* cpu = rec.Find("stages_cpu_s");
  ASSERT_NE(cpu, nullptr);
  EXPECT_EQ(keys(*cpu), stage_names);
  EXPECT_NEAR(cpu->NumberOr("execute", 0), 0.025, 1e-9);
  const json::Value* alloc = rec.Find("alloc_delta_bytes");
  ASSERT_NE(alloc, nullptr);
  EXPECT_TRUE(alloc->is_number());
  EXPECT_EQ(alloc->number, 4096.0);

  auto second = json::Parse(lines[1]);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const json::Value rec2 = std::move(second).ValueOrDie();
  EXPECT_EQ(keys(rec2),
            (Names{"trace_id", "workload", "query", "variant", "class_id",
                   "start_s", "latency_s", "stages_s", "alloc_delta_bytes",
                   "shed", "stale_tripwire", "deadline_missed",
                   "verify_failed", "retries", "slowest"}));
  // No CPU attribution recorded -> the object is absent entirely, and the
  // unknown alloc delta round-trips as null, not -1.
  EXPECT_EQ(rec2.Find("stages_cpu_s"), nullptr);
  const json::Value* alloc2 = rec2.Find("alloc_delta_bytes");
  ASSERT_NE(alloc2, nullptr);
  EXPECT_TRUE(alloc2->is_null());
}

// --- folded stacks -----------------------------------------------------------

Span MakeSpan(uint64_t span_id, uint64_t parent_id, const char* name,
              double start_s, double dur_s) {
  Span s;
  s.trace_id = 0x1;
  s.span_id = span_id;
  s.parent_id = parent_id;
  s.name = name;
  s.start_s = start_s;
  s.dur_s = dur_s;
  return s;
}

TEST(FoldedStacksTest, SelfTimeExcludesChildren) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "request", 0.0, 0.001000),
      MakeSpan(2, 1, "execute", 0.0002, 0.000600),
      MakeSpan(3, 2, "analytics", 0.0003, 0.000400),
  };
  const std::string folded = FoldedStacks(spans);
  EXPECT_NE(folded.find("request 400\n"), std::string::npos);
  EXPECT_NE(folded.find("request;execute 200\n"), std::string::npos);
  EXPECT_NE(folded.find("request;execute;analytics 400\n"),
            std::string::npos);
  // Self times reconstruct the root total exactly: 400+200+400 = 1000us.
}

TEST(FoldedStacksTest, MissingParentStartsNewRoot) {
  const std::vector<Span> spans = {
      MakeSpan(9, 77, "orphan", 0.0, 0.000100),
  };
  const std::string folded = FoldedStacks(spans);
  EXPECT_EQ(folded, "orphan 100\n");
}

TEST(FoldedStacksTest, ZeroSelfTimeOmitted) {
  // The parent is fully covered by its child: zero self time, no line.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "wrapper", 0.0, 0.000500),
      MakeSpan(2, 1, "work", 0.0, 0.000500),
  };
  const std::string folded = FoldedStacks(spans);
  EXPECT_EQ(folded.find("wrapper "), std::string::npos);
  EXPECT_NE(folded.find("wrapper;work 500\n"), std::string::npos);
}

TEST(FoldedStacksTest, EmptyInputEmptyOutput) {
  EXPECT_EQ(FoldedStacks({}), "");
}

}  // namespace
}  // namespace genbase::obs
