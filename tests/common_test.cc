#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <thread>

#include "common/csv.h"
#include "common/exec_context.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/memory_tracker.h"
#include "common/rng.h"
#include "common/single_flight.h"
#include "common/spill.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace genbase {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::OutOfMemory("boom");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsOutOfMemory());
  EXPECT_TRUE(s.IsResourceFailure());
  EXPECT_EQ(s.ToString(), "OutOfMemory: boom");
}

TEST(StatusTest, DeadlineIsResourceFailure) {
  EXPECT_TRUE(Status::DeadlineExceeded("t").IsResourceFailure());
  EXPECT_FALSE(Status::Internal("x").IsResourceFailure());
  EXPECT_FALSE(Status::IOError("x").IsResourceFailure());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> ReturnsEarly(bool fail) {
  GENBASE_ASSIGN_OR_RETURN(int v, [&]() -> Result<int> {
    if (fail) return Status::Internal("inner");
    return 7;
  }());
  return v + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*ReturnsEarly(false), 8);
  EXPECT_EQ(ReturnsEarly(true).status().code(), StatusCode::kInternal);
}

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) differing += a.Next() != b.Next();
  EXPECT_GT(differing, 12);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, SeedFromTagIsStableAndSensitive) {
  EXPECT_EQ(SeedFromTag("abc", 1, 2), SeedFromTag("abc", 1, 2));
  EXPECT_NE(SeedFromTag("abc", 1, 2), SeedFromTag("abd", 1, 2));
  EXPECT_NE(SeedFromTag("abc", 1, 2), SeedFromTag("abc", 2, 2));
  EXPECT_NE(SeedFromTag("abc", 1, 2), SeedFromTag("abc", 1, 3));
}

// --- MemoryTracker -------------------------------------------------------------

TEST(MemoryTrackerTest, EnforcesBudget) {
  MemoryTracker t(100, "test");
  EXPECT_TRUE(t.Reserve(60).ok());
  EXPECT_TRUE(t.Reserve(40).ok());
  Status s = t.Reserve(1);
  EXPECT_TRUE(s.IsOutOfMemory());
  t.Release(50);
  EXPECT_TRUE(t.Reserve(50).ok());
}

TEST(MemoryTrackerTest, TracksPeak) {
  MemoryTracker t(1000);
  ASSERT_TRUE(t.Reserve(700).ok());
  t.Release(500);
  ASSERT_TRUE(t.Reserve(100).ok());
  EXPECT_EQ(t.peak(), 700);
  EXPECT_EQ(t.used(), 300);
}

TEST(MemoryTrackerTest, ScopedReservationReleases) {
  MemoryTracker t(100);
  {
    auto r = ScopedReservation::Acquire(&t, 80);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(t.used(), 80);
  }
  EXPECT_EQ(t.used(), 0);
}

TEST(MemoryTrackerTest, ScopedReservationNullTrackerIsNoop) {
  auto r = ScopedReservation::Acquire(nullptr, 1 << 30);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bytes(), 0);
}

TEST(MemoryTrackerTest, FailedAcquireLeavesNoCharge) {
  MemoryTracker t(10);
  auto r = ScopedReservation::Acquire(&t, 100);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(t.used(), 0);
}

// --- ThreadPool ----------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  int sum = 0;
  pool.ParallelFor(0, 10, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(5, 5, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SubmitAndWait) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 50);
}

// --- SingleFlight ------------------------------------------------------------

using IntFlights = SingleFlight<int, std::string>;

TEST(SingleFlightTest, FirstJoinLeadsFollowersAreServed) {
  IntFlights flights;
  IntFlights::Ticket leader = flights.Join(7);
  ASSERT_TRUE(leader.leader());
  IntFlights::Ticket follower = flights.Join(7);
  ASSERT_FALSE(follower.leader());
  EXPECT_EQ(flights.open_flights(), 1);

  std::string served;
  std::thread waiter([&] {
    ASSERT_EQ(follower.Wait(std::nullopt, &served),
              IntFlights::WaitResult::kServed);
  });
  leader.Publish("result 7");
  waiter.join();
  EXPECT_EQ(served, "result 7");
  // The flight closed: the next miss on the key opens a fresh one.
  EXPECT_EQ(flights.open_flights(), 0);
  EXPECT_TRUE(flights.Join(7).leader());
}

TEST(SingleFlightTest, FailedLeaderAndDeadlineAreDistinguished) {
  IntFlights flights;
  std::optional<IntFlights::Ticket> leader(flights.Join(8));
  ASSERT_TRUE(leader->leader());
  IntFlights::Ticket follower = flights.Join(8);
  ASSERT_FALSE(follower.leader());

  // Deadline passes before any publish.
  EXPECT_EQ(follower.Wait(std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(10),
                          nullptr),
            IntFlights::WaitResult::kTimeout);

  leader.reset();
  EXPECT_EQ(follower.Wait(std::nullopt, nullptr),
            IntFlights::WaitResult::kLeaderFailed);
}

TEST(SingleFlightTest, LeaderDestroyedUnpublishedWakesFollowersAsFailed) {
  IntFlights flights;
  std::optional<IntFlights::Ticket> leader(flights.Join(9));
  ASSERT_TRUE(leader->leader());
  IntFlights::Ticket follower = flights.Join(9);
  ASSERT_FALSE(follower.leader());

  std::atomic<bool> started{false};
  std::optional<IntFlights::WaitResult> result;
  std::thread waiter([&] {
    started.store(true);
    result = follower.Wait(std::nullopt, nullptr);
  });
  while (!started.load()) std::this_thread::yield();
  // Give the follower time to block, so the close has a waiter to wake.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  leader.reset();  // An error path that never reaches Publish.
  waiter.join();
  EXPECT_EQ(result, IntFlights::WaitResult::kLeaderFailed);
  EXPECT_EQ(flights.open_flights(), 0);
  EXPECT_TRUE(flights.Join(9).leader());
}

// --- ExecContext ------------------------------------------------------------

TEST(ExecContextTest, NoDeadlineMeansOk) {
  ExecContext ctx;
  EXPECT_TRUE(ctx.CheckBudgets().ok());
}

TEST(ExecContextTest, ExpiredDeadlineFails) {
  ExecContext ctx;
  ctx.SetDeadlineAfter(-0.001);
  EXPECT_TRUE(ctx.CheckBudgets().IsDeadlineExceeded());
}

TEST(ExecContextTest, CancellationWins) {
  ExecContext ctx;
  ctx.Cancel();
  EXPECT_EQ(ctx.CheckBudgets().code(), StatusCode::kCancelled);
}

TEST(ExecContextTest, PhaseClockSeparatesMeasuredAndModeled) {
  ExecContext ctx;
  ctx.clock().AddMeasured(Phase::kDataManagement, 1.0);
  ctx.clock().AddVirtual(Phase::kDataManagement, 2.0);
  ctx.clock().AddMeasured(Phase::kAnalytics, 0.5);
  EXPECT_DOUBLE_EQ(ctx.clock().measured(Phase::kDataManagement), 1.0);
  EXPECT_DOUBLE_EQ(ctx.clock().modeled(Phase::kDataManagement), 2.0);
  EXPECT_DOUBLE_EQ(ctx.clock().total(Phase::kDataManagement), 3.0);
  EXPECT_DOUBLE_EQ(ctx.clock().grand_total(), 3.5);
}

TEST(ExecContextTest, ScopedPhaseAccumulates) {
  ExecContext ctx;
  { ScopedPhase p(&ctx, Phase::kGlue); }
  { ScopedPhase p(&ctx, Phase::kGlue); }
  EXPECT_GE(ctx.clock().measured(Phase::kGlue), 0.0);
}

TEST(ExecContextTest, NestedScopedPhasesAreExclusive) {
  const auto nap = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  };
  ExecContext ctx;
  WallTimer wall;
  {
    ScopedPhase dm(&ctx, Phase::kDataManagement);
    nap();
    {
      ScopedPhase an(&ctx, Phase::kAnalytics);
      nap();
      {
        ScopedPhase glue(&ctx, Phase::kGlue);
        nap();
      }
      nap();
    }
    nap();
  }
  const double outer_wall = wall.Seconds();
  const PhaseClock& c = ctx.clock();
  EXPECT_GE(c.measured(Phase::kDataManagement), 0.030);
  EXPECT_GE(c.measured(Phase::kAnalytics), 0.030);
  EXPECT_GE(c.measured(Phase::kGlue), 0.015);
  // Each second lands in exactly one phase: the outer scope excludes the
  // inner ones, so the phases never sum past the outer wall time.
  EXPECT_LE(c.grand_total(), outer_wall);
  EXPECT_LE(c.measured(Phase::kDataManagement),
            outer_wall - c.measured(Phase::kAnalytics) -
                c.measured(Phase::kGlue));
  // Closing the inner scopes restored the chain: a new scope nests nowhere.
  { ScopedPhase again(&ctx, Phase::kGlue); }
  EXPECT_LE(c.grand_total(), wall.Seconds());
}

// --- CSV -----------------------------------------------------------------------

TEST(CsvTest, MatrixRoundTripExact) {
  const std::vector<double> values = {1.0, -2.5, 3.141592653589793,
                                      1e-300, 1e300, 0.1};
  const std::string text = CsvCodec::WriteMatrix(values.data(), 2, 3);
  int64_t rows = 0, cols = 0;
  std::vector<double> parsed;
  ASSERT_TRUE(CsvCodec::ParseMatrix(text, &rows, &cols, &parsed).ok());
  EXPECT_EQ(rows, 2);
  EXPECT_EQ(cols, 3);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(parsed[i], values[i]) << "value " << i << " not exact";
  }
}

TEST(CsvTest, RejectsRaggedRows) {
  int64_t rows, cols;
  std::vector<double> parsed;
  EXPECT_FALSE(CsvCodec::ParseMatrix("1,2\n3\n", &rows, &cols, &parsed).ok());
}

TEST(CsvTest, RejectsGarbage) {
  int64_t rows, cols;
  std::vector<double> parsed;
  EXPECT_FALSE(
      CsvCodec::ParseMatrix("1,abc\n", &rows, &cols, &parsed).ok());
}

TEST(CsvTest, EmptyInputIsEmptyMatrix) {
  int64_t rows, cols;
  std::vector<double> parsed;
  ASSERT_TRUE(CsvCodec::ParseMatrix("", &rows, &cols, &parsed).ok());
  EXPECT_EQ(rows, 0);
}

TEST(CsvTest, WriteColumnsInterleaves) {
  const std::vector<int64_t> ids = {1, 2};
  const std::vector<double> vals = {0.5, 1.5};
  const std::string text = CsvCodec::WriteColumns({vals.data()},
                                                  {ids.data()}, 2);
  EXPECT_EQ(text, "1,0.5\n2,1.5\n");
}

// --- SpillFile -------------------------------------------------------------------

TEST(SpillFileTest, RoundTripDoubles) {
  auto file = SpillFile::Create();
  ASSERT_TRUE(file.ok());
  std::vector<double> data(1000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = i * 0.25;
  ASSERT_TRUE(file->WriteDoubles(data.data(), 1000).ok());
  ASSERT_TRUE(file->FinishWrite().ok());
  std::vector<double> back(1000);
  ASSERT_TRUE(file->ReadDoubles(back.data(), 1000).ok());
  EXPECT_EQ(back, data);
}

TEST(SpillFileTest, RewindAllowsRereading) {
  auto file = SpillFile::Create();
  ASSERT_TRUE(file.ok());
  const int64_t v = 99;
  ASSERT_TRUE(file->WriteInts(&v, 1).ok());
  ASSERT_TRUE(file->FinishWrite().ok());
  int64_t a = 0, b = 0;
  ASSERT_TRUE(file->ReadInts(&a, 1).ok());
  ASSERT_TRUE(file->Rewind().ok());
  ASSERT_TRUE(file->ReadInts(&b, 1).ok());
  EXPECT_EQ(a, 99);
  EXPECT_EQ(b, 99);
}

TEST(SpillFileTest, ReadPastEndFails) {
  auto file = SpillFile::Create();
  ASSERT_TRUE(file.ok());
  const int64_t v = 1;
  ASSERT_TRUE(file->WriteInts(&v, 1).ok());
  ASSERT_TRUE(file->FinishWrite().ok());
  int64_t out[2];
  EXPECT_FALSE(file->ReadInts(out, 2).ok());
}

TEST(SpillFileTest, ReadBeforeFinishFails) {
  auto file = SpillFile::Create();
  ASSERT_TRUE(file.ok());
  int64_t out;
  EXPECT_FALSE(file->ReadInts(&out, 1).ok());
}

TEST(SpillFileTest, DiscardRemovesBackingFile) {
  auto file = SpillFile::Create();
  ASSERT_TRUE(file.ok());
  const std::string path = file->path();
  file->Discard();
  FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

// --- memory tracker gauges ---------------------------------------------------

TEST(MemoryTrackerTest, ReservedTotalIsMonotone) {
  MemoryTracker t(1000);
  ASSERT_TRUE(t.Reserve(400).ok());
  t.Release(400);
  ASSERT_TRUE(t.Reserve(300).ok());
  t.Release(300);
  // used() is back to zero, but the monotone counter saw both reservations —
  // this is what per-request alloc deltas are measured from.
  EXPECT_EQ(t.used(), 0);
  EXPECT_EQ(t.reserved_total(), 700);
  // Failed reservations don't count as activity.
  EXPECT_FALSE(t.Reserve(2000).ok());
  EXPECT_EQ(t.reserved_total(), 700);
}

TEST(MemoryTrackerTest, LabelledTrackerExportsGauges) {
  MemoryTracker t(4096, "gauge_probe");
  ASSERT_TRUE(t.Reserve(1024).ok());
  t.Release(256);
  double used = -1, peak = -1, budget = -1;
  for (const obs::MetricSample& s : obs::MetricsRegistry::Global().Snapshot()) {
    bool ours = false;
    for (const auto& [k, v] : s.labels) {
      if (k == "tracker" && v == "gauge_probe") ours = true;
    }
    if (!ours) continue;
    if (s.name == "memory_tracker_used_bytes") used = s.value;
    if (s.name == "memory_tracker_peak_bytes") peak = s.value;
    if (s.name == "memory_tracker_budget_bytes") budget = s.value;
  }
  EXPECT_EQ(used, 768);
  EXPECT_EQ(peak, 1024);
  EXPECT_EQ(budget, 4096);
}

// --- log rate limiting and log-to-metrics bridge -----------------------------

int64_t LevelCount(const char* name, const char* level) {
  return obs::MetricsRegistry::Global()
      .GetCounter(name, {{"level", level}})
      ->Value();
}

TEST(LoggingTest, WarningsFeedLogMessagesTotal) {
  const LogLevel saved = GlobalLogLevel();
  SetGlobalLogLevel(LogLevel::kWarning);
  const int64_t before = LevelCount("log_messages_total", "warning");
  GENBASE_LOG(Warning) << "bridge probe";
  EXPECT_EQ(LevelCount("log_messages_total", "warning"), before + 1);
  // A message below the threshold is dropped before the bridge.
  const int64_t info_before = LevelCount("log_messages_total", "info");
  GENBASE_LOG(Info) << "dropped";
  EXPECT_EQ(LevelCount("log_messages_total", "info"), info_before);
  SetGlobalLogLevel(saved);
}

TEST(LoggingTest, LogEveryNEmitsFirstAndEveryNth) {
  const LogLevel saved = GlobalLogLevel();
  SetGlobalLogLevel(LogLevel::kWarning);
  const int64_t emitted_before = LevelCount("log_messages_total", "warning");
  const int64_t supp_before =
      LevelCount("log_messages_suppressed_total", "warning");
  for (int i = 0; i < 10; ++i) {
    GENBASE_LOG_EVERY_N(Warning, 4) << "rate-limited probe " << i;
  }
  // Occurrences 0, 4 and 8 emit; the other seven are suppressed-but-counted.
  EXPECT_EQ(LevelCount("log_messages_total", "warning"), emitted_before + 3);
  EXPECT_EQ(LevelCount("log_messages_suppressed_total", "warning"),
            supp_before + 7);
  SetGlobalLogLevel(saved);
}

TEST(LoggingTest, LogEveryNBelowThresholdNeverTicks) {
  const LogLevel saved = GlobalLogLevel();
  SetGlobalLogLevel(LogLevel::kError);
  const int64_t supp_before =
      LevelCount("log_messages_suppressed_total", "warning");
  for (int i = 0; i < 5; ++i) {
    GENBASE_LOG_EVERY_N(Warning, 2) << "should not tick";
  }
  EXPECT_EQ(LevelCount("log_messages_suppressed_total", "warning"),
            supp_before);
  SetGlobalLogLevel(saved);
}

// --- json parser -------------------------------------------------------------

TEST(JsonTest, ParsesNestedDocument) {
  auto result = json::Parse(
      "{\"a\":1.5,\"b\":[1,2,{\"c\":\"x\"}],\"d\":{\"e\":null,"
      "\"f\":true},\"neg\":-2e3}");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const json::Value doc = std::move(result).ValueOrDie();
  EXPECT_EQ(doc.NumberOr("a", 0), 1.5);
  EXPECT_EQ(doc.NumberOr("neg", 0), -2000.0);
  const json::Value* b = doc.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_EQ(b->array[2].StringOr("c", ""), "x");
  const json::Value* d = doc.Find("d");
  ASSERT_NE(d, nullptr);
  ASSERT_NE(d->Find("e"), nullptr);
  EXPECT_TRUE(d->Find("e")->is_null());
  EXPECT_TRUE(d->Find("f")->boolean);
}

TEST(JsonTest, DecodesStringEscapes) {
  auto result = json::Parse("{\"s\":\"a\\n\\\"b\\\"\\u0041\"}");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::move(result).ValueOrDie().StringOr("s", ""), "a\n\"b\"A");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(json::Parse("").ok());
  EXPECT_FALSE(json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(json::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(json::Parse("[1,2] trailing").ok());
  EXPECT_FALSE(json::Parse("{'a':1}").ok());
  // Errors carry a byte offset for artifact debugging.
  auto bad = json::Parse("{\"a\":!}");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("offset"), std::string::npos);
}

TEST(JsonTest, LookupFallbacksOnWrongTypes) {
  auto result = json::Parse("{\"n\":\"not-a-number\",\"s\":42}");
  ASSERT_TRUE(result.ok());
  const json::Value doc = std::move(result).ValueOrDie();
  EXPECT_EQ(doc.NumberOr("n", -1), -1);
  EXPECT_EQ(doc.StringOr("s", "fallback"), "fallback");
  EXPECT_EQ(doc.NumberOr("missing", 7), 7);
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

}  // namespace
}  // namespace genbase
