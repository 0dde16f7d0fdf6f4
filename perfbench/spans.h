#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// Attribute names of the span kinds that carry program-reported seconds;
/// a span's values are read against the table it was recorded with.
inline constexpr int kMaxAttrs = 8;
using AttrNames = std::array<const char*, kMaxAttrs>;
using AttrValues = std::array<double, kMaxAttrs>;
extern const AttrNames kNoAttrs;
/// core::CellResult phase seconds.
extern const AttrNames kCellAttrs;
/// serving::ServeResult stage seconds and outcome.
extern const AttrNames kServeAttrs;

/// One span recorded by the benchmark around a call it makes. `name` points
/// at a string literal. Times are nanoseconds since the log's anchor.
struct SpanRecord {
  const char* name = "";
  uint64_t request = 0;  ///< 0 outside a request (reloads, probes).
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  const AttrNames* attr_names = &kNoAttrs;
  AttrValues attrs{};
};

/// Per-name totals: a layer's self time is its spans' time minus the time
/// their child spans cover.
struct SpanTotals {
  std::string name;
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// \brief The traced run's span recorder, one per thread. Parents are
/// opened and closed on a stack; leaves are recorded with the timestamps
/// the caller already took around the call, so tracing reads no extra
/// clocks inside the measured call. Totals cover every span; the stored
/// spans are capped so a million-op run stays bounded, and are written out
/// after the run.
class SpanLog {
 public:
  SpanLog(uint32_t thread, Clock::time_point anchor, size_t capacity);

  /// Opens a parent span starting at `start`; returns its id.
  uint64_t Open(const char* name, uint64_t request, Clock::time_point start);
  /// Closes the innermost open span at `end`.
  void Close(Clock::time_point end);
  /// Records a finished child of the innermost open span (or a root span
  /// when none is open).
  void Leaf(const char* name, uint64_t request, Clock::time_point start,
            Clock::time_point end, const AttrNames& names = kNoAttrs,
            const AttrValues& values = {});

  const std::vector<SpanRecord>& spans() const { return spans_; }
  int64_t dropped() const { return dropped_; }
  const std::vector<SpanTotals>& totals() const { return totals_; }

 private:
  struct OpenSpan {
    SpanRecord rec;
    int64_t child_ns = 0;
  };
  void Finish(const SpanRecord& rec, int64_t child_ns);
  int64_t Ns(Clock::time_point t) const;

  uint32_t thread_;
  Clock::time_point anchor_;
  size_t capacity_;
  uint64_t next_id_ = 1;
  std::vector<OpenSpan> open_;
  std::vector<SpanRecord> spans_;
  int64_t dropped_ = 0;
  std::vector<SpanTotals> totals_;
};

/// Writes every stored span and the merged totals as one JSON document.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
