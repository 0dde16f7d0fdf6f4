#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>

#include "common/rng.h"

namespace genbase::obs {

const char* RequestStageName(RequestStage stage) {
  switch (stage) {
    case RequestStage::kQueue:
      return "queue";
    case RequestStage::kCache:
      return "cache";
    case RequestStage::kFlight:
      return "flight";
    case RequestStage::kDispatch:
      return "dispatch";
    case RequestStage::kExecute:
      return "execute";
    case RequestStage::kVerify:
      return "verify";
    case RequestStage::kNumRequestStages:
      break;
  }
  return "?";
}

uint64_t RequestTraceId(uint64_t seed, std::string_view workload,
                        uint64_t index) {
  const uint64_t id = SplitMix64(SeedFromTag(workload, seed, index));
  return id == 0 ? 1 : id;  // 0 means "no trace installed".
}

bool TraceSampled(uint64_t trace_id, double rate) {
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  // Re-mix so sampling is independent of any other use of the raw id.
  const double u = (SplitMix64(trace_id ^ 0x6f62735f74726163ULL) >> 11) *
                   0x1.0p-53;
  return u < rate;
}

/// Thread-local trace context + span ring. Defined at namespace scope so
/// the friend declaration in Tracer resolves to this type.
struct TracerTls {
  uint64_t trace_id = 0;
  uint64_t next_span_id = 0;
  uint64_t current_parent = 0;
  bool sampled = false;
  Tracer::Ring* ring = nullptr;

  ~TracerTls() {
    if (ring != nullptr) {
      // Hand the ring back to the pool; undrained spans stay in place and
      // are picked up by the next Collect().
      ring->in_use.store(false, std::memory_order_release);
    }
  }
};

namespace {
thread_local TracerTls g_tls;
}  // namespace

Tracer::Tracer()
    : anchor_(std::chrono::steady_clock::now()),
      spans_recorded_(
          MetricsRegistry::Global().GetCounter("trace_spans_recorded_total")),
      spans_dropped_(
          MetricsRegistry::Global().GetCounter("trace_spans_dropped_total")) {
  if (const char* env = std::getenv("GENBASE_TRACE_SAMPLE")) {
    char* end = nullptr;
    const double rate = std::strtod(env, &end);
    if (end != env) set_sample_rate(rate);
  }
}

Tracer& Tracer::Global() {
  // lint:allow(raw-new-delete): leaked process singleton — TLS ring destructors run after main() and must find it alive
  static auto* tracer = new Tracer();
  return *tracer;
}

void Tracer::set_sample_rate(double rate) {
  sample_rate_.store(std::clamp(rate, 0.0, 1.0), std::memory_order_relaxed);
}

double Tracer::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       anchor_)
      .count();
}

uint32_t Tracer::ThreadOrdinal() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

Tracer::Ring* Tracer::AcquireRing() {
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (auto& ring : rings_) {
    bool expected = false;
    if (ring->in_use.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
      return ring.get();
    }
  }
  rings_.push_back(std::make_unique<Ring>());
  rings_.back()->in_use.store(true, std::memory_order_release);
  return rings_.back().get();
}

void Tracer::Record(const Span& span) {
  if (g_tls.ring == nullptr) g_tls.ring = AcquireRing();
  Ring* ring = g_tls.ring;
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  const uint64_t tail = ring->tail.load(std::memory_order_acquire);
  if (head - tail >= kRingCapacity) {
    spans_dropped_->Inc();
    return;
  }
  ring->slots[head & (kRingCapacity - 1)] = span;
  ring->head.store(head + 1, std::memory_order_release);
  spans_recorded_->Inc();
}

void Tracer::DrainRing(Ring* ring) {
  const uint64_t head = ring->head.load(std::memory_order_acquire);
  uint64_t tail = ring->tail.load(std::memory_order_relaxed);
  for (; tail != head; ++tail) {
    collected_.push_back(ring->slots[tail & (kRingCapacity - 1)]);
  }
  ring->tail.store(tail, std::memory_order_release);
}

size_t Tracer::Collect() {
  std::vector<Ring*> rings;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    rings.reserve(rings_.size());
    for (auto& ring : rings_) rings.push_back(ring.get());
  }
  std::lock_guard<std::mutex> lock(collect_mu_);
  const size_t before = collected_.size();
  for (Ring* ring : rings) DrainRing(ring);
  return collected_.size() - before;
}

std::vector<Span> Tracer::TakeCollected() {
  Collect();
  std::lock_guard<std::mutex> lock(collect_mu_);
  std::vector<Span> out = std::move(collected_);
  collected_.clear();
  return out;
}

void Tracer::LogSlowQuery(SlowQueryRecord record) {
  std::lock_guard<std::mutex> lock(collect_mu_);
  slow_queries_.push_back(std::move(record));
}

std::vector<SlowQueryRecord> Tracer::TakeSlowQueries() {
  std::lock_guard<std::mutex> lock(collect_mu_);
  std::vector<SlowQueryRecord> out = std::move(slow_queries_);
  slow_queries_.clear();
  return out;
}

ScopedTrace::ScopedTrace(uint64_t trace_id, bool sampled)
    : saved_trace_id_(g_tls.trace_id),
      saved_parent_(g_tls.current_parent),
      saved_next_span_id_(g_tls.next_span_id),
      saved_sampled_(g_tls.sampled) {
  g_tls.trace_id = trace_id;
  g_tls.current_parent = 0;
  g_tls.next_span_id = 0;
  g_tls.sampled = sampled;
}

ScopedTrace::~ScopedTrace() {
  g_tls.trace_id = saved_trace_id_;
  g_tls.current_parent = saved_parent_;
  g_tls.next_span_id = saved_next_span_id_;
  g_tls.sampled = saved_sampled_;
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!g_tls.sampled) return;
  active_ = true;
  name_ = name;
  start_s_ = Tracer::Global().NowSeconds();
  span_id_ = ++g_tls.next_span_id;
  parent_id_ = g_tls.current_parent;
  g_tls.current_parent = span_id_;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  g_tls.current_parent = parent_id_;
  Span span;
  span.trace_id = g_tls.trace_id;
  span.span_id = span_id_;
  span.parent_id = parent_id_;
  span.name = name_;
  span.start_s = start_s_;
  span.dur_s = Tracer::Global().NowSeconds() - start_s_;
  span.tid = Tracer::ThreadOrdinal();
  std::memcpy(span.detail, detail_.detail, sizeof(span.detail));
  Tracer::Global().Record(span);
}

void EmitChildSpan(const char* name, double start_s, double dur_s,
                   std::string_view detail) {
  if (!g_tls.sampled) return;
  Span span;
  span.trace_id = g_tls.trace_id;
  span.span_id = ++g_tls.next_span_id;
  span.parent_id = g_tls.current_parent;
  span.name = name;
  span.start_s = start_s;
  span.dur_s = dur_s;
  span.tid = Tracer::ThreadOrdinal();
  span.SetDetail(detail);
  Tracer::Global().Record(span);
}

}  // namespace genbase::obs
