#include "spans.h"

#include <cstdio>
#include <map>

namespace perfbench {

const AttrNames kNoAttrs{};
const AttrNames kCellAttrs{"dm_s", "analytics_s", "glue_s", "modeled_s"};
const AttrNames kServeAttrs{"cache_s", "dispatch_s", "execute_s", "queue_s",
                            "flight_s", "modeled_s", "hit", "shard"};

SpanLog::SpanLog(uint32_t thread, Clock::time_point anchor, size_t capacity)
    : thread_(thread), anchor_(anchor), capacity_(capacity) {}

int64_t SpanLog::Ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - anchor_)
      .count();
}

uint64_t SpanLog::Open(const char* name, uint64_t request,
                       Clock::time_point start) {
  OpenSpan o;
  o.rec.name = name;
  o.rec.request = request;
  o.rec.id = (uint64_t{thread_} << 40) | next_id_++;
  o.rec.parent = open_.empty() ? 0 : open_.back().rec.id;
  o.rec.start_ns = Ns(start);
  open_.push_back(o);
  return o.rec.id;
}

void SpanLog::Close(Clock::time_point end) {
  if (open_.empty()) return;
  OpenSpan o = open_.back();
  open_.pop_back();
  o.rec.end_ns = Ns(end);
  Finish(o.rec, o.child_ns);
}

void SpanLog::Leaf(const char* name, uint64_t request, Clock::time_point start,
                   Clock::time_point end, const AttrNames& names,
                   const AttrValues& values) {
  SpanRecord rec;
  rec.name = name;
  rec.request = request;
  rec.id = (uint64_t{thread_} << 40) | next_id_++;
  rec.parent = open_.empty() ? 0 : open_.back().rec.id;
  rec.start_ns = Ns(start);
  rec.end_ns = Ns(end);
  rec.attr_names = &names;
  rec.attrs = values;
  Finish(rec, 0);
}

void SpanLog::Finish(const SpanRecord& rec, int64_t child_ns) {
  const int64_t dur = rec.end_ns - rec.start_ns;
  if (!open_.empty()) open_.back().child_ns += dur;
  SpanTotals* t = nullptr;
  for (SpanTotals& s : totals_) {
    if (s.name == rec.name) {
      t = &s;
      break;
    }
  }
  if (t == nullptr) {
    totals_.push_back(SpanTotals{rec.name, 0, 0.0, 0.0});
    t = &totals_.back();
  }
  ++t->count;
  t->total_s += static_cast<double>(dur) * 1e-9;
  t->self_s += static_cast<double>(dur - child_ns) * 1e-9;
  if (spans_.size() < capacity_) {
    spans_.push_back(rec);
  } else {
    ++dropped_;
  }
}

namespace {

/// Per-name totals across logs.
std::vector<SpanTotals> MergeTotals(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> merged;
  for (const SpanLog* log : logs) {
    for (const SpanTotals& t : log->totals()) {
      SpanTotals& m = merged[t.name];
      m.name = t.name;
      m.count += t.count;
      m.total_s += t.total_s;
      m.self_s += t.self_s;
    }
  }
  std::vector<SpanTotals> out;
  for (auto& [name, t] : merged) out.push_back(t);
  return out;
}

}  // namespace

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"totals\":[");
  bool first = true;
  for (const SpanTotals& t : MergeTotals(logs)) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"count\":%lld,\"total_s\":%.9g,"
                 "\"self_s\":%.9g}",
                 first ? "" : ",", t.name.c_str(),
                 static_cast<long long>(t.count), t.total_s, t.self_s);
    first = false;
  }
  int64_t dropped = 0;
  for (const SpanLog* log : logs) dropped += log->dropped();
  std::fprintf(f, "],\n\"spans_not_stored\":%lld,\n\"spans\":[",
               static_cast<long long>(dropped));
  first = true;
  for (const SpanLog* log : logs) {
    for (const SpanRecord& s : log->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"request\":%llu,\"id\":%llu,"
                   "\"parent\":%llu,\"start_ns\":%lld,\"end_ns\":%lld",
                   first ? "" : ",", s.name,
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      for (int a = 0; a < kMaxAttrs; ++a) {
        const char* key = (*s.attr_names)[static_cast<size_t>(a)];
        if (key == nullptr) continue;
        std::fprintf(f, ",\"%s\":%.9g", key,
                     s.attrs[static_cast<size_t>(a)]);
      }
      std::fprintf(f, "}");
      first = false;
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
