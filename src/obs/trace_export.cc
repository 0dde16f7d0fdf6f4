#include "obs/trace_export.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/json.h"

namespace genbase::obs {

namespace {

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

std::string ChromeTraceJson(const std::vector<Span>& spans,
                            const std::string& stamp_json) {
  std::string out = "{\"displayTimeUnit\":\"ms\",";
  if (!stamp_json.empty()) {
    out.append("\"metadata\":");
    out.append(stamp_json);
    out.push_back(',');
  }
  out.append("\"traceEvents\":[");
  bool first = true;
  for (const Span& span : spans) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":\"");
    json::AppendEscaped(&out, span.name);
    out.append("\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":");
    out.append(Num(span.start_s * 1e6));
    out.append(",\"dur\":");
    out.append(Num(span.dur_s * 1e6));
    out.append(",\"pid\":1,\"tid\":");
    out.append(std::to_string(span.tid));
    out.append(",\"args\":{\"trace_id\":\"");
    out.append(Hex(span.trace_id));
    out.append("\",\"span_id\":");
    out.append(std::to_string(span.span_id));
    out.append(",\"parent_id\":");
    out.append(std::to_string(span.parent_id));
    if (span.synthetic) out.append(",\"synthetic\":true");
    if (span.detail[0] != '\0') {
      out.append(",\"detail\":\"");
      json::AppendEscaped(&out, span.detail);
      out.push_back('"');
    }
    out.append("}}");
  }
  out.append("]}");
  return out;
}

std::string SlowQueryJsonl(const std::vector<SlowQueryRecord>& records) {
  std::string out;
  for (const SlowQueryRecord& r : records) {
    out.append("{\"trace_id\":\"");
    out.append(Hex(r.trace_id));
    out.append("\",\"workload\":\"");
    json::AppendEscaped(&out, r.workload);
    out.append("\",\"query\":\"");
    json::AppendEscaped(&out, r.query);
    out.append("\",\"variant\":");
    out.append(std::to_string(r.variant));
    out.append(",\"class_id\":");
    out.append(std::to_string(r.class_id));
    out.append(",\"start_s\":");
    out.append(Num(r.start_s));
    out.append(",\"latency_s\":");
    out.append(Num(r.latency_s));
    out.append(",\"stages_s\":{");
    for (int i = 0; i < kNumRequestStages; ++i) {
      if (i > 0) out.push_back(',');
      out.push_back('"');
      out.append(RequestStageName(static_cast<RequestStage>(i)));
      out.append("\":");
      out.append(Num(r.stages.s[i]));
    }
    // CPU attribution rides along only when the profiler captured it —
    // an all-zero object would be indistinguishable from "measured, idle".
    if (r.stages.CpuSum() > 0.0) {
      out.append("},\"stages_cpu_s\":{");
      for (int i = 0; i < kNumRequestStages; ++i) {
        if (i > 0) out.push_back(',');
        out.push_back('"');
        out.append(RequestStageName(static_cast<RequestStage>(i)));
        out.append("\":");
        out.append(Num(r.stages.cpu[i]));
      }
    }
    out.append("},\"alloc_delta_bytes\":");
    if (r.alloc_delta_bytes >= 0) {
      out.append(std::to_string(r.alloc_delta_bytes));
    } else {
      out.append("null");
    }
    out.append(",\"shed\":");
    out.append(r.shed ? "true" : "false");
    out.append(",\"stale_tripwire\":");
    out.append(r.stale_tripwire ? "true" : "false");
    out.append(",\"deadline_missed\":");
    out.append(r.deadline_missed ? "true" : "false");
    out.append(",\"verify_failed\":");
    out.append(r.verify_failed ? "true" : "false");
    out.append(",\"retries\":");
    out.append(std::to_string(r.retries));
    out.append(",\"slowest\":");
    out.append(r.slowest ? "true" : "false");
    out.append("}\n");
  }
  return out;
}

std::string FoldedStacks(const std::vector<Span>& spans) {
  // Index the forest. Span ids are unique within a trace but reused across
  // traces, so key by (trace_id, span_id).
  struct Key {
    uint64_t trace_id;
    uint64_t span_id;
    bool operator==(const Key& o) const {
      return trace_id == o.trace_id && span_id == o.span_id;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()(k.trace_id * 0x9E3779B97F4A7C15ull ^
                                   k.span_id);
    }
  };
  std::unordered_map<Key, size_t, KeyHash> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    index[{spans[i].trace_id, spans[i].span_id}] = i;
  }

  std::vector<double> child_dur(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent_id == 0) continue;
    const auto it = index.find({span.trace_id, span.parent_id});
    if (it != index.end()) child_dur[it->second] += span.dur_s;
  }

  // Each span contributes its self time to its root-to-span path. Paths are
  // built walking parent links; a missing parent (dropped span) truncates
  // the path there rather than discarding the sample.
  std::map<std::string, double> weights;
  std::string path;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double self_s = std::max(0.0, spans[i].dur_s - child_dur[i]);
    if (self_s <= 0.0) continue;
    path.clear();
    size_t cur = i;
    for (int depth = 0; depth < 64; ++depth) {
      if (path.empty()) {
        path = spans[cur].name;
      } else {
        path.insert(0, ";");
        path.insert(0, spans[cur].name);
      }
      if (spans[cur].parent_id == 0) break;
      const auto it =
          index.find({spans[cur].trace_id, spans[cur].parent_id});
      if (it == index.end()) break;
      cur = it->second;
    }
    weights[path] += self_s;
  }

  std::string out;
  for (const auto& [stack, seconds] : weights) {
    const long long us = std::llround(seconds * 1e6);
    if (us <= 0) continue;
    out.append(stack);
    out.push_back(' ');
    out.append(std::to_string(us));
    out.push_back('\n');
  }
  return out;
}

bool WriteTextFile(const std::string& path, const std::string& contents) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f.is_open()) return false;
  f.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  return f.good();
}

}  // namespace genbase::obs
