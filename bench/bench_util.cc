#include "bench/bench_util.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/sanitizers.h"
#include "common/simd.h"
#include "core/config.h"
#include "core/generator.h"
#include "core/reference.h"
#include "core/verify.h"
#include "engine/engines.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "plan/plan_engine.h"
#include "workload/report.h"

namespace genbase::bench {

namespace {

constexpr core::DatasetSize kBenchSizes[] = {core::DatasetSize::kSmall,
                                             core::DatasetSize::kMedium,
                                             core::DatasetSize::kLarge};
constexpr int kNodeCounts[] = {1, 2, 4};

struct LoadedEngine {
  std::unique_ptr<core::Engine> engine;
  genbase::Status load_status;
};

std::map<int, core::GenBaseData>& DataCache() {
  static auto* cache = new std::map<int, core::GenBaseData>();
  return *cache;
}

std::map<std::string, LoadedEngine>& EngineCache() {
  static auto* cache = new std::map<std::string, LoadedEngine>();
  return *cache;
}

std::vector<core::CellResult>& Cells() {
  static auto* cells = new std::vector<core::CellResult>();
  return *cells;
}

/// The core/reference answer for (query, size) on CachedData(size) at the
/// figures' default params, computed once per process.
const genbase::Result<core::QueryResult>& ReferenceTruth(
    core::QueryId query, core::DatasetSize size) {
  static auto* truths =
      new std::map<std::pair<core::QueryId, core::DatasetSize>,
                   genbase::Result<core::QueryResult>>();
  const auto key = std::make_pair(query, size);
  auto it = truths->find(key);
  if (it == truths->end()) {
    it = truths
             ->emplace(key, core::RunReferenceQuery(
                                query, CachedData(size),
                                DefaultDriverOptions().params))
             .first;
  }
  return it->second;
}

/// Runs and records one (system, query, x) cell on the system's cached
/// engine (see RunPaperFigure).
core::CellResult RunPaperCell(const FigureSystem& system, core::QueryId query,
                              XPoint x) {
  auto& slot = EngineCache()[system.key + "/n" + std::to_string(x.nodes) +
                             "@" + core::DatasetSizeName(x.size)];
  if (slot.engine == nullptr) {
    slot.engine = system.create(x.nodes);
    slot.load_status = slot.engine->LoadDataset(CachedData(x.size));
  }
  core::CellResult cell;
  if (!slot.load_status.ok()) {
    cell.engine = slot.engine->name();
    cell.query = query;
    cell.size = x.size;
    cell.status = slot.load_status;
    cell.infinite = slot.load_status.IsResourceFailure();
    cell.supported = slot.engine->SupportsQuery(query);
  } else {
    cell = core::RunCell(slot.engine.get(), query, x.size,
                         DefaultDriverOptions());
  }
  // An answer that differs from core/reference, or one that cannot be
  // checked, fails the cell: the grid shows ERR and the figure exits 1.
  if (cell.status.ok()) {
    const auto& truth = ReferenceTruth(query, x.size);
    if (!truth.ok()) {
      cell.status = genbase::Status::Internal("core/reference failed: " +
                                              truth.status().ToString());
    } else if (const genbase::Status diff =
                   core::CompareQueryResults(*truth, cell.result);
               !diff.ok()) {
      cell.status = genbase::Status::Internal(
          "answer differs from core/reference: " + diff.message());
    }
  }
  cell.nodes = x.nodes;
  Cells().push_back(cell);
  return cell;
}

/// A grid cell's text (see PrintPanel); a failed cell's is
/// CellResult::Display's.
std::string CellText(const core::CellResult* cell,
                     double core::CellResult::*field) {
  if (cell == nullptr) return "?";
  return cell->status.ok() ? workload::FormatSeconds(cell->*field)
                           : cell->Display();
}

/// One google-benchmark cell per (system, axis point, query), in that
/// order: manual time from the cell's total seconds, one iteration.
void RegisterPaperCells(const PaperFigure& figure) {
  std::vector<core::QueryId> queries;
  for (const Panel& panel : figure.panels) {
    if (std::find(queries.begin(), queries.end(), panel.query) ==
        queries.end()) {
      queries.push_back(panel.query);
    }
  }
  const bool breakdown = queries.size() == 1;
  for (const FigureSystem& system : figure.systems) {
    for (const XPoint x : AxisPoints(figure.axis)) {
      for (const core::QueryId query : queries) {
        std::string name = std::string(figure.name) + "/" + system.key + "/" +
                           (figure.axis == Axis::kNodes
                                ? "n" + std::to_string(x.nodes)
                                : core::DatasetSizeName(x.size));
        if (!breakdown) name += std::string("/") + core::QueryName(query);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [system, query, x, breakdown](benchmark::State& state) {
              for (auto _ : state) {
                const core::CellResult cell = RunPaperCell(system, query, x);
                state.SetIterationTime(std::max(cell.total_s, 1e-9));
                state.SetLabel(
                    breakdown ? "dm=" + workload::FormatSeconds(cell.dm_s) +
                                    " analytics=" +
                                    workload::FormatSeconds(cell.analytics_s)
                              : cell.Display());
              }
            })
            ->UseManualTime()
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

}  // namespace

const core::GenBaseData& CachedData(core::DatasetSize size) {
  auto& cache = DataCache();
  const int key = static_cast<int>(size);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto data =
        core::GenerateDataset(size, core::SimConfig::Get().scale);
    GENBASE_CHECK(data.ok());
    it = cache.emplace(key, std::move(data).ValueOrDie()).first;
  }
  return it->second;
}

core::DriverOptions DefaultDriverOptions() {
  core::DriverOptions options;
  options.timeout_seconds = core::SimConfig::Get().timeout_seconds;
  return options;
}

FigureSystem SingleNodeSystem(const engine::EngineSpec& spec) {
  return {spec.key, spec.display,
          [factory = spec.factory](int) { return factory(); }};
}

FigureSystem MultiNodeSystem(const cluster::ClusterSpec& spec,
                             std::string key) {
  return {std::move(key), spec.options.name,
          [spec](int nodes) -> std::unique_ptr<core::Engine> {
            return std::make_unique<cluster::ClusterEngine>(spec.At(nodes));
          }};
}

std::vector<XPoint> AxisPoints(Axis axis) {
  std::vector<XPoint> points;
  if (axis == Axis::kNodes) {
    for (int nodes : kNodeCounts) {
      points.push_back({core::DatasetSize::kLarge, nodes});
    }
  } else {
    for (core::DatasetSize size : kBenchSizes) points.push_back({size, 1});
  }
  return points;
}

const core::CellResult* FindCell(const FigureSystem& system,
                                 core::QueryId query, XPoint x) {
  for (const auto& c : Cells()) {
    if (c.engine == system.display && c.query == query && c.size == x.size &&
        c.nodes == x.nodes) {
      return &c;
    }
  }
  return nullptr;
}

void PrintPanel(const PaperFigure& figure, const Panel& panel) {
  std::vector<std::string> systems;
  for (const FigureSystem& system : figure.systems) {
    systems.push_back(system.display);
  }
  std::vector<std::string> x_values;
  std::vector<std::vector<std::string>> cells;
  for (const XPoint x : AxisPoints(figure.axis)) {
    x_values.push_back(figure.axis == Axis::kNodes
                           ? std::to_string(x.nodes) +
                                 (x.nodes == 1 ? " node" : " nodes")
                           : core::DatasetSizeName(x.size));
    std::vector<std::string> row;
    for (const FigureSystem& system : figure.systems) {
      row.push_back(CellText(FindCell(system, panel.query, x), panel.field));
    }
    cells.push_back(std::move(row));
  }
  workload::PrintGrid(panel.title,
                      figure.axis == Axis::kNodes ? "nodes" : "dataset",
                      x_values, systems, cells);
}

std::optional<double> CellRatio(const core::CellResult* num,
                                const core::CellResult* den,
                                double core::CellResult::*field) {
  if (num == nullptr || den == nullptr || !num->status.ok() ||
      !den->status.ok() || den->*field <= 0) {
    return std::nullopt;
  }
  return num->*field / den->*field;
}

void PrintRatioRow(const PaperFigure& figure, const FigureSystem& num,
                   const FigureSystem& den, core::QueryId query,
                   double core::CellResult::*field) {
  for (const XPoint x : AxisPoints(figure.axis)) {
    const std::optional<double> ratio =
        CellRatio(FindCell(num, query, x), FindCell(den, query, x), field);
    if (ratio) {
      std::printf(" %9.2fx", *ratio);
    } else {
      std::printf(" %10s", "n/a");
    }
  }
}

int RunPaperFigure(int argc, char** argv, const char* banner,
                   const PaperFigure& figure,
                   const std::function<void(const PaperFigure&)>& print) {
  PrintBanner(banner);
  RegisterPaperCells(figure);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print(figure);
  int failed = 0;
  for (const core::CellResult& c : Cells()) {
    if (!c.supported || c.infinite || c.status.ok()) continue;
    std::printf("# cell failed: %s/%s/%s nodes=%d: %s\n", c.engine.c_str(),
                core::QueryName(c.query), core::DatasetSizeName(c.size),
                c.nodes, c.status.ToString().c_str());
    ++failed;
  }
  if (failed > 0) std::printf("# %d cell(s) failed\n", failed);
  return failed == 0 ? 0 : 1;
}

const std::vector<engine::EngineSpec>& ServingEngines() {
  static const auto* engines = new std::vector<engine::EngineSpec>{
      engine::SingleNodeEngine("scidb"),
      engine::SingleNodeEngine("col_udf"),
      engine::SingleNodeEngine("col_r"),
      {"plan", "Planned column store", plan::CreatePlanStore},
  };
  return *engines;
}

std::string ExtractFlagValue(int* argc, char** argv, const std::string& flag) {
  const std::string prefix = flag + "=";
  std::string value;
  int out = 0;
  for (int i = 0; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      value = arg.substr(prefix.size());
      continue;
    }
    if (arg == flag && i + 1 < *argc) {
      value = argv[++i];
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  argv[out] = nullptr;  // Keep the argv null-termination guarantee.
  return value;
}

namespace {

std::string DetectGitSha() {
  if (const char* env = std::getenv("GENBASE_GIT_SHA")) {
    if (env[0] != '\0') return env;
  }
  std::string sha;
#if defined(__linux__) || defined(__APPLE__)
  if (std::FILE* p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = {0};
    if (std::fgets(buf, sizeof(buf), p) != nullptr) {
      sha = buf;
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
        sha.pop_back();
      }
    }
    pclose(p);
  }
#endif
  return sha.empty() ? "unknown" : sha;
}

std::string IsoUtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
#if defined(_WIN32)
  gmtime_s(&tm_utc, &now);
#else
  gmtime_r(&now, &tm_utc);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

struct RunStamp {
  std::string git_sha;
  std::string kernel_backend;
  std::string timestamp;
};

const RunStamp& CurrentRunStamp() {
  static const RunStamp* stamp = [] {
    auto* s = new RunStamp();
    s->git_sha = DetectGitSha();
    s->kernel_backend = simd::BackendName(simd::ActiveBackend());
    s->timestamp = IsoUtcNow();
    return s;
  }();
  return *stamp;
}

}  // namespace

std::string StampJson() {
  const RunStamp& s = CurrentRunStamp();
  // All three fields are shell-safe strings (hex sha, backend identifier,
  // ISO timestamp) — no escaping needed.
  return "{\"git_sha\":\"" + s.git_sha + "\",\"kernel_backend\":\"" +
         s.kernel_backend + "\",\"timestamp\":\"" + s.timestamp + "\"}";
}

void PrintBanner(const char* figure) {
  const auto& c = core::SimConfig::Get();
  std::printf("# GenBase reproduction — %s\n", figure);
  std::printf(
      "# scale=%.3g (paper dims x scale), timeout=%.0fs (paper: 7200s)\n",
      c.scale, c.timeout_seconds);
  for (core::DatasetSize s : kBenchSizes) {
    const core::DatasetDims d = core::DimsFor(s, c.scale);
    std::printf("#   %-6s: %lld genes x %lld patients (paper: %s)\n",
                core::DatasetSizeName(s),
                static_cast<long long>(d.genes),
                static_cast<long long>(d.patients),
                s == core::DatasetSize::kSmall    ? "5k x 5k"
                : s == core::DatasetSize::kMedium ? "15k x 20k"
                                                  : "30k x 40k");
  }
  std::printf(
      "# modeled constants: net=%.0fMB/s lat=%.0fus, MR job=%.2gs, "
      "UDF call=%.1gms, plpython cell=%.3gns, Phi gemm x%.2g bw x%.2g "
      "pcie=%.0fGB/s\n",
      c.net_bandwidth_bytes_per_s / 1e6, c.net_latency_s * 1e6,
      c.mr_job_startup_s, c.udf_invocation_overhead_s * 1e3,
      c.interpreted_cell_overhead_s * 1e9, c.phi_gemm_speedup,
      c.phi_bandwidth_speedup, c.phi_transfer_bytes_per_s / 1e9);
}

// --- workload figures --------------------------------------------------------

workload::WorkloadSpec ServingMixSpec(const std::string& name, uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.name = name;
  spec.mix = {
      {core::QueryId::kRegression, 30},
      {core::QueryId::kCovariance, 20},
      {core::QueryId::kBiclustering, 5},
      {core::QueryId::kSvd, 15},
      {core::QueryId::kStatistics, 30},
  };
  spec.size = core::DatasetSize::kSmall;
  spec.model = workload::ClientModel::kClosedLoop;
  spec.seed = seed;
  spec.verify = true;
  return spec;
}

workload::WorkloadRunner::TruthTable& SmallDataTruths() {
  static auto* truths = new workload::WorkloadRunner::TruthTable();
  return *truths;
}

std::map<std::string, workload::WorkloadReport>& Reports() {
  static auto* reports = new std::map<std::string, workload::WorkloadReport>();
  return *reports;
}

namespace {

/// Observability dump destinations for a figure run (empty = skip).
struct ObsDumpPaths {
  std::string trace_path;    ///< Chrome trace_event JSON (+ .slow.jsonl).
  std::string metrics_path;  ///< MetricsRegistry JSON snapshot.
  std::string profile_path;  ///< Folded flame-graph stacks (PROFILE_*.folded).
};

/// Strips `--trace=PATH` / `--metrics=PATH` / `--profile=PATH`.
/// `--profile=` additionally enables obs::Profiler for the run
/// and, unless GENBASE_TRACE_SAMPLE pinned a rate, raises trace sampling to
/// 1.0 so the folded output aggregates every request.
ObsDumpPaths ExtractObsPaths(int* argc, char** argv) {
  ObsDumpPaths paths;
  paths.trace_path = ExtractFlagValue(argc, argv, "--trace");
  paths.metrics_path = ExtractFlagValue(argc, argv, "--metrics");
  paths.profile_path = ExtractFlagValue(argc, argv, "--profile");
  if (!paths.profile_path.empty()) {
    obs::Profiler::SetEnabled(true);
    // The folded output aggregates spans, so profile runs want them all —
    // unless the caller pinned an explicit sampling rate for an experiment.
    if (std::getenv("GENBASE_TRACE_SAMPLE") == nullptr) {
      obs::Tracer::Global().set_sample_rate(1.0);
    }
  }
  return paths;
}

/// Trace-id gate: every `request` root has a trace id of its own, so a
/// reader that joins a span to its parent by (trace id, span id) finds the
/// right one. Runs of one schedule share ids unless their specs set
/// distinct trace scopes. Prints the gate line; false on a repeat.
bool TraceIdsUnique(const std::vector<obs::Span>& spans) {
  std::map<uint64_t, int> roots;
  for (const obs::Span& span : spans) {
    if (span.parent_id == 0 && std::strcmp(span.name, "request") == 0) {
      ++roots[span.trace_id];
    }
  }
  int64_t repeated = 0;
  for (const auto& [id, count] : roots) repeated += count > 1 ? 1 : 0;
  std::printf("# trace-id gate %s: %zu trace ids carry a request root, "
              "%lld carry more than one\n",
              repeated == 0 ? "PASS" : "FAIL", roots.size(),
              static_cast<long long>(repeated));
  return repeated == 0;
}

/// Drains the global tracer once into the trace path (Chrome trace JSON,
/// stamped) plus the slow-query log next to it (.slow.jsonl), folds the same
/// spans into the profile path's flame-graph stacks, and snapshots the
/// global metrics registry into the metrics path (wrapped with the stamp).
/// Empty paths skip; short writes are errors. Sets `*ids_unique` to the
/// trace-id gate's verdict on the drained spans.
genbase::Status WriteObsDumps(const ObsDumpPaths& paths, bool* ids_unique) {
  obs::Tracer& tracer = obs::Tracer::Global();
  if (!paths.trace_path.empty() || !paths.profile_path.empty()) {
    // One drain feeds both artifacts: TakeCollected empties the collector,
    // so trace and profile must come from the same snapshot.
    const std::vector<obs::Span> spans = tracer.TakeCollected();
    *ids_unique = TraceIdsUnique(spans);
    if (!paths.trace_path.empty()) {
      if (!obs::WriteTextFile(paths.trace_path,
                              obs::ChromeTraceJson(spans, StampJson()))) {
        return genbase::Status::IOError("cannot write trace file: " +
                                        paths.trace_path);
      }
      std::printf("# trace written to %s (%zu spans, %lld dropped)\n",
                  paths.trace_path.c_str(), spans.size(),
                  static_cast<long long>(tracer.spans_dropped()));
      // The slow-query log rides along with the trace: same base name, so
      // the two artifacts travel together through CI uploads.
      std::string slow_path = paths.trace_path;
      const std::string suffix = ".json";
      if (slow_path.size() >= suffix.size() &&
          slow_path.compare(slow_path.size() - suffix.size(), suffix.size(),
                            suffix) == 0) {
        slow_path.resize(slow_path.size() - suffix.size());
      }
      slow_path += ".slow.jsonl";
      const std::vector<obs::SlowQueryRecord> slow = tracer.TakeSlowQueries();
      if (!obs::WriteTextFile(slow_path, obs::SlowQueryJsonl(slow))) {
        return genbase::Status::IOError("cannot write slow-query log: " +
                                        slow_path);
      }
      std::printf("# slow-query log written to %s (%zu records)\n",
                  slow_path.c_str(), slow.size());
    }
    if (!paths.profile_path.empty()) {
      const std::string folded = obs::FoldedStacks(spans);
      if (!obs::WriteTextFile(paths.profile_path, folded)) {
        return genbase::Status::IOError("cannot write profile file: " +
                                        paths.profile_path);
      }
      std::printf("# folded stacks written to %s (%zu spans)\n",
                  paths.profile_path.c_str(), spans.size());
    }
  }
  if (!paths.metrics_path.empty()) {
    const std::string wrapped = "{\"stamp\":" + StampJson() + ",\"metrics\":" +
                                obs::MetricsRegistry::Global().ToJson() + "}";
    if (!obs::WriteTextFile(paths.metrics_path, wrapped)) {
      return genbase::Status::IOError("cannot write metrics file: " +
                                      paths.metrics_path);
    }
    std::printf("# metrics written to %s\n", paths.metrics_path.c_str());
  }
  return genbase::Status::OK();
}

/// Dumps Reports() as one machine-readable JSON document
/// (`{"figure":…,"stamp":…,"config":{scale,timeout},"reports":[…]}`); no-op
/// for an empty path.
genbase::Status WriteJsonReports(const std::string& path,
                                 const std::string& figure) {
  if (path.empty()) return genbase::Status::OK();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return genbase::Status::IOError("cannot open json report file: " + path);
  }
  const auto& c = core::SimConfig::Get();
  std::fprintf(f,
               "{\"figure\":\"%s\",\"stamp\":%s,"
               "\"config\":{\"scale\":%.17g,"
               "\"timeout_seconds\":%.17g},\"reports\":[",
               figure.c_str(), StampJson().c_str(), c.scale,
               c.timeout_seconds);
  const char* sep = "";
  for (const auto& [key, report] : Reports()) {
    std::fprintf(f, "%s%s", sep, report.ToJson().c_str());
    sep = ",";
  }
  std::fprintf(f, "]}\n");
  // A truncated artifact that CI happily uploads is worse than a failed
  // step: surface short writes (disk full, I/O error) as a failure.
  const bool write_error = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_error) {
    return genbase::Status::IOError("short write to json report file: " +
                                    path);
  }
  std::printf("# json report written to %s (%zu runs)\n", path.c_str(),
              Reports().size());
  return genbase::Status::OK();
}

/// Cells whose body returned an error in this process.
int& FailedCells() {
  static int failed = 0;
  return failed;
}

}  // namespace

void RegisterCell(const std::string& name,
                  std::function<genbase::Status()> body) {
  benchmark::RegisterBenchmark(
      name.c_str(),
      [name, body = std::move(body)](benchmark::State& state) {
        for (auto _ : state) {
          const genbase::Status status = body();
          if (status.ok()) continue;
          std::printf("# cell failed to run: %s: %s\n", name.c_str(),
                      status.ToString().c_str());
          ++FailedCells();
          state.SkipWithError(status.ToString().c_str());
        }
      })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

genbase::Result<workload::WorkloadReport> RunStack(
    const engine::EngineSpec& engine, const workload::WorkloadSpec& spec,
    const serving::ServingOptions& options) {
  const core::GenBaseData& data = CachedData(core::DatasetSize::kSmall);
  GENBASE_ASSIGN_OR_RETURN(
      auto stack, serving::ServingStack::Create(options, engine.factory, data));
  workload::WorkloadRunner runner(spec);
  runner.set_truths(&SmallDataTruths());
  return runner.Run(stack.get(), data);
}

Capacity MeasuredCapacity(const std::string& key, const std::string& cell) {
  const auto it = Reports().find(key);
  if (it == Reports().end() || it->second.real_goodput_qps() <= 0) {
    const Capacity fallback;
    std::printf(
        "# warning: reference cell %s missing; %s offered load uses "
        "fallback capacity %.0f qps, not measured capacity\n",
        key.c_str(), cell.c_str(), fallback.goodput_qps);
    return fallback;
  }
  return {it->second.real_goodput_qps(), it->second.total.latency.mean()};
}

bool SkipOverheadGates() {
  if (genbase::kUnderSanitizer) return true;
  const char* env = std::getenv("GENBASE_SKIP_OVERHEAD_GATES");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

int RunWorkloadFigure(int argc, char** argv, const char* banner,
                      const char* figure,
                      const std::function<void()>& register_cells,
                      const std::function<int64_t()>& print) {
  PrintBanner(banner);
  const std::string json_path = ExtractFlagValue(&argc, argv, "--json");
  const ObsDumpPaths obs_paths = ExtractObsPaths(&argc, argv);
  register_cells();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  int64_t failures = print();
  if (FailedCells() > 0) {
    std::printf("# %d cell(s) failed to run\n", FailedCells());
    failures += FailedCells();
  }
  bool ids_unique = true;
  genbase::Status written = WriteObsDumps(obs_paths, &ids_unique);
  if (written.ok()) written = WriteJsonReports(json_path, figure);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  if (!ids_unique) ++failures;
  return failures == 0 ? 0 : 1;
}

}  // namespace genbase::bench
