#ifndef GENBASE_BENCH_BENCH_UTIL_H_
#define GENBASE_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_engine.h"
#include "common/status.h"
#include "core/datasets.h"
#include "core/driver.h"
#include "core/engine.h"
#include "engine/engines.h"
#include "serving/serving_stack.h"
#include "workload/report.h"
#include "workload/runner.h"
#include "workload/workload_spec.h"

namespace genbase::bench {

/// Benchmark datasets are generated once per size at SimConfig scale.
const core::GenBaseData& CachedData(core::DatasetSize size);

/// Driver options from SimConfig (GENBASE_TIMEOUT).
core::DriverOptions DefaultDriverOptions();

/// Prints the workload banner (scale, dims, timeout, model constants).
void PrintBanner(const char* figure);

// --- paper figures (fig1–fig5, table1) ---------------------------------------
//
// One harness for the paper's figures: the engine lineups
// (engine::kSingleNodeEngines, cluster::ClusterConfigs), one x axis, one
// cell registration, one grid printer and one ratio rule, so a change to
// what a cell records or prints is a one-place edit.

/// One system a paper figure compares: the key its benchmark cells are
/// named by, its legend name (the engine's name(), which its recorded cells
/// carry) and its engine at a node count.
struct FigureSystem {
  std::string key;
  std::string display;
  std::function<std::unique_ptr<core::Engine>(int nodes)> create;
};

/// A single-node lineup entry as a figure system.
FigureSystem SingleNodeSystem(const engine::EngineSpec& spec);

/// A multi-node configuration as a figure system named by `key`.
FigureSystem MultiNodeSystem(const cluster::ClusterSpec& spec,
                             std::string key);

/// A figure's x axis: the three dataset sizes at one node, or 1, 2 and 4
/// nodes on the large dataset.
enum class Axis { kDatasetSize, kNodes };

/// One point of an axis.
struct XPoint {
  core::DatasetSize size;
  int nodes = 1;
};

/// The axis's points, in order.
std::vector<XPoint> AxisPoints(Axis axis);

/// One panel of a figure: the query it shows, its title and the seconds its
/// grid prints (the total, or one phase). Table 1 prints no grid; its panels
/// title its rows.
struct Panel {
  core::QueryId query;
  const char* title;
  double core::CellResult::*field = &core::CellResult::total_s;
};

/// A paper figure times one cell per system, axis point and panel query.
/// A figure of one query (fig2, fig4) breaks it into phases: its cells are
/// named without the query and labelled `dm=… analytics=…`.
struct PaperFigure {
  const char* name;  ///< Benchmark-name prefix, e.g. "fig1".
  Axis axis;
  std::vector<FigureSystem> systems;  ///< Legend order.
  std::vector<Panel> panels;
};

/// The recorded (system, query, x) cell; nullptr when none ran (e.g.
/// --benchmark_filter left it out).
const core::CellResult* FindCell(const FigureSystem& system,
                                 core::QueryId query, XPoint x);

/// Prints `panel`'s grid: a row per axis point, a column per system. A
/// cell shows its `field` seconds, "?" when it did not run, "n/a" when its
/// engine does not implement the query, "INF" on a timeout or memory
/// failure (the paper's horizontal lines) and "ERR" on any other failure.
void PrintPanel(const PaperFigure& figure, const Panel& panel);

/// num->*field / den->*field when both cells ran and are OK and the
/// denominator is positive; nullopt otherwise.
std::optional<double> CellRatio(const core::CellResult* num,
                                const core::CellResult* den,
                                double core::CellResult::*field);

/// Prints, per axis point, the CellRatio of `field` between `num`'s and
/// `den`'s `query` cells as " %9.2fx", or "n/a".
void PrintRatioRow(const PaperFigure& figure, const FigureSystem& num,
                   const FigureSystem& den, core::QueryId query,
                   double core::CellResult::*field);

/// The paper figures' `main`: prints the banner, registers the figure's
/// cells, runs google-benchmark, then `print` (grids and derived tables).
/// Each cell's engine is cached and loaded once per (system, nodes, size);
/// a failed load (e.g. R on the large dataset) is INF for every query, the
/// paper's semantics for systems that cannot hold the data. An OK answer is
/// compared with core/reference, computed once per (query, size); a
/// mismatch or a failed reference run makes the cell an error. Exits
/// nonzero when a recorded cell failed — supported, not INF and not OK —
/// naming each one, so an engine that starts failing fails the figure
/// instead of only showing ERR in a grid. A cell that --benchmark_filter
/// leaves out is never recorded and fails nothing.
int RunPaperFigure(int argc, char** argv, const char* banner,
                   const PaperFigure& figure,
                   const std::function<void(const PaperFigure&)>& print);

/// The serving scenario's engine lineup: the single-node configurations
/// that implement all five queries natively (SciDB, Column store + UDFs,
/// Column store + R) plus the planned column store. The serving scenario
/// assumes full functionality, and a mixed stream against Postgres/Hadoop
/// configs would report errors, not latency. Shared by fig6–fig9 so the
/// figures cannot drift apart.
const std::vector<engine::EngineSpec>& ServingEngines();

/// Strips a `--flag=VALUE` (or `--flag VALUE`) pair out of argv — call
/// before benchmark::Initialize, which rejects flags it does not know — and
/// returns the value ("" when the flag is absent).
std::string ExtractFlagValue(int* argc, char** argv, const std::string& flag);

/// Provenance stamped into every BENCH_/TRACE_/METRICS_ artifact, which
/// attributes it to a commit and kernel backend:
/// `{"git_sha":...,"kernel_backend":...,"timestamp":...}` (GENBASE_GIT_SHA
/// else `git rev-parse`, the active simd backend, ISO-8601 UTC), computed
/// once per process.
std::string StampJson();

// --- workload figures (fig6–fig9) -------------------------------------------
//
// One harness for the serving figures: one Q1–Q5 mix, one shared truth
// table, one report map, one cell runner and one exit path, so a change to
// how cells are measured is a one-place edit.

/// The serving figures' interactive-skewed mix — cheap lookups dominate,
/// heavy analytics (biclustering, SVD) arrive as a background trickle — on
/// the small dataset, closed loop, every served op verified. Each figure
/// sets its own clients, op counts and variants.
workload::WorkloadSpec ServingMixSpec(const std::string& name, uint64_t seed);

/// The process's ground truths on the small dataset: every workload-figure
/// runner shares it (all figure specs use the default params), so each
/// (query, variant) truth is computed once per process.
workload::WorkloadRunner::TruthTable& SmallDataTruths();

/// The figure's reports by cell key; the grids, the gates and `--json` read
/// them in key order.
std::map<std::string, workload::WorkloadReport>& Reports();

/// Registers google-benchmark cell `name`, which runs `body` once. A body
/// that returns an error prints `# cell failed to run` and fails the figure
/// (see RunWorkloadFigure); a cell that --benchmark_filter leaves out never
/// runs and fails nothing.
void RegisterCell(const std::string& name,
                  std::function<genbase::Status()> body);

/// Builds a fresh serving stack of `engine` on the small dataset and runs
/// `spec` through it on SmallDataTruths().
genbase::Result<workload::WorkloadReport> RunStack(
    const engine::EngineSpec& engine, const workload::WorkloadSpec& spec,
    const serving::ServingOptions& options);

/// What a closed-loop reference cell measured, in real-clock terms: arrivals
/// are real-time, so an offered rate must be a multiple of what the server
/// absorbs on the same clock (modeled seconds never occupy a slot).
struct Capacity {
  double goodput_qps = 20.0;
  double mean_latency_s = 0.05;
};

/// The capacity of the reference cell stored under Reports()[key]. When it
/// is missing (filtered out, or it failed) `cell`'s "Nx capacity" labels
/// would reflect the placeholder above rather than a measurement, so this
/// prints a warning naming both.
Capacity MeasuredCapacity(const std::string& key, const std::string& cell);

/// Relative-throughput gates (instrumentation on vs off, goodput bands)
/// measure a sanitizer, not the product, under one: true under ASan/TSan and
/// when GENBASE_SKIP_OVERHEAD_GATES is set (the UBSan-only preset, which has
/// no detection macro). Correctness gates never skip.
bool SkipOverheadGates();

/// The workload figures' `main`: prints the banner, strips `--json=PATH`
/// and the observability flags (--trace/--metrics/--profile; see README),
/// registers the cells, runs google-benchmark, then `print` (grids, report
/// lines and gates; returns the failure count). Writes the observability
/// dumps and, with --json, every report in Reports() as one stamped JSON
/// document. Exits nonzero on any failure, any cell that failed to run, or
/// a failed write — so CI smoke steps gate on end-to-end correctness.
int RunWorkloadFigure(int argc, char** argv, const char* banner,
                      const char* figure,
                      const std::function<void()>& register_cells,
                      const std::function<int64_t()>& print);

}  // namespace genbase::bench

#endif  // GENBASE_BENCH_BENCH_UTIL_H_
