#include "cluster/cluster_engine.h"

#include <algorithm>

#include "accel/coprocessor.h"
#include "core/config.h"

namespace genbase::cluster {

namespace {

using core::QueryId;
using core::SimConfig;

NetworkModel ConfigNetwork() {
  const auto& c = SimConfig::Get();
  return {c.net_bandwidth_bytes_per_s, c.net_latency_s};
}

/// Copies a row range of a columnar table (the per-node partition).
genbase::Status SliceTable(const storage::ColumnTable& src, int64_t begin,
                           int64_t end, MemoryTracker* tracker,
                           storage::ColumnTable* dst) {
  *dst = storage::ColumnTable(src.schema(), tracker);
  GENBASE_RETURN_NOT_OK(dst->Reserve(end - begin));
  for (int c = 0; c < src.schema().num_fields(); ++c) {
    if (src.schema().field(c).type == storage::DataType::kInt64) {
      const auto& col = src.IntColumn(c);
      dst->MutableIntColumn(c).assign(col.begin() + begin,
                                      col.begin() + end);
    } else {
      const auto& col = src.DoubleColumn(c);
      dst->MutableDoubleColumn(c).assign(col.begin() + begin,
                                         col.begin() + end);
    }
  }
  return dst->FinishBulkLoad();
}

}  // namespace

const std::vector<ClusterSpec>& ClusterConfigs() {
  static const std::vector<ClusterSpec> configs = [] {
    ClusterEngineOptions col_pbdr, col_udf, hadoop, pbdr, scidb;
    col_pbdr.name = "Column store + pbdR";
    col_pbdr.csv_glue = true;
    col_udf.name = "Column store + UDFs";
    col_udf.udf_glue = true;
    hadoop.name = "Hadoop";
    hadoop.mapreduce = true;
    hadoop.quality = linalg::KernelQuality::kNaive;
    pbdr.name = "pbdR";
    scidb.name = "SciDB";
    scidb.array_native = true;
    ClusterEngineOptions scidb_phi = scidb;
    scidb_phi.name = "SciDB + Xeon Phi";
    scidb_phi.phi_offload = true;
    return std::vector<ClusterSpec>{
        {"col_pbdr", col_pbdr}, {"col_udf", col_udf},
        {"hadoop", hadoop},     {"pbdr", pbdr},
        {"scidb", scidb},       {"scidb_phi", scidb_phi}};
  }();
  return configs;
}

std::vector<ClusterSpec> MultiNodeSystems() {
  std::vector<ClusterSpec> systems;
  for (const ClusterSpec& spec : ClusterConfigs()) {
    if (!spec.options.phi_offload) systems.push_back(spec);
  }
  return systems;
}

const ClusterSpec& ClusterConfig(std::string_view key) {
  const ClusterSpec* found = nullptr;
  for (const ClusterSpec& spec : ClusterConfigs()) {
    if (key == spec.key) found = &spec;
  }
  GENBASE_CHECK(found != nullptr);
  return *found;
}

ClusterEngine::ClusterEngine(ClusterEngineOptions options)
    : options_(std::move(options)),
      tracker_(MemoryTracker::kUnlimited, options_.name + "-mn") {
  GENBASE_CHECK(options_.nodes >= 1);
}

genbase::Status ClusterEngine::DoLoadDataset(const core::GenBaseData& data) {
  DoUnloadDataset();
  dims_ = data.dims;
  const std::vector<RowRange> ranges =
      PartitionRows(dims_.patients, options_.nodes);
  for (int node = 0; node < options_.nodes; ++node) {
    auto nd = std::make_unique<NodeData>();
    nd->patients = ranges[static_cast<size_t>(node)];
    nd->tables.dims = dims_;
    // Patient rows of this node (the generator emits patients in id order).
    GENBASE_RETURN_NOT_OK(SliceTable(data.patients, nd->patients.begin,
                                     nd->patients.end, &tracker_,
                                     &nd->tables.patients));
    // Metadata replicated on every node (small).
    GENBASE_RETURN_NOT_OK(SliceTable(data.genes, 0, data.genes.num_rows(),
                                     &tracker_, &nd->tables.genes));
    GENBASE_RETURN_NOT_OK(SliceTable(data.ontology, 0,
                                     data.ontology.num_rows(), &tracker_,
                                     &nd->tables.ontology));
    // Microarray rows: patient-major triples, contiguous per range.
    const int64_t row_begin = nd->patients.begin * dims_.genes;
    const int64_t row_end = nd->patients.end * dims_.genes;
    if (options_.array_native) {
      GENBASE_ASSIGN_OR_RETURN(
          nd->expression,
          engine::LoadExpressionArray(data.microarray, row_begin, row_end,
                                      nd->patients.begin,
                                      nd->patients.size(), dims_.genes,
                                      options_.name, &tracker_));
    } else {
      GENBASE_RETURN_NOT_OK(SliceTable(data.microarray, row_begin, row_end,
                                       &tracker_, &nd->tables.microarray));
    }
    node_data_.push_back(std::move(nd));
  }
  loaded_ = true;
  return genbase::Status::OK();
}

void ClusterEngine::DoUnloadDataset() {
  node_data_.clear();
  tracker_.Reset();
  loaded_ = false;
}

void ClusterEngine::PrepareContext(ExecContext* ctx) {
  ctx->set_memory(&tracker_);
  // Per-node execution is hard-coded to one thread; the parallelism across
  // nodes lives in the virtual-time cluster.
  ctx->set_pool(nullptr);
}

genbase::Result<std::vector<linalg::Matrix>> ClusterEngine::LocalBlocks(
    QueryId query, const core::QueryParams& params, SimCluster* sim,
    std::vector<std::vector<double>>* y_blocks,
    std::vector<int64_t>* col_ids, ExecContext* ctx) {
  const auto& config = SimConfig::Get();
  if (options_.mapreduce) {
    // Job startups: dimension filter job + fact join job, then the shuffle
    // of matched triples between map and reduce waves.
    sim->ChargeAll(2.0 * config.mr_job_startup_s);
  }
  std::vector<linalg::Matrix> blocks(
      static_cast<size_t>(options_.nodes));
  if (y_blocks != nullptr) {
    y_blocks->assign(static_cast<size_t>(options_.nodes), {});
  }
  GENBASE_RETURN_NOT_OK(sim->Compute([&](int node) -> genbase::Status {
    const NodeData& nd = *node_data_[static_cast<size_t>(node)];
    // SciDB selects on its local array; the others filter, join and
    // restructure their relational partition.
    GENBASE_ASSIGN_OR_RETURN(
        engine::QueryInputs in,
        options_.array_native
            ? engine::SelectArray(nd.expression, nd.patients.begin, nd.tables,
                                  query, params, ctx)
            : engine::PrepareInputsColumnar(nd.tables, query, params, ctx));
    blocks[static_cast<size_t>(node)] = std::move(in.x);
    if (y_blocks != nullptr) {
      (*y_blocks)[static_cast<size_t>(node)] = std::move(in.y);
    }
    if (node == 0 && col_ids != nullptr) *col_ids = std::move(in.col_ids);
    return genbase::Status::OK();
  }));
  if (options_.mapreduce) {
    int64_t total_bytes = 0;
    for (const auto& b : blocks) total_bytes += b.bytes() * 3;  // Triples.
    sim->AllToAll(total_bytes /
                  (static_cast<int64_t>(options_.nodes) * options_.nodes));
    sim->ChargeAll(config.mr_job_startup_s);  // Restructure job.
  }
  return blocks;
}

genbase::Status ClusterEngine::ApplyGlue(std::vector<linalg::Matrix>* blocks,
                                         SimCluster* sim, ExecContext* ctx) {
  const auto& config = SimConfig::Get();
  if (options_.csv_glue) {
    return sim->Compute([&](int node) -> genbase::Status {
      linalg::Matrix& b = (*blocks)[static_cast<size_t>(node)];
      if (b.size() == 0) return genbase::Status::OK();
      GENBASE_ASSIGN_OR_RETURN(
          b, engine::CsvRoundTripMatrix(linalg::MatrixView(b), ctx));
      return genbase::Status::OK();
    });
  }
  if (options_.udf_glue) {
    for (int node = 0; node < options_.nodes; ++node) {
      const linalg::Matrix& b = (*blocks)[static_cast<size_t>(node)];
      sim->ChargeCompute(
          node, static_cast<double>(engine::UdfInvocations(b.rows())) *
                    config.udf_invocation_overhead_s);
    }
  }
  return genbase::Status::OK();
}

genbase::Result<core::QueryResult> ClusterEngine::RunQuery(
    QueryId query, const core::QueryParams& params, ExecContext* ctx) {
  if (!loaded_) return genbase::Status::Internal("not loaded");
  if (!SupportsQuery(query)) {
    return genbase::Status::NotSupported(options_.name +
                                         " lacks this analytics function");
  }
  const auto& config = SimConfig::Get();
  SimCluster sim(options_.nodes, ConfigNetwork());
  core::QueryResult out;
  out.query = query;

  // ---------- data management (+ glue) ----------------------------------------
  double phase_start = sim.elapsed();
  std::vector<std::vector<double>> y_blocks;
  std::vector<int64_t> col_ids;
  std::vector<linalg::Matrix> blocks;
  if (query != QueryId::kStatistics) {
    GENBASE_ASSIGN_OR_RETURN(
        blocks, LocalBlocks(query, params, &sim,
                            query == QueryId::kRegression ? &y_blocks
                                                          : nullptr,
                            &col_ids, ctx));
  }
  ctx->clock().AddVirtual(Phase::kDataManagement,
                          sim.elapsed() - phase_start);

  phase_start = sim.elapsed();
  if (query != QueryId::kStatistics) {
    GENBASE_RETURN_NOT_OK(ApplyGlue(&blocks, &sim, ctx));
  }
  ctx->clock().AddVirtual(Phase::kGlue, sim.elapsed() - phase_start);

  // ---------- analytics ---------------------------------------------------------
  phase_start = sim.elapsed();
  const double comm_start = sim.comm_elapsed();
  int64_t max_block_bytes = 0;
  for (const auto& b : blocks) {
    max_block_bytes = std::max(max_block_bytes, b.bytes());
  }

  switch (query) {
    case QueryId::kRegression: {
      if (options_.mapreduce) sim.ChargeAll(config.mr_job_startup_s);
      // Add the intercept column per node (the model.matrix step).
      std::vector<linalg::Matrix> designs(blocks.size());
      GENBASE_RETURN_NOT_OK(sim.Compute([&](int node) -> genbase::Status {
        const linalg::Matrix& b = blocks[static_cast<size_t>(node)];
        GENBASE_ASSIGN_OR_RETURN(
            linalg::Matrix d,
            linalg::Matrix::Create(b.rows(), b.cols() + 1, ctx->memory()));
        for (int64_t i = 0; i < b.rows(); ++i) {
          d(i, 0) = 1.0;
          std::copy(b.Row(i), b.Row(i) + b.cols(), d.Row(i) + 1);
        }
        designs[static_cast<size_t>(node)] = std::move(d);
        return genbase::Status::OK();
      }));
      int64_t rows = 0;
      for (const auto& b : blocks) rows += b.rows();
      GENBASE_ASSIGN_OR_RETURN(
          linalg::LeastSquaresFit fit,
          DistributedLeastSquares(&sim, std::move(designs), y_blocks, ctx));
      out.regression = core::SummarizeFit(
          rows, static_cast<int64_t>(col_ids.size()) + 1, fit);
      break;
    }
    case QueryId::kCovariance: {
      if (options_.mapreduce) sim.ChargeAll(config.mr_job_startup_s);
      int64_t samples = 0;
      for (const auto& b : blocks) samples += b.rows();
      GENBASE_ASSIGN_OR_RETURN(
          linalg::Matrix cov,
          DistributedCovariance(&sim, blocks, options_.quality, ctx));
      genbase::Status root_status = genbase::Status::OK();
      GENBASE_RETURN_NOT_OK(sim.Compute([&](int node) -> genbase::Status {
        if (node != 0) return genbase::Status::OK();
        auto meta = engine::MakeColumnarMetaLookup(
            node_data_[0]->tables.genes);
        auto summary = core::CovarianceThresholdJoin(
            cov, samples, col_ids, meta, params.covariance_quantile, ctx);
        if (!summary.ok()) {
          root_status = summary.status();
          return genbase::Status::OK();
        }
        out.covariance = std::move(summary).ValueOrDie();
        return genbase::Status::OK();
      }));
      GENBASE_RETURN_NOT_OK(root_status);
      break;
    }
    case QueryId::kBiclustering: {
      // The paper's systems did not distribute biclustering: partitions are
      // gathered to the root, which runs the (custom-code) algorithm.
      sim.Gather(0, max_block_bytes);
      int64_t rows = 0;
      for (const auto& b : blocks) rows += b.rows();
      const int64_t cols = blocks[0].cols();
      genbase::Status root_status = genbase::Status::OK();
      GENBASE_RETURN_NOT_OK(sim.Compute([&](int node) -> genbase::Status {
        if (node != 0) return genbase::Status::OK();
        GENBASE_ASSIGN_OR_RETURN(
            linalg::Matrix full,
            linalg::Matrix::Create(rows, cols, ctx->memory()));
        int64_t at = 0;
        for (const auto& b : blocks) {
          for (int64_t i = 0; i < b.rows(); ++i) {
            std::copy(b.Row(i), b.Row(i) + cols, full.Row(at + i));
          }
          at += b.rows();
        }
        std::function<genbase::Status()> hook;
        if (options_.udf_glue) {
          hook = [&sim, &config]() {
            sim.ChargeCompute(0, config.udf_invocation_overhead_s);
            return genbase::Status::OK();
          };
        }
        auto summary = core::BiclusterAnalytics(
            linalg::MatrixView(full), params.bicluster_delta_fraction,
            params.bicluster_count, ctx, std::move(hook));
        if (!summary.ok()) {
          root_status = summary.status();
          return genbase::Status::OK();
        }
        out.bicluster = std::move(summary).ValueOrDie();
        return genbase::Status::OK();
      }));
      GENBASE_RETURN_NOT_OK(root_status);
      break;
    }
    case QueryId::kSvd: {
      const int rank = static_cast<int>(
          std::min<int64_t>(params.svd_rank, blocks[0].cols()));
      GENBASE_ASSIGN_OR_RETURN(
          DistributedSvdResult svd,
          DistributedTruncatedSvd(&sim, blocks, rank, options_.quality,
                                  /*seed=*/42, ctx));
      if (options_.mapreduce) {
        // Mahout's DistributedLanczosSolver: one MapReduce job/iteration.
        sim.ChargeAll(static_cast<double>(svd.iterations) *
                      config.mr_job_startup_s);
      }
      int64_t rows = 0;
      for (const auto& b : blocks) rows += b.rows();
      out.svd.rows = rows;
      out.svd.cols = blocks[0].cols();
      out.svd.rank = rank;
      out.svd.iterations = svd.iterations;
      out.svd.singular_values = std::move(svd.singular_values);
      break;
    }
    case QueryId::kStatistics: {
      // Per-gene sums over the selected sample, node by node in patient
      // order; the root scales them once. Every node holds every gene, so
      // each sizes `sums` alike.
      std::vector<double> sums;
      std::vector<std::vector<int64_t>> memberships;
      int64_t samples = 0;
      GENBASE_RETURN_NOT_OK(sim.Compute([&](int node) -> genbase::Status {
        const NodeData& nd = *node_data_[static_cast<size_t>(node)];
        if (options_.array_native) {
          GENBASE_ASSIGN_OR_RETURN(
              engine::QueryInputs in,
              engine::SelectArray(nd.expression, nd.patients.begin, nd.tables,
                                  query, params, ctx));
          sums.resize(static_cast<size_t>(in.x.cols()));
          for (int64_t i = 0; i < in.x.rows(); ++i) {
            const double* row = in.x.Row(i);
            for (int64_t g = 0; g < in.x.cols(); ++g) {
              sums[static_cast<size_t>(g)] += row[g];
            }
          }
          samples += in.x.rows();
          if (node == 0) {
            memberships = engine::BuildMembershipsColumnar(nd.tables.ontology,
                                                           dims_.go_terms);
          }
          return genbase::Status::OK();
        }
        // Relational nodes select and join as the column store does: sums
        // sit at col_map positions, which node 0's memberships name.
        GENBASE_ASSIGN_OR_RETURN(
            engine::JoinedAccess access,
            engine::BuildJoinedAccess(nd.tables, query, params, ctx,
                                      ctx->memory()));
        sums.resize(static_cast<size_t>(access.col_map.size()));
        samples += access.sample_count;
        if (node == 0) {
          memberships = engine::MemberPositions(nd.tables, access);
        }
        return engine::AccumulateScores(nd.tables, access, sums.data(), ctx);
      }));
      sim.AllReduce(dims_.genes * 8);
      genbase::Status root_status = genbase::Status::OK();
      GENBASE_RETURN_NOT_OK(sim.Compute([&](int node) -> genbase::Status {
        if (node != 0) return genbase::Status::OK();
        const double inv = 1.0 / static_cast<double>(samples);
        for (auto& s : sums) s *= inv;
        auto summary = core::StatsAnalytics(sums, memberships,
                                            params.significance, ctx);
        if (!summary.ok()) {
          root_status = summary.status();
          return genbase::Status::OK();
        }
        out.stats = std::move(summary).ValueOrDie();
        out.stats.samples = samples;
        return genbase::Status::OK();
      }));
      GENBASE_RETURN_NOT_OK(root_status);
      break;
    }
  }

  double analytics_elapsed = sim.elapsed() - phase_start;
  if (options_.phi_offload) {
    // Communication stays on the host network; the per-node compute and
    // the largest partition's PCIe transfer go through the device model.
    const double comm = sim.comm_elapsed() - comm_start;
    analytics_elapsed =
        comm + accel::Coprocessor().OffloadedSeconds(
                   accel::KernelClassFor(query), max_block_bytes,
                   std::max(0.0, analytics_elapsed - comm));
  }
  ctx->clock().AddVirtual(Phase::kAnalytics, analytics_elapsed);
  return out;
}

}  // namespace genbase::cluster
