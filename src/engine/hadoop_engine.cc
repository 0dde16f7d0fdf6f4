#include "engine/hadoop_engine.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "core/config.h"
#include "relational/restructure.h"
#include "relational/row_ops.h"

namespace genbase::engine {

namespace {

using core::GeneCols;
using core::MicroarrayCols;
using core::PatientCols;
using relational::DenseMapping;
using relational::MakeDenseMapping;
using relational::RowSatisfies;
using storage::Value;

constexpr int64_t kIoChunkRows = 64 * 1024;

/// One binary microarray record on "HDFS".
struct TripleRec {
  int64_t patient_id;
  int64_t gene_id;
  double expr;
};

void ChargeJobStartup(ExecContext* ctx, Phase phase) {
  if (ctx != nullptr) {
    ctx->clock().AddVirtual(phase,
                            core::SimConfig::Get().mr_job_startup_s);
  }
}

/// One 8-byte field word: the int64, or the double's bits.
int64_t Word(const Value& v) {
  if (v.type == storage::DataType::kInt64) return v.AsInt();
  const double d = v.AsDouble();
  int64_t w;
  std::memcpy(&w, &d, sizeof(w));
  return w;
}

Value FromWord(storage::DataType type, int64_t w) {
  if (type == storage::DataType::kInt64) return Value::Int(w);
  double d;
  std::memcpy(&d, &w, sizeof(d));
  return Value::Double(d);
}

}  // namespace

genbase::Status HadoopEngine::HdfsTable::Write(
    const storage::ColumnTable& table) {
  schema = table.schema();
  rows = table.num_rows();
  GENBASE_ASSIGN_OR_RETURN(file, SpillFile::Create());
  std::vector<int64_t> words(static_cast<size_t>(schema.num_fields()));
  for (int64_t r = 0; r < rows; ++r) {
    for (int c = 0; c < schema.num_fields(); ++c) {
      words[static_cast<size_t>(c)] = Word(table.Get(r, c));
    }
    GENBASE_RETURN_NOT_OK(file.WriteInts(words.data(), schema.num_fields()));
  }
  return file.FinishWrite();
}

genbase::Status HadoopEngine::HdfsTable::Scan(
    const std::function<void(const std::vector<Value>&)>& fn) {
  GENBASE_RETURN_NOT_OK(file.Rewind());
  std::vector<int64_t> words(static_cast<size_t>(schema.num_fields()));
  std::vector<Value> row(words.size());
  for (int64_t r = 0; r < rows; ++r) {
    GENBASE_RETURN_NOT_OK(file.ReadInts(words.data(), schema.num_fields()));
    for (int c = 0; c < schema.num_fields(); ++c) {
      row[static_cast<size_t>(c)] =
          FromWord(schema.field(c).type, words[static_cast<size_t>(c)]);
    }
    fn(row);
  }
  return genbase::Status::OK();
}

HadoopEngine::HadoopEngine()
    : tracker_(MemoryTracker::kUnlimited, "Hadoop") {}

genbase::Status HadoopEngine::DoLoadDataset(const core::GenBaseData& data) {
  DoUnloadDataset();
  auto hdfs = std::make_unique<Hdfs>();
  hdfs->dims = data.dims;

  {
    GENBASE_ASSIGN_OR_RETURN(hdfs->microarray, SpillFile::Create());
    const auto& pid = data.microarray.IntColumn(MicroarrayCols::kPatientId);
    const auto& gid = data.microarray.IntColumn(MicroarrayCols::kGeneId);
    const auto& expr = data.microarray.DoubleColumn(MicroarrayCols::kExpr);
    std::vector<TripleRec> buf;
    buf.reserve(kIoChunkRows);
    for (size_t i = 0; i < pid.size(); ++i) {
      buf.push_back({pid[i], gid[i], expr[i]});
      if (static_cast<int64_t>(buf.size()) == kIoChunkRows) {
        GENBASE_RETURN_NOT_OK(hdfs->microarray.Write(
            buf.data(), static_cast<int64_t>(buf.size() * sizeof(TripleRec))));
        buf.clear();
      }
    }
    if (!buf.empty()) {
      GENBASE_RETURN_NOT_OK(hdfs->microarray.Write(
          buf.data(), static_cast<int64_t>(buf.size() * sizeof(TripleRec))));
    }
    hdfs->microarray_rows = static_cast<int64_t>(pid.size());
    GENBASE_RETURN_NOT_OK(hdfs->microarray.FinishWrite());
  }
  GENBASE_RETURN_NOT_OK(hdfs->patients.Write(data.patients));
  GENBASE_RETURN_NOT_OK(hdfs->genes.Write(data.genes));
  hdfs_ = std::move(hdfs);
  return genbase::Status::OK();
}

void HadoopEngine::DoUnloadDataset() {
  hdfs_.reset();
  tracker_.Reset();
}

void HadoopEngine::PrepareContext(ExecContext* ctx) {
  ctx->set_memory(&tracker_);
  ctx->set_pool(nullptr);  // Mahout kernels: no shared-memory parallelism.
}

genbase::Result<SpillFile> HadoopEngine::HiveFilterJoin(
    core::QueryId query, const core::QueryParams& params,
    std::vector<int64_t>* row_ids, std::vector<int64_t>* col_ids,
    std::vector<double>* y, int64_t* matched_rows, ExecContext* ctx) {
  Hdfs& h = *hdfs_;
  ScopedPhase dm(ctx, Phase::kDataManagement);

  // Job 1: scan both dimension tables; the selection filters its side,
  // whose survivors are broadcast to the join ("Hive has only rudimentary
  // query optimization" — but a broadcast join of a small dimension table is
  // standard).
  ChargeJobStartup(ctx, Phase::kDataManagement);
  const Selection sel = SelectionFor(query, params, h.dims);
  std::vector<std::pair<int64_t, double>> patients;  // (id, drug response)
  GENBASE_RETURN_NOT_OK(h.genes.Scan([&](const std::vector<Value>& r) {
    if (!sel.on_genes || RowSatisfies(sel.predicates, r)) {
      col_ids->push_back(r[GeneCols::kGeneId].AsInt());
    }
  }));
  GENBASE_RETURN_NOT_OK(h.patients.Scan([&](const std::vector<Value>& r) {
    if (sel.on_genes || RowSatisfies(sel.predicates, r)) {
      patients.emplace_back(r[PatientCols::kPatientId].AsInt(),
                            r[PatientCols::kDrugResponse].AsDouble());
    }
  }));
  std::sort(col_ids->begin(), col_ids->end());
  std::sort(patients.begin(), patients.end());
  for (const auto& [id, response] : patients) {
    row_ids->push_back(id);
    if (y != nullptr) y->push_back(response);
  }
  const std::vector<int64_t>& selected = sel.on_genes ? *col_ids : *row_ids;
  const std::unordered_set<int64_t> filter_ids(selected.begin(),
                                               selected.end());

  // Job 2: map over the fact file, join against the broadcast filter, and
  // materialize matched triples back to disk (the reduce output).
  ChargeJobStartup(ctx, Phase::kDataManagement);
  GENBASE_ASSIGN_OR_RETURN(SpillFile matched, SpillFile::Create());
  GENBASE_RETURN_NOT_OK(h.microarray.Rewind());
  *matched_rows = 0;
  std::vector<TripleRec> in_buf(kIoChunkRows);
  std::vector<TripleRec> out_buf;
  out_buf.reserve(kIoChunkRows);
  int64_t remaining = h.microarray_rows;
  while (remaining > 0) {
    if (ctx != nullptr) GENBASE_RETURN_NOT_OK(ctx->CheckBudgets());
    const int64_t n = std::min<int64_t>(remaining, kIoChunkRows);
    GENBASE_RETURN_NOT_OK(h.microarray.Read(
        in_buf.data(), n * static_cast<int64_t>(sizeof(TripleRec))));
    for (int64_t i = 0; i < n; ++i) {
      const int64_t key =
          sel.on_genes ? in_buf[i].gene_id : in_buf[i].patient_id;
      if (filter_ids.count(key) == 0) continue;
      out_buf.push_back(in_buf[static_cast<size_t>(i)]);
      ++*matched_rows;
      if (static_cast<int64_t>(out_buf.size()) == kIoChunkRows) {
        GENBASE_RETURN_NOT_OK(matched.Write(
            out_buf.data(),
            static_cast<int64_t>(out_buf.size() * sizeof(TripleRec))));
        out_buf.clear();
      }
    }
    remaining -= n;
  }
  if (!out_buf.empty()) {
    GENBASE_RETURN_NOT_OK(matched.Write(
        out_buf.data(),
        static_cast<int64_t>(out_buf.size() * sizeof(TripleRec))));
  }
  GENBASE_RETURN_NOT_OK(matched.FinishWrite());
  return matched;
}

genbase::Result<core::QueryResult> HadoopEngine::RunQuery(
    core::QueryId query, const core::QueryParams& params, ExecContext* ctx) {
  if (hdfs_ == nullptr) return genbase::Status::Internal("not loaded");
  if (!SupportsQuery(query)) {
    return genbase::Status::NotSupported(
        "Mahout lacks this analytics function");
  }
  const auto& config = core::SimConfig::Get();
  QueryInputs inputs;
  int64_t matched_rows = 0;
  GENBASE_ASSIGN_OR_RETURN(
      SpillFile matched,
      HiveFilterJoin(query, params, &inputs.row_ids, &inputs.col_ids,
                     query == core::QueryId::kRegression ? &inputs.y
                                                         : nullptr,
                     &matched_rows, ctx));

  // Job 3: restructure the matched triples into a dense matrix, then
  // materialize it for the Hive -> Mahout handoff (SequenceFile style) and
  // read it back.
  {
    ScopedPhase dm(ctx, Phase::kDataManagement);
    ChargeJobStartup(ctx, Phase::kDataManagement);
    const DenseMapping row_map = MakeDenseMapping(inputs.row_ids);
    const DenseMapping col_map = MakeDenseMapping(inputs.col_ids);
    GENBASE_ASSIGN_OR_RETURN(
        linalg::Matrix m,
        linalg::Matrix::Create(row_map.size(), col_map.size(),
                               ctx != nullptr ? ctx->memory() : nullptr));
    GENBASE_RETURN_NOT_OK(matched.Rewind());
    std::vector<TripleRec> buf(kIoChunkRows);
    int64_t remaining = matched_rows;
    while (remaining > 0) {
      const int64_t n = std::min<int64_t>(remaining, kIoChunkRows);
      GENBASE_RETURN_NOT_OK(matched.Read(
          buf.data(), n * static_cast<int64_t>(sizeof(TripleRec))));
      for (int64_t i = 0; i < n; ++i) {
        const auto rit = row_map.index.find(buf[i].patient_id);
        const auto cit = col_map.index.find(buf[i].gene_id);
        if (rit == row_map.index.end() || cit == col_map.index.end()) {
          continue;
        }
        m(rit->second, cit->second) = buf[static_cast<size_t>(i)].expr;
      }
      remaining -= n;
    }
    // Handoff materialization: write the dense matrix, read it back.
    GENBASE_ASSIGN_OR_RETURN(SpillFile handoff, SpillFile::Create());
    GENBASE_RETURN_NOT_OK(handoff.WriteDoubles(m.data(), m.size()));
    GENBASE_RETURN_NOT_OK(handoff.FinishWrite());
    GENBASE_RETURN_NOT_OK(handoff.ReadDoubles(m.data(), m.size()));
    inputs.x = std::move(m);
  }

  // Q2 needs the metadata access path for the qualifying-pair join: another
  // pass over the genes file into a broadcast hash.
  if (query == core::QueryId::kCovariance) {
    ScopedPhase dm(ctx, Phase::kDataManagement);
    ChargeJobStartup(ctx, Phase::kDataManagement);
    auto index = std::make_shared<GeneMetaIndex>();
    GENBASE_RETURN_NOT_OK(
        hdfs_->genes.Scan([&index](const std::vector<Value>& r) {
          (*index)[r[GeneCols::kGeneId].AsInt()] = {
              r[GeneCols::kFunction].AsInt(), r[GeneCols::kLength].AsInt()};
        }));
    inputs.meta = MakeMetaLookup(std::move(index));
  }

  // Mahout job(s): naive kernels, one job startup — plus, for Lanczos, one
  // job per iteration (Mahout's DistributedLanczosSolver).
  ChargeJobStartup(ctx, Phase::kAnalytics);
  GENBASE_ASSIGN_OR_RETURN(
      core::QueryResult result,
      RunStandardAnalytics(query, std::move(inputs), params,
                           linalg::KernelQuality::kNaive, ctx));
  if (query == core::QueryId::kSvd && ctx != nullptr) {
    ctx->clock().AddVirtual(
        Phase::kAnalytics,
        static_cast<double>(result.svd.iterations) * config.mr_job_startup_s);
  }
  return result;
}

}  // namespace genbase::engine
