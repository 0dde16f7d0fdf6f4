#include <gtest/gtest.h>

#include <cmath>

#include "core/config.h"
#include "core/datasets.h"
#include "core/generator.h"
#include "core/queries.h"
#include "core/reference.h"
#include "core/verify.h"
#include "tiny_data.h"  // Same directory.

namespace genbase::core {
namespace {

using testutil::TinyData;
using testutil::TinyParams;
using testutil::kTinyScale;

// --- dims / datasets ------------------------------------------------------------

TEST(DatasetsTest, PaperDimsAtFullScale) {
  const DatasetDims small = DimsFor(DatasetSize::kSmall, 1.0);
  EXPECT_EQ(small.genes, 5000);
  EXPECT_EQ(small.patients, 5000);
  const DatasetDims large = DimsFor(DatasetSize::kLarge, 1.0);
  EXPECT_EQ(large.genes, 30000);
  EXPECT_EQ(large.patients, 40000);
  const DatasetDims xl = DimsFor(DatasetSize::kXLarge, 1.0);
  EXPECT_EQ(xl.genes, 60000);
  EXPECT_EQ(xl.patients, 70000);
}

TEST(DatasetsTest, ScaleShrinksLinearly) {
  const DatasetDims d = DimsFor(DatasetSize::kMedium, 0.1);
  EXPECT_EQ(d.genes, 1500);
  EXPECT_EQ(d.patients, 2000);
}

TEST(DatasetsTest, MinimumDimsEnforced) {
  const DatasetDims d = DimsFor(DatasetSize::kSmall, 1e-9);
  EXPECT_GE(d.genes, 20);
  EXPECT_GE(d.patients, 20);
  EXPECT_GE(d.go_terms, 5);
}

TEST(DatasetsTest, SchemasMatchPaperSection31) {
  EXPECT_EQ(MicroarraySchema().ToString(),
            "(gene_id:int64, patient_id:int64, expr:double)");
  EXPECT_EQ(PatientMetaSchema().num_fields(), 6);
  EXPECT_EQ(GeneMetaSchema().num_fields(), 5);
  EXPECT_EQ(GeneOntologySchema().num_fields(), 3);
}

// --- generator -------------------------------------------------------------------

TEST(GeneratorTest, RowCountsMatchDims) {
  const GenBaseData& d = TinyData();
  EXPECT_EQ(d.microarray.num_rows(), d.dims.cells());
  EXPECT_EQ(d.patients.num_rows(), d.dims.patients);
  EXPECT_EQ(d.genes.num_rows(), d.dims.genes);
  EXPECT_EQ(d.ontology.num_rows(),
            d.dims.genes * d.dims.go_terms_per_gene);
}

TEST(GeneratorTest, DeterministicAcrossCalls) {
  auto a = GenerateDataset(DatasetSize::kSmall, kTinyScale);
  auto b = GenerateDataset(DatasetSize::kSmall, kTinyScale);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto& ea = a->microarray.DoubleColumn(MicroarrayCols::kExpr);
  const auto& eb = b->microarray.DoubleColumn(MicroarrayCols::kExpr);
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); i += 97) EXPECT_EQ(ea[i], eb[i]);
  EXPECT_EQ(a->patients.DoubleColumn(PatientCols::kDrugResponse),
            b->patients.DoubleColumn(PatientCols::kDrugResponse));
}

TEST(GeneratorTest, SeedChangesData) {
  GeneratorOptions opt;
  opt.seed = 999;
  auto a = GenerateDataset(DatasetSize::kSmall, kTinyScale, opt);
  ASSERT_TRUE(a.ok());
  const auto& ea = a->microarray.DoubleColumn(MicroarrayCols::kExpr);
  const auto& eb = TinyData().microarray.DoubleColumn(MicroarrayCols::kExpr);
  int differing = 0;
  for (size_t i = 0; i < ea.size(); i += 13) differing += ea[i] != eb[i];
  EXPECT_GT(differing, 10);
}

TEST(GeneratorTest, MetadataInRanges) {
  const GenBaseData& d = TinyData();
  for (int64_t i = 0; i < d.patients.num_rows(); ++i) {
    const int64_t age = d.patients.IntColumn(PatientCols::kAge)[i];
    EXPECT_GE(age, 0);
    EXPECT_LE(age, 99);
    const int64_t disease =
        d.patients.IntColumn(PatientCols::kDiseaseId)[i];
    EXPECT_GE(disease, 1);
    EXPECT_LE(disease, d.dims.diseases);
    const int64_t gender = d.patients.IntColumn(PatientCols::kGender)[i];
    EXPECT_TRUE(gender == 0 || gender == 1);
  }
  for (int64_t i = 0; i < d.genes.num_rows(); ++i) {
    const int64_t fn = d.genes.IntColumn(GeneCols::kFunction)[i];
    EXPECT_GE(fn, 0);
    EXPECT_LT(fn, d.dims.functions);
  }
  for (int64_t i = 0; i < d.ontology.num_rows(); ++i) {
    const int64_t t = d.ontology.IntColumn(GoCols::kGoId)[i];
    EXPECT_GE(t, 0);
    EXPECT_LT(t, d.dims.go_terms);
    EXPECT_EQ(d.ontology.IntColumn(GoCols::kBelongs)[i], 1);
  }
}

// --- selections ------------------------------------------------------------------

TEST(SelectionTest, GenesByFunctionMatchesScan) {
  const GenBaseData& d = TinyData();
  const auto sel = SelectGenesByFunction(d, 250);
  const auto& fn = d.genes.IntColumn(GeneCols::kFunction);
  int64_t expected = 0;
  for (int64_t v : fn) expected += v < 250;
  EXPECT_EQ(static_cast<int64_t>(sel.size()), expected);
  EXPECT_TRUE(std::is_sorted(sel.begin(), sel.end()));
}

TEST(SelectionTest, SampleCountFloorsAtTwo) {
  EXPECT_EQ(SampleCount(1000, 0.0025), 3);
  EXPECT_EQ(SampleCount(100, 0.0025), 2);
  EXPECT_EQ(SampleCount(40000, 0.0025), 100);
}

TEST(SelectionTest, PatientsByDiseaseNonTrivial) {
  const GenBaseData& d = TinyData();
  const auto sel = SelectPatientsByDisease(d, 7);
  for (int64_t id : sel) {
    EXPECT_EQ(d.patients.IntColumn(PatientCols::kDiseaseId)[id], 7);
  }
}

// --- reference queries ------------------------------------------------------------

TEST(ReferenceTest, RegressionFindsSignal) {
  auto r = RunReferenceQuery(QueryId::kRegression, TinyData(), TinyParams());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The generator plants causal genes; with most genes included the fit
  // must explain much of the variance.
  EXPECT_GT(r->regression.r_squared, 0.5);
  EXPECT_LE(r->regression.r_squared, 1.0 + 1e-12);
  EXPECT_EQ(r->regression.rows, TinyData().dims.patients);
  EXPECT_GT(r->regression.predictors, 0);
}

TEST(ReferenceTest, CovarianceThresholdKeepsRoughlyTopDecile) {
  auto r = RunReferenceQuery(QueryId::kCovariance, TinyData(), TinyParams());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& c = r->covariance;
  const int64_t genes = c.genes;
  const int64_t pairs = genes * (genes - 1) / 2;
  EXPECT_GT(c.pairs_above, 0);
  EXPECT_LT(c.pairs_above, pairs / 5);  // ~10% expected.
  EXPECT_GT(c.meta_checksum, 0.0);
}

TEST(ReferenceTest, BiclusterFindsPlantedStructure) {
  auto r = RunReferenceQuery(QueryId::kBiclustering, TinyData(),
                             TinyParams());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->bicluster.biclusters.empty());
  for (const auto& b : r->bicluster.biclusters) {
    EXPECT_GE(b.rows, 4);
    EXPECT_GE(b.cols, 4);
  }
}

TEST(ReferenceTest, SvdSingularValuesDescendAndReflectFactors) {
  auto r = RunReferenceQuery(QueryId::kSvd, TinyData(), TinyParams());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& sv = r->svd.singular_values;
  ASSERT_EQ(static_cast<int>(sv.size()), r->svd.rank);
  for (size_t i = 1; i < sv.size(); ++i) EXPECT_LE(sv[i], sv[i - 1] + 1e-9);
  EXPECT_GT(sv[0], 0.0);
}

TEST(ReferenceTest, StatisticsTestsAllTerms) {
  auto r = RunReferenceQuery(QueryId::kStatistics, TinyData(), TinyParams());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.terms_tested, TinyData().dims.go_terms);
  EXPECT_GE(r->stats.significant_terms, 0);
  EXPECT_LE(r->stats.significant_terms, r->stats.terms_tested);
  EXPECT_GT(r->stats.z_abs_sum, 0.0);
}

TEST(ReferenceTest, DeterministicResults) {
  auto a = RunReferenceQuery(QueryId::kSvd, TinyData(), TinyParams());
  auto b = RunReferenceQuery(QueryId::kSvd, TinyData(), TinyParams());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(CompareQueryResults(*a, *b, 1e-14).ok());
}

// --- verify ----------------------------------------------------------------------

TEST(VerifyTest, DetectsRegressionMismatch) {
  QueryResult a, b;
  a.query = b.query = QueryId::kRegression;
  a.regression.rows = b.regression.rows = 10;
  a.regression.predictors = b.regression.predictors = 3;
  a.regression.r_squared = 0.5;
  b.regression.r_squared = 0.9;
  EXPECT_FALSE(CompareQueryResults(a, b).ok());
  b.regression.r_squared = 0.5 + 1e-9;
  EXPECT_TRUE(CompareQueryResults(a, b).ok());
}

TEST(VerifyTest, DetectsQueryKindMismatch) {
  QueryResult a, b;
  a.query = QueryId::kSvd;
  b.query = QueryId::kCovariance;
  EXPECT_FALSE(CompareQueryResults(a, b).ok());
}

TEST(VerifyTest, CovariancePairSlack) {
  QueryResult a, b;
  a.query = b.query = QueryId::kCovariance;
  a.covariance.pairs_above = 100000;
  b.covariance.pairs_above = 100001;  // Within slack.
  EXPECT_TRUE(CompareQueryResults(a, b).ok());
  b.covariance.pairs_above = 100500;  // Outside slack.
  EXPECT_FALSE(CompareQueryResults(a, b).ok());
}

// --- config ----------------------------------------------------------------------

TEST(ConfigTest, DefaultsSane) {
  const SimConfig& c = SimConfig::Get();
  EXPECT_GT(c.scale, 0.0);
  EXPECT_GT(c.timeout_seconds, 0.0);
  EXPECT_EQ(c.r_max_cells, (1LL << 31) - 1);
  EXPECT_GT(c.net_bandwidth_bytes_per_s, 0.0);
}

}  // namespace
}  // namespace genbase::core
