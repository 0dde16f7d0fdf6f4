#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "bicluster/cheng_church.h"
#include "common/check.h"
#include "common/memory_tracker.h"
#include "common/rng.h"
#include "core/datasets.h"
#include "core/generator.h"
#include "engine/engine_util.h"
#include "linalg/matrix.h"

namespace genbase::bicluster {
namespace {

using linalg::Matrix;
using linalg::MatrixView;

std::vector<int64_t> Iota(int64_t n) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

// --- MSR ------------------------------------------------------------------------

TEST(MsrTest, ConstantMatrixHasZeroResidue) {
  Matrix m(6, 8);
  m.Fill(3.5);
  EXPECT_DOUBLE_EQ(MeanSquaredResidue(MatrixView(m), Iota(6), Iota(8)), 0.0);
}

TEST(MsrTest, AdditiveRowColumnPatternHasZeroResidue) {
  // a_ij = r_i + c_j is the canonical perfect bicluster.
  Matrix m(7, 9);
  for (int64_t i = 0; i < 7; ++i) {
    for (int64_t j = 0; j < 9; ++j) {
      m(i, j) = 2.0 * i + 0.7 * j;
    }
  }
  EXPECT_NEAR(MeanSquaredResidue(MatrixView(m), Iota(7), Iota(9)), 0.0,
              1e-18);
}

TEST(MsrTest, NoiseHasPositiveResidue) {
  Rng rng(1);
  Matrix m(10, 10);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Gaussian();
  EXPECT_GT(MeanSquaredResidue(MatrixView(m), Iota(10), Iota(10)), 0.1);
}

TEST(MsrTest, SubsetSelection) {
  Matrix m(4, 4);
  m.Fill(1.0);
  m(3, 3) = 100.0;  // Outlier outside the selection.
  EXPECT_DOUBLE_EQ(
      MeanSquaredResidue(MatrixView(m), {0, 1, 2}, {0, 1, 2}), 0.0);
}

TEST(MsrTest, EmptySelectionIsZero) {
  Matrix m(3, 3);
  EXPECT_DOUBLE_EQ(MeanSquaredResidue(MatrixView(m), {}, {}), 0.0);
}

// --- ChengChurch -----------------------------------------------------------------

/// Builds noise with a planted additive bicluster on rows [0, pr) and
/// columns [0, pc).
Matrix PlantedMatrix(int64_t rows, int64_t cols, int64_t pr, int64_t pc,
                     uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.Gaussian(0.0, 1.0);
  }
  for (int64_t i = 0; i < pr; ++i) {
    for (int64_t j = 0; j < pc; ++j) {
      m(i, j) = 8.0 + 0.5 * static_cast<double>(i) +
                0.3 * static_cast<double>(j) + rng.Gaussian(0.0, 0.05);
    }
  }
  return m;
}

/// Majority-coherent matrix: rows [0, pr) x cols [0, pc) follow an additive
/// pattern a_ij = r_i + c_j + eps; everything else is unit noise.
Matrix MajorityCoherentMatrix(int64_t rows, int64_t cols, int64_t pr,
                              int64_t pc, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      if (i < pr && j < pc) {
        m(i, j) = 0.5 * static_cast<double>(i) +
                  0.3 * static_cast<double>(j) + rng.Gaussian(0.0, 0.05);
      } else {
        m(i, j) = rng.Gaussian(0.0, 1.0);
      }
    }
  }
  return m;
}

TEST(ChengChurchTest, DeletionPrunesIncoherentMinority) {
  // Cheng-Church deletion keeps the most coherent large submatrix: with a
  // majority additive pattern and a noisy minority of rows/columns, the
  // noise must be pruned and (most of) the coherent block kept. (A *small*
  // deviant block is deleted as an outlier instead — that is the
  // algorithm's documented greedy behavior, not a bug.)
  const Matrix m = MajorityCoherentMatrix(60, 50, 48, 42, 42);
  ChengChurchOptions opt;
  opt.delta = 0.05;
  opt.max_biclusters = 1;
  auto found = ChengChurch(MatrixView(m), opt);
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->size(), 1u);
  const Bicluster& b = (*found)[0];
  int64_t coherent_rows = 0;
  for (int64_t r : b.rows) coherent_rows += r < 48;
  int64_t coherent_cols = 0;
  for (int64_t c : b.cols) coherent_cols += c < 42;
  // Everything kept must be coherent, and a sizable block must survive.
  EXPECT_EQ(coherent_rows, static_cast<int64_t>(b.rows.size()));
  EXPECT_EQ(coherent_cols, static_cast<int64_t>(b.cols.size()));
  EXPECT_GE(coherent_rows, 20);
  EXPECT_GE(coherent_cols, 15);
  EXPECT_LE(b.mean_squared_residue, 0.05 * 1.05);
}

TEST(ChengChurchTest, ResultRespectsDelta) {
  const Matrix m = PlantedMatrix(40, 40, 8, 8, 7);
  ChengChurchOptions opt;
  opt.delta = 0.2;
  opt.max_biclusters = 2;
  auto found = ChengChurch(MatrixView(m), opt);
  ASSERT_TRUE(found.ok());
  for (const auto& b : *found) {
    EXPECT_GE(static_cast<int64_t>(b.rows.size()), opt.min_rows);
    EXPECT_GE(static_cast<int64_t>(b.cols.size()), opt.min_cols);
  }
}

TEST(ChengChurchTest, DeterministicAcrossRuns) {
  const Matrix m = PlantedMatrix(30, 30, 6, 6, 9);
  ChengChurchOptions opt;
  opt.delta = 0.1;
  opt.max_biclusters = 3;
  auto a = ChengChurch(MatrixView(m), opt);
  auto b = ChengChurch(MatrixView(m), opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].rows, (*b)[i].rows);
    EXPECT_EQ((*a)[i].cols, (*b)[i].cols);
    EXPECT_DOUBLE_EQ((*a)[i].mean_squared_residue,
                     (*b)[i].mean_squared_residue);
  }
}

TEST(ChengChurchTest, FindsRequestedNumberOfBiclusters) {
  const Matrix m = PlantedMatrix(50, 40, 10, 8, 11);
  ChengChurchOptions opt;
  opt.delta = 0.3;
  opt.max_biclusters = 4;
  auto found = ChengChurch(MatrixView(m), opt);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->size(), 4u);
}

TEST(ChengChurchTest, PassHookIsInvoked) {
  const Matrix m = PlantedMatrix(30, 30, 6, 6, 13);
  ChengChurchOptions opt;
  opt.delta = 0.05;
  opt.max_biclusters = 1;
  int calls = 0;
  opt.pass_hook = [&calls]() {
    ++calls;
    return genbase::Status::OK();
  };
  ASSERT_TRUE(ChengChurch(MatrixView(m), opt).ok());
  EXPECT_GT(calls, 1);
}

TEST(ChengChurchTest, PassHookErrorAborts) {
  const Matrix m = PlantedMatrix(30, 30, 6, 6, 13);
  ChengChurchOptions opt;
  opt.delta = 0.05;
  opt.pass_hook = []() {
    return genbase::Status::DeadlineExceeded("stop");
  };
  auto result = ChengChurch(MatrixView(m), opt);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
}

TEST(ChengChurchTest, DeadlineAborts) {
  const Matrix m = PlantedMatrix(40, 40, 8, 8, 15);
  ChengChurchOptions opt;
  opt.delta = 1e-9;  // Forces many iterations.
  ExecContext ctx;
  ctx.SetDeadlineAfter(-1.0);
  auto result = ChengChurch(MatrixView(m), opt, &ctx);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
}

TEST(ChengChurchTest, RejectsTooSmallMatrix) {
  Matrix m(1, 1);
  ChengChurchOptions opt;
  EXPECT_FALSE(ChengChurch(MatrixView(m), opt).ok());
}

TEST(ChengChurchTest, RejectsEmptyMatrixEvenWithZeroMinimums) {
  Matrix m(0, 5);
  ChengChurchOptions opt;
  opt.min_rows = 0;
  opt.min_cols = 0;
  auto found = ChengChurch(MatrixView(m), opt);
  ASSERT_FALSE(found.ok());
  EXPECT_EQ(found.status().code(), StatusCode::kInvalidArgument);
  auto prefix = ChengChurchPrefix(MatrixView(m), opt);
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(prefix->first, nullptr);
}

// --- ChengChurchPrefix -----------------------------------------------------------

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

::testing::AssertionResult SameBiclusters(const std::vector<Bicluster>& a,
                                          const std::vector<Bicluster>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << a.size() << " vs " << b.size() << " biclusters";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].rows != b[i].rows || a[i].cols != b[i].cols ||
        !SameBits(a[i].mean_squared_residue, b[i].mean_squared_residue)) {
      return ::testing::AssertionFailure() << "bicluster " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Q3's options: GenBase runs Cheng-Church with 4 x 4 minimum biclusters.
ChengChurchOptions Q3Options() {
  ChengChurchOptions opt;
  opt.min_rows = 4;
  opt.min_cols = 4;
  return opt;
}

/// Multiple node deletion runs only on more than 100 rows or columns:
/// 80 x 400 is Q3's shape at GENBASE_SCALE 0.08 (columns only), 120 x 160
/// deletes both. For each, deltas on both sides of the prefix's guard and
/// Q3's fractions of H(full), at 0, 1 and 3 biclusters: a run with the
/// prefix answers as one without, bit for bit.
TEST(ChengChurchPrefixTest, ContinuesExactlyOnBothSidesOfTheGuard) {
  struct Shape {
    int64_t rows, cols;
  };
  for (const Shape shape : {Shape{80, 400}, Shape{120, 160}}) {
    for (const uint64_t seed : {31, 32, 33}) {
      SCOPED_TRACE(testing::Message() << shape.rows << "x" << shape.cols
                                      << " seed " << seed);
      const Matrix m = PlantedMatrix(shape.rows, shape.cols, 12, 30, seed);
      const MatrixView v(m);
      ChengChurchOptions opt = Q3Options();
      auto prefix = ChengChurchPrefix(v, opt);
      ASSERT_TRUE(prefix.ok()) << prefix.status().ToString();
      ASSERT_NE(prefix->first, nullptr);
      EXPECT_TRUE(SameBits(prefix->full_msr, MeanSquaredResidue(v)));
      std::vector<double> deltas = {prefix->min_h,
                                    std::nextafter(prefix->min_h, 0.0)};
      for (const double f : {0.05, 0.2, 0.35, 0.6, 0.9, 1.5}) {
        deltas.push_back(f * prefix->full_msr);
      }
      int resumed = 0;
      for (const double delta : deltas) {
        resumed += delta < prefix->min_h;
        for (const int count : {0, 1, 3}) {
          opt.delta = delta;
          opt.max_biclusters = count;
          auto plain = ChengChurch(v, opt);
          auto continued = ChengChurch(v, opt, nullptr, &*prefix);
          ASSERT_TRUE(plain.ok() && continued.ok());
          EXPECT_TRUE(SameBiclusters(*plain, *continued))
              << "delta " << delta << " (min_h " << prefix->min_h
              << ") count " << count;
        }
      }
      EXPECT_GT(resumed, 0);
      EXPECT_LT(resumed, static_cast<int>(deltas.size()));
    }
  }
}

/// The prefix keeps the live block multiple node deletion left, not a copy
/// of the input, and keeps no block when the deletion removed nothing (as
/// on at most 100 x 100, where it never runs).
TEST(ChengChurchPrefixTest, KeepsOnlyTheLiveBlock) {
  // 300 noise columns beside an additive 80 x 100 block: deletion drops
  // some of them, and a full-stride copy would hold 80 x 400 doubles.
  const Matrix wide = MajorityCoherentMatrix(80, 400, 80, 100, 34);
  auto p = ChengChurchPrefix(MatrixView(wide), Q3Options());
  ASSERT_TRUE(p.ok());
  EXPECT_GT(p->bytes(), 0);
  EXPECT_LT(p->bytes(), 80 * 400 * 8);

  const Matrix small = PlantedMatrix(20, 100, 6, 10, 35);
  auto q = ChengChurchPrefix(MatrixView(small), Q3Options());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->first, nullptr);
  EXPECT_EQ(q->bytes(), 0);
  for (const double f : {0.2, 0.35, 1.5}) {
    ChengChurchOptions opt = Q3Options();
    opt.delta = f * q->full_msr;
    auto plain = ChengChurch(MatrixView(small), opt);
    auto with = ChengChurch(MatrixView(small), opt, nullptr, &*q);
    ASSERT_TRUE(plain.ok() && with.ok());
    EXPECT_TRUE(SameBiclusters(*plain, *with)) << "fraction " << f;
  }

  Matrix tiny(3, 3);
  auto none = ChengChurchPrefix(MatrixView(tiny), Q3Options());
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->first, nullptr);
  EXPECT_EQ(none->bytes(), 0);
  EXPECT_FALSE(ChengChurch(MatrixView(tiny), Q3Options(), nullptr, &*none)
                   .ok());
}

/// A pass hook, counters and the cross-check see every pass: given a
/// prefix, such a run takes it for nothing and counts what a run without
/// one counts.
TEST(ChengChurchPrefixTest, HooksCountersAndCrossCheckSeeEveryPass) {
  const Matrix m = PlantedMatrix(80, 400, 12, 30, 36);
  const MatrixView v(m);
  ChengChurchOptions opt = Q3Options();
  auto prefix = ChengChurchPrefix(v, opt);
  ASSERT_TRUE(prefix.ok());
  opt.delta = 0.5 * prefix->min_h;  // Below the guard: resumable.
  opt.max_biclusters = 2;
  const auto plain = ChengChurch(v, opt);
  ASSERT_TRUE(plain.ok());

  int calls[2] = {0, 0};
  for (int with_prefix = 0; with_prefix < 2; ++with_prefix) {
    ChengChurchOptions hooked = opt;
    hooked.pass_hook = [&calls, with_prefix]() {
      ++calls[with_prefix];
      return genbase::Status::OK();
    };
    auto r = ChengChurch(v, hooked, nullptr,
                         with_prefix ? &*prefix : nullptr);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(SameBiclusters(*r, *plain));
  }
  EXPECT_EQ(calls[0], calls[1]);

  ChengChurchCounters counted[2];
  for (int with_prefix = 0; with_prefix < 2; ++with_prefix) {
    ChengChurchOptions c = opt;
    c.counters = &counted[with_prefix];
    auto r = ChengChurch(v, c, nullptr, with_prefix ? &*prefix : nullptr);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(SameBiclusters(*r, *plain));
  }
  EXPECT_EQ(counted[0].iterations, counted[1].iterations);
  EXPECT_EQ(counted[0].residue_flops, counted[1].residue_flops);

  ChengChurchOptions checked = opt;
  checked.cross_check = true;
  auto r = ChengChurch(v, checked, nullptr, &*prefix);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(SameBiclusters(*r, *plain));
}

// --- ChengChurchRecord -----------------------------------------------------------

/// Q3's x at GENBASE_SCALE 0.08, the shape serving runs it on (80 x 400):
/// the selected patients' expression over every gene, as the column store
/// and the plan build it.
const Matrix& ServingShapeMatrix() {
  static const Matrix* x = [] {
    auto data = core::GenerateDataset(core::DatasetSize::kSmall, 0.08);
    GENBASE_CHECK(data.ok());
    MemoryTracker tracker(MemoryTracker::kUnlimited, "BiclusterTest");
    engine::ColumnarTables tables;
    GENBASE_CHECK(engine::LoadColumnarTables(*data, &tracker, &tables).ok());
    auto inputs = engine::PrepareInputsColumnar(
        tables, core::QueryId::kBiclustering, core::QueryParams(), nullptr);
    GENBASE_CHECK(inputs.ok());
    return new Matrix(std::move(inputs->x));
  }();
  return *x;
}

ChengChurchOptions Q3Options(double delta, int count) {
  ChengChurchOptions opt = Q3Options();
  opt.delta = delta;
  opt.max_biclusters = count;
  return opt;
}

/// A seeded sweep through one record at the serving shape: 300 deltas
/// drawn over [0, 1] x H(x) plus both ends and both sides of the prefix's
/// guard, at counts 0-3, in shuffled order. Every answer, whether the
/// record ran Cheng-Church or read a piece, equals a fresh run's, bit for
/// bit, and one count's pieces never overlap.
TEST(ChengChurchRecordTest, SweepAnswersAsFreshRuns) {
  const MatrixView v(ServingShapeMatrix());
  ASSERT_GT(v.cols, 100);
  auto prefix = ChengChurchPrefix(v, Q3Options());
  ASSERT_TRUE(prefix.ok());
  ASSERT_NE(prefix->first, nullptr);
  ChengChurchRecord record;
  ASSERT_TRUE(record.Seed(*prefix).ok());
  const double h = prefix->full_msr;
  std::vector<std::pair<double, int>> runs;
  Rng rng(0xb1c1);
  for (int i = 0; i < 300; ++i) {
    const double f = rng.Uniform(0.0, 1.0);
    runs.emplace_back(f * h, static_cast<int>(rng.UniformInt(0, 3)));
  }
  for (int count = 0; count <= 3; ++count) {
    for (const double delta : {0.0, h, prefix->min_h,
                               std::nextafter(prefix->min_h, 0.0)}) {
      runs.emplace_back(delta, count);
    }
  }
  for (size_t i = runs.size() - 1; i > 0; --i) {
    std::swap(runs[i], runs[static_cast<size_t>(
                           rng.UniformInt(0, static_cast<int64_t>(i)))]);
  }
  size_t below_guard = 0;
  for (const auto& [delta, count] : runs) {
    below_guard += delta < prefix->min_h;
    const ChengChurchOptions opt = Q3Options(delta, count);
    auto recorded = record.Run(v, opt);
    auto fresh = ChengChurch(v, opt);
    ASSERT_TRUE(recorded.ok() && fresh.ok());
    EXPECT_TRUE(SameBiclusters(*recorded, *fresh))
        << "delta " << delta << " count " << count;
  }
  EXPECT_GT(below_guard, 0u);
  EXPECT_LT(below_guard, runs.size());

  // Each run that found no piece recorded one.
  const std::vector<ChengChurchRecord::Piece> pieces = record.pieces();
  EXPECT_LT(pieces.size(), runs.size()) << "no run read a piece";
  for (size_t i = 0; i < pieces.size(); ++i) {
    EXPECT_LT(pieces[i].lo, pieces[i].hi);
    for (size_t j = i + 1; j < pieces.size(); ++j) {
      const auto& a = pieces[i];
      const auto& b = pieces[j];
      if (a.max_biclusters != b.max_biclusters) continue;
      EXPECT_TRUE(a.hi <= b.lo || b.hi <= a.lo)
          << "count " << a.max_biclusters << ": [" << a.lo << ", " << a.hi
          << ") overlaps [" << b.lo << ", " << b.hi << ")";
    }
  }
}

/// A piece holds its lo and not its hi: in a record that holds one run's
/// piece, a delta at lo reads it (and a run there records that piece
/// again), a delta at hi runs Cheng-Church, and the piece that run records
/// starts at hi.
TEST(ChengChurchRecordTest, PieceHoldsItsLoAndNotItsHi) {
  const MatrixView v(ServingShapeMatrix());
  auto prefix = ChengChurchPrefix(v, Q3Options());
  ASSERT_TRUE(prefix.ok());
  int checked = 0;
  for (const double f : {0.05, 0.2, 0.35, 0.6, 0.9}) {
    for (const int count : {1, 3}) {
      SCOPED_TRACE(testing::Message() << "fraction " << f << " count "
                                      << count);
      ChengChurchRecord first;
      ASSERT_TRUE(first.Seed(*prefix).ok());
      ASSERT_TRUE(first.Run(v, Q3Options(f * prefix->full_msr, count)).ok());
      ASSERT_EQ(first.pieces().size(), 1u);
      const ChengChurchRecord::Piece piece = first.pieces()[0];
      if (!std::isfinite(piece.lo) || !std::isfinite(piece.hi)) continue;
      ++checked;

      ChengChurchRecord record;
      ASSERT_TRUE(record.Seed(*prefix).ok());
      ASSERT_TRUE(record.Run(v, Q3Options(piece.lo, count)).ok());
      ASSERT_EQ(record.pieces().size(), 1u);
      EXPECT_EQ(record.pieces()[0].lo, piece.lo);
      EXPECT_EQ(record.pieces()[0].hi, piece.hi);

      // Any Cheng-Church pass fails under a passed deadline, so a run
      // that answers under it read a recorded piece.
      ExecContext expired;
      expired.SetDeadlineAfter(-1.0);
      auto at_lo = record.Run(v, Q3Options(piece.lo, count), &expired);
      ASSERT_TRUE(at_lo.ok()) << at_lo.status().ToString();
      EXPECT_TRUE(SameBiclusters(*at_lo, piece.biclusters));
      auto at_hi = record.Run(v, Q3Options(piece.hi, count), &expired);
      ASSERT_FALSE(at_hi.ok()) << "a delta at hi read the piece";
      EXPECT_TRUE(at_hi.status().IsDeadlineExceeded());

      auto ran = record.Run(v, Q3Options(piece.hi, count));
      auto fresh = ChengChurch(v, Q3Options(piece.hi, count));
      ASSERT_TRUE(ran.ok() && fresh.ok());
      EXPECT_TRUE(SameBiclusters(*ran, *fresh));
      const std::vector<ChengChurchRecord::Piece> both = record.pieces();
      ASSERT_EQ(both.size(), 2u);
      EXPECT_EQ(both[1].lo, piece.hi);
    }
  }
  EXPECT_GT(checked, 0);
}

/// A NaN or infinite delta, and a matrix with a NaN cell (whose H, and so
/// every delta Q3 derives from it, is NaN), run Cheng-Church and record
/// nothing.
TEST(ChengChurchRecordTest, NonFiniteDeltasRunAndRecordNothing) {
  const MatrixView v(ServingShapeMatrix());
  auto prefix = ChengChurchPrefix(v, Q3Options());
  ASSERT_TRUE(prefix.ok());
  ChengChurchRecord record;
  ASSERT_TRUE(record.Seed(*prefix).ok());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double delta :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    const ChengChurchOptions opt = Q3Options(delta, 2);
    auto recorded = record.Run(v, opt);
    auto fresh = ChengChurch(v, opt);
    ASSERT_TRUE(recorded.ok() && fresh.ok());
    EXPECT_TRUE(SameBiclusters(*recorded, *fresh)) << "delta " << delta;
  }
  EXPECT_TRUE(record.pieces().empty());

  Matrix holed = ServingShapeMatrix();
  holed(3, 5) = std::numeric_limits<double>::quiet_NaN();
  const MatrixView hv(holed);
  auto holed_prefix = ChengChurchPrefix(hv, Q3Options());
  ASSERT_TRUE(holed_prefix.ok());
  ASSERT_TRUE(std::isnan(holed_prefix->full_msr));
  ChengChurchRecord holed_record;
  ASSERT_TRUE(holed_record.Seed(*holed_prefix).ok());
  const ChengChurchOptions opt =
      Q3Options(0.35 * holed_record.prefix().full_msr, 2);
  auto recorded = holed_record.Run(hv, opt);
  auto fresh = ChengChurch(hv, opt);
  ASSERT_TRUE(recorded.ok() && fresh.ok());
  EXPECT_TRUE(SameBiclusters(*recorded, *fresh));
  EXPECT_TRUE(holed_record.pieces().empty());
}

/// The record charges its account: a seed the account refuses fails, and
/// a piece it refuses is not recorded while the run still answers.
TEST(ChengChurchRecordTest, RefusedGrowthStillAnswers) {
  const MatrixView v(ServingShapeMatrix());
  auto prefix = ChengChurchPrefix(v, Q3Options());
  ASSERT_TRUE(prefix.ok());
  ASSERT_GT(prefix->bytes(), 0);

  MemoryTracker tight(prefix->bytes() - 1, "BiclusterTest");
  GrowingReservation refusing(&tight);
  ChengChurchRecord unseeded(&refusing);
  const genbase::Status seeded = unseeded.Seed(*prefix);
  EXPECT_EQ(seeded.code(), StatusCode::kOutOfMemory) << seeded.ToString();
  EXPECT_EQ(tight.used(), 0);

  MemoryTracker exact(prefix->bytes(), "BiclusterTest");
  GrowingReservation account(&exact);
  ChengChurchRecord record(&account);
  ASSERT_TRUE(record.Seed(*prefix).ok());
  const ChengChurchOptions opt = Q3Options(0.35 * prefix->full_msr, 2);
  auto recorded = record.Run(v, opt);  // No context: the copy is uncharged.
  auto fresh = ChengChurch(v, opt);
  ASSERT_TRUE(recorded.ok() && fresh.ok());
  EXPECT_TRUE(SameBiclusters(*recorded, *fresh));
  EXPECT_TRUE(record.pieces().empty());
  EXPECT_EQ(exact.used(), prefix->bytes());
  EXPECT_EQ(account.bytes(), prefix->bytes());
}

}  // namespace
}  // namespace genbase::bicluster
