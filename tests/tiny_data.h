#ifndef GENBASE_TESTS_TINY_DATA_H_
#define GENBASE_TESTS_TINY_DATA_H_

// The tiny dataset and query parameters most suites run on: the small
// dataset at scale 0.008 (40 genes x 40 patients), generated once per test
// binary, and parameters sized so every query has work at that scale.

#include <utility>

#include "common/check.h"
#include "core/datasets.h"
#include "core/generator.h"
#include "core/queries.h"

namespace genbase::testutil {

inline constexpr double kTinyScale = 0.008;

inline const core::GenBaseData& TinyData() {
  static const core::GenBaseData* data = [] {
    auto r = core::GenerateDataset(core::DatasetSize::kSmall, kTinyScale);
    GENBASE_CHECK(r.ok());
    return new core::GenBaseData(std::move(r).ValueOrDie());
  }();
  return *data;
}

inline core::QueryParams TinyParams() {
  core::QueryParams p;
  p.svd_rank = 6;
  p.bicluster_count = 2;
  p.sample_fraction = 0.1;  // Enough samples at tiny scale.
  return p;
}

}  // namespace genbase::testutil

#endif  // GENBASE_TESTS_TINY_DATA_H_
