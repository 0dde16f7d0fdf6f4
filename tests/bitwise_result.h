#ifndef GENBASE_TESTS_BITWISE_RESULT_H_
#define GENBASE_TESTS_BITWISE_RESULT_H_

// Bitwise comparison of whole query answers, shared by the plan tests and
// the plan-cache stress test. Equality at the bit level, not within
// tolerance: planned kernels share the exact inner implementations with the
// legacy path, so every double must match bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/queries.h"

namespace genbase::testutil {

inline bool BitEq(double a, double b) {
  uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

inline bool BitEq(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitEq(a[i], b[i])) return false;
  }
  return true;
}

/// Every field of every summary, whichever query `a` answers.
inline ::testing::AssertionResult BitwiseEqual(const core::QueryResult& a,
                                               const core::QueryResult& b) {
  const auto fail = [&](const char* what) {
    return ::testing::AssertionFailure()
           << what << " differs:\n  planned: " << a.ToString()
           << "\n  legacy:  " << b.ToString();
  };
  if (a.query != b.query) return fail("query id");
  const auto& ar = a.regression;
  const auto& br = b.regression;
  if (ar.rows != br.rows || ar.predictors != br.predictors ||
      !BitEq(ar.r_squared, br.r_squared) || !BitEq(ar.coef_l2, br.coef_l2) ||
      !BitEq(ar.coef_head, br.coef_head)) {
    return fail("regression summary");
  }
  const auto& ac = a.covariance;
  const auto& bc = b.covariance;
  if (ac.samples != bc.samples || ac.genes != bc.genes ||
      ac.pairs_above != bc.pairs_above ||
      !BitEq(ac.threshold, bc.threshold) ||
      !BitEq(ac.cov_checksum, bc.cov_checksum) ||
      !BitEq(ac.meta_checksum, bc.meta_checksum)) {
    return fail("covariance summary");
  }
  const auto& ab = a.bicluster;
  const auto& bb = b.bicluster;
  if (ab.matrix_rows != bb.matrix_rows || ab.matrix_cols != bb.matrix_cols ||
      !BitEq(ab.delta, bb.delta) ||
      ab.biclusters.size() != bb.biclusters.size()) {
    return fail("bicluster summary");
  }
  for (size_t i = 0; i < ab.biclusters.size(); ++i) {
    if (ab.biclusters[i].rows != bb.biclusters[i].rows ||
        ab.biclusters[i].cols != bb.biclusters[i].cols ||
        !BitEq(ab.biclusters[i].msr, bb.biclusters[i].msr)) {
      return fail("bicluster entry");
    }
  }
  const auto& as = a.svd;
  const auto& bs = b.svd;
  if (as.rows != bs.rows || as.cols != bs.cols || as.rank != bs.rank ||
      as.iterations != bs.iterations ||
      !BitEq(as.singular_values, bs.singular_values)) {
    return fail("svd summary");
  }
  const auto& at = a.stats;
  const auto& bt = b.stats;
  if (at.samples != bt.samples || at.genes_ranked != bt.genes_ranked ||
      at.terms_tested != bt.terms_tested ||
      at.significant_terms != bt.significant_terms ||
      !BitEq(at.z_abs_sum, bt.z_abs_sum)) {
    return fail("stats summary");
  }
  return ::testing::AssertionSuccess();
}

}  // namespace genbase::testutil

#endif  // GENBASE_TESTS_BITWISE_RESULT_H_
