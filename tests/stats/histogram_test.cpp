#include "stats/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/prng.hpp"

namespace obscorr::stats {
namespace {

TEST(LogHistogramTest, EmptyInput) {
  const LogHistogram h = LogHistogram::from_degrees({});
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.bin_count(), 0);
  EXPECT_EQ(h.max_degree(), 0u);
  EXPECT_TRUE(h.differential_cumulative().empty());
}

TEST(LogHistogramTest, SubUnitDegreesIgnored) {
  const std::vector<double> degrees{0.0, 0.5, 0.99};
  const LogHistogram h = LogHistogram::from_degrees(degrees);
  EXPECT_EQ(h.total(), 0u);
}

TEST(LogHistogramTest, BinAssignment) {
  const std::vector<double> degrees{1, 1, 2, 3, 4, 7, 8, 1024};
  const LogHistogram h = LogHistogram::from_degrees(degrees);
  EXPECT_EQ(h.total(), 8u);
  EXPECT_EQ(h.count(0), 2u);   // d=1
  EXPECT_EQ(h.count(1), 2u);   // d=2,3
  EXPECT_EQ(h.count(2), 2u);   // d=4,7
  EXPECT_EQ(h.count(3), 1u);   // d=8
  EXPECT_EQ(h.count(10), 1u);  // d=1024
  EXPECT_EQ(h.count(5), 0u);
  EXPECT_EQ(h.count(-1), 0u);
  EXPECT_EQ(h.count(99), 0u);
  EXPECT_EQ(h.max_degree(), 1024u);
  EXPECT_EQ(h.bin_count(), 11);
}

TEST(LogHistogramTest, DifferentialCumulativeSumsToOne) {
  Rng rng(3);
  std::vector<double> degrees;
  for (int i = 0; i < 10000; ++i) {
    degrees.push_back(static_cast<double>(1 + rng.uniform_u64(100000)));
  }
  const LogHistogram h = LogHistogram::from_degrees(degrees);
  const auto d = h.differential_cumulative();
  const double sum = std::accumulate(d.begin(), d.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(LogHistogramTest, CumulativeIsMonotoneEndingAtOne) {
  const std::vector<double> degrees{1, 2, 4, 8, 16, 32};
  const LogHistogram h = LogHistogram::from_degrees(degrees);
  const auto c = h.cumulative();
  for (std::size_t i = 1; i < c.size(); ++i) EXPECT_GE(c[i], c[i - 1]);
  EXPECT_NEAR(c.back(), 1.0, 1e-12);
}

TEST(LogHistogramTest, DifferentialIsCumulativeDifference) {
  // D_t(d_i) = P_t(d_i) - P_t(d_{i-1}), the paper's §II definition.
  const std::vector<double> degrees{1, 1, 3, 5, 9, 17, 33};
  const LogHistogram h = LogHistogram::from_degrees(degrees);
  const auto d = h.differential_cumulative();
  const auto c = h.cumulative();
  ASSERT_EQ(d.size(), c.size());
  EXPECT_NEAR(d[0], c[0], 1e-12);
  for (std::size_t i = 1; i < d.size(); ++i) {
    EXPECT_NEAR(d[i], c[i] - c[i - 1], 1e-12) << "bin " << i;
  }
}

TEST(LogHistogramTest, FromSparseVecMatchesDegreeList) {
  const gbl::SparseVec v({1, 5, 9}, {4.0, 4.0, 100.0});
  const LogHistogram a = LogHistogram::from_sparse_vec(v);
  const LogHistogram b = LogHistogram::from_degrees(std::vector<double>{4.0, 4.0, 100.0});
  EXPECT_EQ(a.total(), b.total());
  for (int i = 0; i < std::max(a.bin_count(), b.bin_count()); ++i) {
    EXPECT_EQ(a.count(i), b.count(i));
  }
}

TEST(LogHistogramTest, RejectsNonFiniteDegrees) {
  const std::vector<double> bad{1.0, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(LogHistogram::from_degrees(bad), std::invalid_argument);
}

TEST(LogHistogramTest, IncrementalAddMatchesBatch) {
  const std::vector<double> degrees{1, 1, 2, 3, 4, 7, 8, 1024, 0.5};
  const LogHistogram batch = LogHistogram::from_degrees(degrees);
  LogHistogram inc;
  for (double d : degrees) inc.add(d);
  EXPECT_EQ(inc.total(), batch.total());
  EXPECT_EQ(inc.max_degree(), batch.max_degree());
  ASSERT_EQ(inc.bin_count(), batch.bin_count());
  for (int i = 0; i < batch.bin_count(); ++i) EXPECT_EQ(inc.count(i), batch.count(i));
  EXPECT_THROW(inc.add(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
}

TEST(LogHistogramTest, QuantileEmptyAndSingle) {
  const LogHistogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  LogHistogram one;
  one.add(5.0);
  // A single observation in [4, 8) answers every quantile within its bin.
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_GE(one.quantile(q), 4.0) << q;
    EXPECT_LE(one.quantile(q), 8.0) << q;
  }
}

TEST(LogHistogramTest, QuantileIsMonotoneAndBinAccurate) {
  Rng rng(7);
  LogHistogram h;
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    const double v = static_cast<double>(1 + rng.uniform_u64(100000));
    values.push_back(v);
    h.add(v);
  }
  std::sort(values.begin(), values.end());
  double prev = 0.0;
  for (double q = 0.05; q <= 0.999; q += 0.05) {
    const double est = h.quantile(q);
    EXPECT_GE(est, prev) << q;
    prev = est;
    // Within one binary-log bin of the exact sample quantile.
    const double last = static_cast<double>(values.size() - 1);
    const double exact = values[static_cast<std::size_t>(q * last)];
    EXPECT_GE(est * 2.0, exact) << q;
    EXPECT_LE(est, exact * 2.0 + 1.0) << q;
  }
  // The extreme tail never exceeds the observed maximum.
  EXPECT_LE(h.quantile(1.0), static_cast<double>(h.max_degree()) + 1.0);
}

}  // namespace
}  // namespace obscorr::stats
