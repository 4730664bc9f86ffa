/// The max-semiring operation of the reference algebra, ewise_max: the
/// fold behind the database's peak contacts.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "assoc_oracle.hpp"

namespace obscorr::d4m {
namespace {

using oracle::at;
using oracle::build;
using oracle::ewise_max;

TEST(EwiseMaxTest, UnionWithMaximum) {
  const AssocArray june = build({
      {"1.2.3.4", "contacts", 10.0},
      {"5.6.7.8", "contacts", 3.0},
  });
  const AssocArray july = build({
      {"1.2.3.4", "contacts", 7.0},
      {"9.9.9.9", "contacts", 2.0},
  });
  const AssocArray peak = ewise_max(june, july);
  EXPECT_EQ(peak.nnz(), 3u);
  EXPECT_EQ(at(peak, "1.2.3.4", "contacts"), 10.0);  // max of 10 and 7
  EXPECT_EQ(at(peak, "5.6.7.8", "contacts"), 3.0);   // only in june
  EXPECT_EQ(at(peak, "9.9.9.9", "contacts"), 2.0);   // only in july
}

TEST(EwiseMaxTest, AlgebraicLaws) {
  const AssocArray a = build({{"r", "c", 5.0}, {"s", "c", 1.0}});
  const AssocArray b = build({{"r", "c", 2.0}, {"t", "c", 9.0}});
  // Commutative, idempotent, identity with empty.
  EXPECT_EQ(ewise_max(a, b), ewise_max(b, a));
  EXPECT_EQ(ewise_max(a, a), a);
  EXPECT_EQ(ewise_max(a, AssocArray{}), a);
  // Operand order decides a NaN: std::max(NaN, 2) keeps the NaN and
  // std::max(2, NaN) keeps the 2.
  const AssocArray nan = build({{"r", "c", std::numeric_limits<double>::quiet_NaN()}});
  const AssocArray two = build({{"r", "c", 2.0}});
  EXPECT_TRUE(std::isnan(at(ewise_max(nan, two), "r", "c")));
  EXPECT_EQ(at(ewise_max(two, nan), "r", "c"), 2.0);
}

TEST(EwiseMaxTest, MonthlyPeakAcrossSpan) {
  // Folding months with ewise_max yields per-source peak activity — the
  // D4M idiom for "how loud did this scanner ever get".
  std::vector<AssocArray> months;
  for (int m = 0; m < 4; ++m) {
    months.push_back(build({{"1.1.1.1", "contacts", static_cast<double>(10 * (m + 1) % 35)}}));
  }
  AssocArray peak;
  for (const auto& m : months) peak = ewise_max(peak, m);
  EXPECT_EQ(at(peak, "1.1.1.1", "contacts"), 30.0);
}

}  // namespace
}  // namespace obscorr::d4m
