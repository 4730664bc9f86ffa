/// Tests for the max-semiring associative-array operation ewise_max.

#include <gtest/gtest.h>

#include "d4m/assoc.hpp"

namespace obscorr::d4m {
namespace {

TEST(EwiseMaxTest, UnionWithMaximum) {
  const AssocArray june = AssocArray::from_triples({
      {"1.2.3.4", "contacts", 10.0},
      {"5.6.7.8", "contacts", 3.0},
  });
  const AssocArray july = AssocArray::from_triples({
      {"1.2.3.4", "contacts", 7.0},
      {"9.9.9.9", "contacts", 2.0},
  });
  const AssocArray peak = AssocArray::ewise_max(june, july);
  EXPECT_EQ(peak.nnz(), 3u);
  EXPECT_EQ(peak.at("1.2.3.4", "contacts"), 10.0);  // max of 10 and 7
  EXPECT_EQ(peak.at("5.6.7.8", "contacts"), 3.0);   // only in june
  EXPECT_EQ(peak.at("9.9.9.9", "contacts"), 2.0);   // only in july
}

TEST(EwiseMaxTest, AlgebraicLaws) {
  const AssocArray a = AssocArray::from_triples({{"r", "c", 5.0}, {"s", "c", 1.0}});
  const AssocArray b = AssocArray::from_triples({{"r", "c", 2.0}, {"t", "c", 9.0}});
  // Commutative, idempotent, identity with empty.
  EXPECT_EQ(AssocArray::ewise_max(a, b), AssocArray::ewise_max(b, a));
  EXPECT_EQ(AssocArray::ewise_max(a, a), a);
  EXPECT_EQ(AssocArray::ewise_max(a, AssocArray{}), a);
}

TEST(EwiseMaxTest, MonthlyPeakAcrossSpan) {
  // Folding months with ewise_max yields per-source peak activity — the
  // D4M idiom for "how loud did this scanner ever get".
  std::vector<AssocArray> months;
  for (int m = 0; m < 4; ++m) {
    months.push_back(AssocArray::from_triples(
        {{"1.1.1.1", "contacts", static_cast<double>(10 * (m + 1) % 35)}}));
  }
  AssocArray peak;
  for (const auto& m : months) peak = AssocArray::ewise_max(peak, m);
  EXPECT_EQ(peak.at("1.1.1.1", "contacts"), 30.0);
}

}  // namespace
}  // namespace obscorr::d4m
