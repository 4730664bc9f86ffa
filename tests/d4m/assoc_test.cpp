/// The reference algebra of tests/d4m/assoc_oracle.hpp on hand-computed
/// cases. Every production read is checked against that algebra, so
/// these cases pin it to the D4M definitions.

#include "assoc_oracle.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace obscorr::d4m {
namespace {

using oracle::at;
using oracle::build;
using oracle::has_row;

AssocArray greynoise_like() {
  // Exploded-schema sample: two sources with enrichment metadata.
  return build({
      {"1.2.3.4", "classification|malicious", 1.0},
      {"1.2.3.4", "intent|scan", 1.0},
      {"1.2.3.4", "contacts", 17.0},
      {"5.6.7.8", "classification|benign", 1.0},
      {"5.6.7.8", "contacts", 2.0},
  });
}

double sum_of(const AssocArray& a) {
  return std::accumulate(a.values().begin(), a.values().end(), 0.0);
}

TEST(AssocTest, EmptyArray) {
  const AssocArray a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.nnz(), 0u);
  EXPECT_TRUE(a.row_keys().empty());
  EXPECT_TRUE(a.col_keys().empty());
  EXPECT_EQ(at(a, "x", "y"), 0.0);
  EXPECT_FALSE(has_row(a, "x"));
  EXPECT_EQ(build({}), a);
}

TEST(AssocTest, FromTriplesBuildsSortedKeySets) {
  const AssocArray a = greynoise_like();
  EXPECT_EQ(a.nnz(), 5u);
  ASSERT_EQ(a.row_keys().size(), 2u);
  EXPECT_EQ(a.row_keys()[0], "1.2.3.4");
  EXPECT_EQ(a.row_keys()[1], "5.6.7.8");
  ASSERT_EQ(a.col_keys().size(), 4u);
  EXPECT_EQ(a.col_keys()[0], "classification|benign");
  EXPECT_TRUE(has_row(a, "5.6.7.8"));
  EXPECT_FALSE(has_row(a, "5.6.7"));
}

TEST(AssocTest, AtReturnsStoredValues) {
  const AssocArray a = greynoise_like();
  EXPECT_EQ(at(a, "1.2.3.4", "contacts"), 17.0);
  EXPECT_EQ(at(a, "1.2.3.4", "classification|malicious"), 1.0);
  EXPECT_EQ(at(a, "1.2.3.4", "classification|benign"), 0.0);
  EXPECT_EQ(at(a, "9.9.9.9", "contacts"), 0.0);
}

TEST(AssocTest, DuplicateTriplesAccumulate) {
  const AssocArray a = build({
      {"r", "c", 1.0},
      {"r", "c", 2.0},
      {"r", "c", 4.0},
  });
  EXPECT_EQ(a.nnz(), 1u);
  EXPECT_EQ(at(a, "r", "c"), 7.0);
}

TEST(AssocTest, EwiseAddUnion) {
  const AssocArray a = build({{"r1", "c", 1.0}, {"r2", "c", 2.0}});
  const AssocArray b = build({{"r2", "c", 3.0}, {"r3", "c", 4.0}});
  const AssocArray sum = oracle::ewise_add(a, b);
  EXPECT_EQ(sum.nnz(), 3u);
  EXPECT_EQ(at(sum, "r1", "c"), 1.0);
  EXPECT_EQ(at(sum, "r2", "c"), 5.0);
  EXPECT_EQ(at(sum, "r3", "c"), 4.0);
}

TEST(AssocTest, EwiseMultIntersection) {
  // The correlation primitive: only cells present in both survive.
  const AssocArray a = build({{"r1", "c", 2.0}, {"r2", "c", 3.0}});
  const AssocArray b = build({{"r2", "c", 5.0}, {"r3", "c", 7.0}});
  const AssocArray prod = oracle::ewise_mult(a, b);
  EXPECT_EQ(prod.nnz(), 1u);
  EXPECT_EQ(at(prod, "r2", "c"), 15.0);
}

TEST(AssocTest, EwiseIdentities) {
  const AssocArray a = greynoise_like();
  EXPECT_EQ(oracle::ewise_add(a, AssocArray{}), a);
  EXPECT_TRUE(oracle::ewise_mult(a, AssocArray{}).empty());
  EXPECT_EQ(sum_of(oracle::ewise_add(a, a)), 2.0 * sum_of(a));
}

TEST(AssocTest, LogicalZeroNorm) {
  const AssocArray l = oracle::logical(greynoise_like());
  EXPECT_EQ(l.nnz(), 5u);
  EXPECT_EQ(at(l, "1.2.3.4", "contacts"), 1.0);
  EXPECT_EQ(sum_of(l), 5.0);
}

TEST(AssocTest, SelectColsByKeySet) {
  const AssocArray a = greynoise_like();
  const std::vector<std::string> cols{"contacts"};
  const AssocArray sub = oracle::select_cols(a, cols);
  EXPECT_EQ(sub.nnz(), 2u);
  EXPECT_EQ(sub.col_keys().size(), 1u);
}

TEST(AssocTest, SelectColsPrefixExplodedSchema) {
  // The D4M A(:, 'classification|*') idiom.
  const AssocArray a = greynoise_like();
  const AssocArray cls = oracle::select_cols_prefix(a, "classification|");
  EXPECT_EQ(cls.nnz(), 2u);
  EXPECT_EQ(at(cls, "1.2.3.4", "classification|malicious"), 1.0);
  EXPECT_EQ(at(cls, "5.6.7.8", "classification|benign"), 1.0);
}

TEST(AssocTest, RowSums) {
  const AssocArray a = greynoise_like();
  const AssocArray rs = oracle::row_sum(a);
  EXPECT_EQ(at(rs, "1.2.3.4", "sum"), 19.0);
  EXPECT_EQ(at(rs, "5.6.7.8", "sum"), 3.0);
  EXPECT_EQ(sum_of(a), 22.0);
}

TEST(AssocTest, KeyIntersection) {
  // The paper's "sources seen by both observatories": |A|₀·1 of each,
  // zero-normed and multiplied, holds exactly the shared row keys.
  const AssocArray a = build({{"a", "x", 2.0}, {"b", "x", 1.0}, {"b", "y", 4.0}, {"c", "y", 1.0}});
  const AssocArray b = build({{"b", "z", 9.0}, {"c", "x", 1.0}, {"d", "x", 3.0}});
  const auto seen = [](const AssocArray& x) { return oracle::logical(oracle::row_sum(x)); };
  const AssocArray both = oracle::ewise_mult(seen(a), seen(b));
  EXPECT_EQ(oracle::shared_keys(a.row_keys(), b.row_keys()), (std::vector<std::string>{"b", "c"}));
  EXPECT_EQ(both, build({{"b", "sum", 1.0}, {"c", "sum", 1.0}}));
  EXPECT_TRUE(oracle::ewise_mult(seen(a), seen(AssocArray{})).empty());
}

TEST(AssocTest, LargeUniqueRowSetPreservesKeys) {
  // Regression: a self-move bug once blanked row keys when every triple
  // was unique; verify a large all-unique build keeps real keys.
  std::vector<oracle::Triple> triples;
  for (int i = 0; i < 10000; ++i) {
    triples.push_back({"10.0." + std::to_string(i / 256) + "." + std::to_string(i % 256),
                       "packets", static_cast<double>(i + 1)});
  }
  const AssocArray a = build(std::move(triples));
  EXPECT_EQ(a.row_keys().size(), 10000u);
  for (const std::string& key : a.row_keys()) EXPECT_FALSE(key.empty());
  EXPECT_EQ(at(a, "10.0.0.5", "packets"), 6.0);
}

}  // namespace
}  // namespace obscorr::d4m
