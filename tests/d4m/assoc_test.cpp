#include "d4m/assoc.hpp"

#include <gtest/gtest.h>

namespace obscorr::d4m {
namespace {

AssocArray greynoise_like() {
  // Exploded-schema sample: two sources with enrichment metadata.
  return AssocArray::from_triples({
      {"1.2.3.4", "classification|malicious", 1.0},
      {"1.2.3.4", "intent|scan", 1.0},
      {"1.2.3.4", "contacts", 17.0},
      {"5.6.7.8", "classification|benign", 1.0},
      {"5.6.7.8", "contacts", 2.0},
  });
}

TEST(AssocTest, EmptyArray) {
  const AssocArray a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.nnz(), 0u);
  EXPECT_TRUE(a.row_keys().empty());
  EXPECT_TRUE(a.col_keys().empty());
  EXPECT_EQ(a.at("x", "y"), 0.0);
  EXPECT_FALSE(a.has_row("x"));
}

TEST(AssocTest, FromTriplesBuildsSortedKeySets) {
  const AssocArray a = greynoise_like();
  EXPECT_EQ(a.nnz(), 5u);
  ASSERT_EQ(a.row_keys().size(), 2u);
  EXPECT_EQ(a.row_keys()[0], "1.2.3.4");
  EXPECT_EQ(a.row_keys()[1], "5.6.7.8");
  ASSERT_EQ(a.col_keys().size(), 4u);
  EXPECT_EQ(a.col_keys()[0], "classification|benign");
}

TEST(AssocTest, AtReturnsStoredValues) {
  const AssocArray a = greynoise_like();
  EXPECT_EQ(a.at("1.2.3.4", "contacts"), 17.0);
  EXPECT_EQ(a.at("1.2.3.4", "classification|malicious"), 1.0);
  EXPECT_EQ(a.at("1.2.3.4", "classification|benign"), 0.0);
  EXPECT_EQ(a.at("9.9.9.9", "contacts"), 0.0);
}

TEST(AssocTest, DuplicateTriplesAccumulate) {
  const AssocArray a = AssocArray::from_triples({
      {"r", "c", 1.0},
      {"r", "c", 2.0},
      {"r", "c", 4.0},
  });
  EXPECT_EQ(a.nnz(), 1u);
  EXPECT_EQ(a.at("r", "c"), 7.0);
}

TEST(AssocTest, EwiseAddUnion) {
  const AssocArray a = AssocArray::from_triples({{"r1", "c", 1.0}, {"r2", "c", 2.0}});
  const AssocArray b = AssocArray::from_triples({{"r2", "c", 3.0}, {"r3", "c", 4.0}});
  const AssocArray sum = AssocArray::ewise_add(a, b);
  EXPECT_EQ(sum.nnz(), 3u);
  EXPECT_EQ(sum.at("r1", "c"), 1.0);
  EXPECT_EQ(sum.at("r2", "c"), 5.0);
  EXPECT_EQ(sum.at("r3", "c"), 4.0);
}

TEST(AssocTest, EwiseMultIntersection) {
  // The correlation primitive: only cells present in both survive.
  const AssocArray a = AssocArray::from_triples({{"r1", "c", 2.0}, {"r2", "c", 3.0}});
  const AssocArray b = AssocArray::from_triples({{"r2", "c", 5.0}, {"r3", "c", 7.0}});
  const AssocArray prod = AssocArray::ewise_mult(a, b);
  EXPECT_EQ(prod.nnz(), 1u);
  EXPECT_EQ(prod.at("r2", "c"), 15.0);
}

TEST(AssocTest, EwiseIdentities) {
  const AssocArray a = greynoise_like();
  EXPECT_EQ(AssocArray::ewise_add(a, AssocArray{}), a);
  EXPECT_TRUE(AssocArray::ewise_mult(a, AssocArray{}).empty());
  EXPECT_EQ(AssocArray::ewise_add(a, a).reduce_sum(), 2.0 * a.reduce_sum());
}

TEST(AssocTest, LogicalZeroNorm) {
  const AssocArray l = greynoise_like().logical();
  EXPECT_EQ(l.nnz(), 5u);
  EXPECT_EQ(l.at("1.2.3.4", "contacts"), 1.0);
  EXPECT_EQ(l.reduce_sum(), 5.0);
}

TEST(AssocTest, SelectColsByKeySet) {
  const AssocArray a = greynoise_like();
  const std::vector<std::string> cols{"contacts"};
  const AssocArray sub = a.select_cols(cols);
  EXPECT_EQ(sub.nnz(), 2u);
  EXPECT_EQ(sub.col_keys().size(), 1u);
}

TEST(AssocTest, SelectColsPrefixExplodedSchema) {
  // The D4M A(:, 'classification|*') idiom.
  const AssocArray a = greynoise_like();
  const AssocArray cls = a.select_cols_prefix("classification|");
  EXPECT_EQ(cls.nnz(), 2u);
  EXPECT_EQ(cls.at("1.2.3.4", "classification|malicious"), 1.0);
  EXPECT_EQ(cls.at("5.6.7.8", "classification|benign"), 1.0);
}

TEST(AssocTest, RowSums) {
  const AssocArray a = greynoise_like();
  const AssocArray rs = a.row_sum();
  EXPECT_EQ(rs.at("1.2.3.4", "sum"), 19.0);
  EXPECT_EQ(rs.at("5.6.7.8", "sum"), 3.0);
  EXPECT_EQ(a.reduce_sum(), 22.0);
}

TEST(AssocTest, KeyIntersection) {
  const std::vector<std::string> a{"a", "b", "c"};
  const std::vector<std::string> b{"b", "c", "d"};
  EXPECT_EQ(intersect_keys(a, b), (std::vector<std::string>{"b", "c"}));
  EXPECT_TRUE(intersect_keys(a, {}).empty());
}

TEST(AssocTest, LargeUniqueRowSetPreservesKeys) {
  // Regression: a self-move bug once blanked row keys when every triple
  // was unique; verify a large all-unique build keeps real keys.
  std::vector<Triple> triples;
  for (int i = 0; i < 10000; ++i) {
    triples.push_back({"10.0." + std::to_string(i / 256) + "." + std::to_string(i % 256),
                       "packets", static_cast<double>(i + 1)});
  }
  const AssocArray a = AssocArray::from_triples(std::move(triples));
  EXPECT_EQ(a.row_keys().size(), 10000u);
  for (const std::string& key : a.row_keys()) EXPECT_FALSE(key.empty());
  EXPECT_EQ(a.at("10.0.0.5", "packets"), 6.0);
}

}  // namespace
}  // namespace obscorr::d4m
