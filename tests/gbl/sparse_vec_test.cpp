#include "gbl/sparse_vec.hpp"

#include <gtest/gtest.h>

namespace obscorr::gbl {
namespace {

TEST(SparseVecTest, EmptyVector) {
  const SparseVec v;
  EXPECT_EQ(v.nnz(), 0u);
  EXPECT_EQ(v.at(0), 0.0);
  EXPECT_EQ(v.reduce_sum(), 0.0);
  EXPECT_EQ(v.reduce_max(), 0.0);
}

TEST(SparseVecTest, ConstructionValidation) {
  EXPECT_THROW(SparseVec({1, 2}, {1.0}), std::invalid_argument);       // length mismatch
  EXPECT_THROW(SparseVec({2, 1}, {1.0, 2.0}), std::invalid_argument);  // unsorted
  EXPECT_THROW(SparseVec({2, 2}, {1.0, 2.0}), std::invalid_argument);  // duplicate
  EXPECT_NO_THROW(SparseVec({1, 2, 4000000000u}, {1.0, 2.0, 3.0}));
}

TEST(SparseVecTest, AtLooksUpStoredAndMissing) {
  const SparseVec v({10, 20, 30}, {1.5, 2.5, 3.5});
  EXPECT_EQ(v.at(10), 1.5);
  EXPECT_EQ(v.at(20), 2.5);
  EXPECT_EQ(v.at(30), 3.5);
  EXPECT_EQ(v.at(15), 0.0);
  EXPECT_EQ(v.at(0), 0.0);
  EXPECT_EQ(v.at(31), 0.0);
}

TEST(SparseVecTest, Reductions) {
  const SparseVec v({1, 2, 3}, {4.0, -1.0, 10.0});
  EXPECT_EQ(v.reduce_sum(), 13.0);
  EXPECT_EQ(v.reduce_max(), 10.0);
}

TEST(SparseVecTest, EqualityIsStructural) {
  const SparseVec a({1, 2}, {1.0, 2.0});
  const SparseVec b({1, 2}, {1.0, 2.0});
  const SparseVec c({1, 3}, {1.0, 2.0});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace obscorr::gbl
