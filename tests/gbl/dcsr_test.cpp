#include "gbl/dcsr.hpp"

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "gbl/coo.hpp"

namespace obscorr::gbl {
namespace {

DcsrMatrix make_small() {
  // 3 rows in a 2^32 space:
  //   row 10: (10,1)=2, (10,3)=1
  //   row 70: (70,3)=5
  //   row 4000000000: (4e9, 2)=1
  return DcsrMatrix::from_tuples(
      {{10, 3, 1.0}, {10, 1, 2.0}, {70, 3, 5.0}, {4000000000u, 2, 1.0}});
}

TEST(DcsrTest, EmptyMatrix) {
  const DcsrMatrix m;
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.nonempty_rows(), 0u);
  EXPECT_EQ(m.reduce_cols_pattern().nnz(), 0u);
  EXPECT_EQ(m.reduce_sum(), 0.0);
  EXPECT_EQ(m.reduce_max(), 0.0);
  EXPECT_EQ(m.at(5, 5), 0.0);
  EXPECT_EQ(m.reduce_rows().nnz(), 0u);
  EXPECT_EQ(m.reduce_cols().nnz(), 0u);
}

TEST(DcsrTest, BasicAccessors) {
  const DcsrMatrix m = make_small();
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(m.nonempty_rows(), 3u);
  EXPECT_EQ(m.reduce_cols_pattern().nnz(), 3u);
  EXPECT_EQ(m.at(10, 1), 2.0);
  EXPECT_EQ(m.at(10, 3), 1.0);
  EXPECT_EQ(m.at(70, 3), 5.0);
  EXPECT_EQ(m.at(4000000000u, 2), 1.0);
  EXPECT_EQ(m.at(10, 2), 0.0);  // stored row, absent column
  EXPECT_EQ(m.at(11, 1), 0.0);  // absent row
}

TEST(DcsrTest, FromSortedTuplesRejectsUnsortedOrDuplicate) {
  const std::vector<Tuple> unsorted{{2, 0, 1.0}, {1, 0, 1.0}};
  EXPECT_THROW(DcsrMatrix::from_sorted_tuples(unsorted), std::invalid_argument);
  const std::vector<Tuple> dup{{1, 0, 1.0}, {1, 0, 1.0}};
  EXPECT_THROW(DcsrMatrix::from_sorted_tuples(dup), std::invalid_argument);
}

TEST(DcsrTest, ReduceSumIsValidPacketCount) {
  // Table II: N_V = 1' A 1.
  EXPECT_EQ(make_small().reduce_sum(), 9.0);
}

TEST(DcsrTest, ReduceMaxIsMaxLinkPackets) { EXPECT_EQ(make_small().reduce_max(), 5.0); }

TEST(DcsrTest, RowReductionIsSourcePackets) {
  // Table II: A·1.
  const SparseVec v = make_small().reduce_rows();
  ASSERT_EQ(v.nnz(), 3u);
  EXPECT_EQ(v.at(10), 3.0);
  EXPECT_EQ(v.at(70), 5.0);
  EXPECT_EQ(v.at(4000000000u), 1.0);
}

TEST(DcsrTest, RowPatternReductionIsSourceFanout) {
  // Table II: |A|0 · 1.
  const SparseVec v = make_small().reduce_rows_pattern();
  EXPECT_EQ(v.at(10), 2.0);
  EXPECT_EQ(v.at(70), 1.0);
}

TEST(DcsrTest, ColReductionIsDestinationPackets) {
  // Table II: 1' A.
  const SparseVec v = make_small().reduce_cols();
  ASSERT_EQ(v.nnz(), 3u);
  EXPECT_EQ(v.at(1), 2.0);
  EXPECT_EQ(v.at(2), 1.0);
  EXPECT_EQ(v.at(3), 6.0);
}

TEST(DcsrTest, ColPatternReductionIsDestinationFanin) {
  const SparseVec v = make_small().reduce_cols_pattern();
  EXPECT_EQ(v.at(3), 2.0);
  EXPECT_EQ(v.at(1), 1.0);
}

TEST(DcsrTest, PatternSetsValuesToOne) {
  const DcsrMatrix p = make_small().pattern();
  EXPECT_EQ(p.nnz(), 4u);
  EXPECT_EQ(p.reduce_sum(), 4.0);
  EXPECT_EQ(p.at(70, 3), 1.0);
}

TEST(DcsrTest, EwiseAddUnionSemantics) {
  const DcsrMatrix a = DcsrMatrix::from_tuples({{1, 1, 1.0}, {2, 2, 2.0}});
  const DcsrMatrix b = DcsrMatrix::from_tuples({{1, 1, 3.0}, {3, 3, 4.0}});
  const DcsrMatrix c = DcsrMatrix::ewise_add(a, b);
  EXPECT_EQ(c.nnz(), 3u);
  EXPECT_EQ(c.at(1, 1), 4.0);
  EXPECT_EQ(c.at(2, 2), 2.0);
  EXPECT_EQ(c.at(3, 3), 4.0);
}

TEST(DcsrTest, EwiseAddWithEmptyIsIdentity) {
  const DcsrMatrix m = make_small();
  EXPECT_EQ(DcsrMatrix::ewise_add(m, DcsrMatrix{}), m);
  EXPECT_EQ(DcsrMatrix::ewise_add(DcsrMatrix{}, m), m);
}

TEST(DcsrTest, EwiseAddCommutes) {
  Rng rng(3);
  std::vector<Tuple> ta, tb;
  for (int i = 0; i < 500; ++i) {
    ta.push_back({static_cast<Index>(rng.uniform_u64(50)),
                  static_cast<Index>(rng.uniform_u64(50)), 1.0});
    tb.push_back({static_cast<Index>(rng.uniform_u64(50)),
                  static_cast<Index>(rng.uniform_u64(50)), 1.0});
  }
  const DcsrMatrix a = DcsrMatrix::from_tuples(ta);
  const DcsrMatrix b = DcsrMatrix::from_tuples(tb);
  EXPECT_EQ(DcsrMatrix::ewise_add(a, b), DcsrMatrix::ewise_add(b, a));
}

TEST(DcsrTest, SelectFiltersCells) {
  const DcsrMatrix m = make_small();
  const DcsrMatrix odd_cols = m.select([](Index, Index c) { return c % 2 == 1; });
  EXPECT_EQ(odd_cols.nnz(), 3u);
  EXPECT_EQ(odd_cols.at(10, 1), 2.0);
  EXPECT_EQ(odd_cols.at(4000000000u, 2), 0.0);
}

TEST(DcsrTest, SelectAllAndNone) {
  const DcsrMatrix m = make_small();
  EXPECT_EQ(m.select([](Index, Index) { return true; }), m);
  EXPECT_EQ(m.select([](Index, Index) { return false; }).nnz(), 0u);
}

TEST(DcsrTest, ToTuplesRoundTrip) {
  const DcsrMatrix m = make_small();
  EXPECT_EQ(DcsrMatrix::from_sorted_tuples(m.to_tuples()), m);
}

TEST(DcsrTest, ForEachVisitsRowMajor) {
  const DcsrMatrix m = make_small();
  std::vector<Tuple> seen;
  m.for_each([&](Index r, Index c, Value v) { seen.push_back({r, c, v}); });
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end(), tuple_less));
}

TEST(DcsrTest, MemoryFootprintScalesWithNnz) {
  const DcsrMatrix m = make_small();
  EXPECT_GT(m.memory_bytes(), 0u);
  EXPECT_LT(m.memory_bytes(), 4096u);  // hypersparse: no dense row array
}

TEST(DcsrTest, RandomizedReductionInvariants) {
  // Property: sum of row sums == sum of col sums == total mass; fan-out
  // sums == nnz (Fig. 2's accounting identities).
  Rng rng(11);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 20000; ++i) {
    tuples.push_back({rng.next_u32(), rng.next_u32(), 1.0});
  }
  const DcsrMatrix m = DcsrMatrix::from_tuples(std::move(tuples));
  EXPECT_NEAR(m.reduce_rows().reduce_sum(), m.reduce_sum(), 1e-9);
  EXPECT_NEAR(m.reduce_cols().reduce_sum(), m.reduce_sum(), 1e-9);
  EXPECT_NEAR(m.reduce_rows_pattern().reduce_sum(), static_cast<double>(m.nnz()), 1e-9);
  EXPECT_NEAR(m.reduce_cols_pattern().reduce_sum(), static_cast<double>(m.nnz()), 1e-9);
  EXPECT_EQ(m.reduce_rows().nnz(), m.nonempty_rows());
  EXPECT_EQ(m.reduce_cols().nnz(), m.reduce_cols_pattern().nnz());
}

}  // namespace
}  // namespace obscorr::gbl
