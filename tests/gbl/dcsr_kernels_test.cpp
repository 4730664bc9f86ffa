/// Differential tests for the zero-copy DCSR kernels: the array-streaming
/// `ewise_add` (serial and pooled) and `from_sorted_packed_keys` must
/// match the tuple-path reference implementations bit-for-bit. Values are integer
/// packet counts (exactly representable doubles), so every accumulation
/// order yields the same bits and "equal" means identical arrays.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/prng.hpp"
#include "gbl/coo.hpp"
#include "gbl/dcsr.hpp"

namespace obscorr::gbl {
namespace {

// --- Tuple-path reference kernels (the pre-zero-copy algorithms) ---

DcsrMatrix ref_ewise_add(const DcsrMatrix& a, const DcsrMatrix& b) {
  std::vector<Tuple> merged;
  merged.reserve(a.nnz() + b.nnz());
  const auto ta = a.to_tuples();
  const auto tb = b.to_tuples();
  std::size_t i = 0, j = 0;
  while (i < ta.size() && j < tb.size()) {
    if (same_cell(ta[i], tb[j])) {
      merged.push_back({ta[i].row, ta[i].col, ta[i].val + tb[j].val});
      ++i;
      ++j;
    } else if (tuple_less(ta[i], tb[j])) {
      merged.push_back(ta[i++]);
    } else {
      merged.push_back(tb[j++]);
    }
  }
  merged.insert(merged.end(), ta.begin() + static_cast<std::ptrdiff_t>(i), ta.end());
  merged.insert(merged.end(), tb.begin() + static_cast<std::ptrdiff_t>(j), tb.end());
  return DcsrMatrix::from_sorted_tuples(merged);
}

DcsrMatrix random_matrix(std::uint64_t seed, std::size_t n, std::uint32_t side) {
  Rng rng(seed);
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tuples.push_back({static_cast<Index>(rng.uniform_u64(side)),
                      static_cast<Index>(rng.uniform_u64(side)),
                      static_cast<Value>(1 + rng.uniform_u64(9))});
  }
  return DcsrMatrix::from_tuples(std::move(tuples));
}

// --- Edge cases the streaming kernels must honor ---

TEST(ZeroCopyKernelsTest, EmptyPlusEmpty) {
  const DcsrMatrix empty;
  EXPECT_EQ(DcsrMatrix::ewise_add(empty, empty), empty);
}

TEST(ZeroCopyKernelsTest, EmptyIsAdditiveIdentity) {
  const DcsrMatrix a = random_matrix(1, 300, 64);
  const DcsrMatrix empty;
  EXPECT_EQ(DcsrMatrix::ewise_add(a, empty), a);
  EXPECT_EQ(DcsrMatrix::ewise_add(empty, a), a);
}

TEST(ZeroCopyKernelsTest, DisjointRowSets) {
  const DcsrMatrix a = DcsrMatrix::from_tuples({{1, 5, 2.0}, {1, 9, 1.0}, {3, 2, 4.0}});
  const DcsrMatrix b = DcsrMatrix::from_tuples({{2, 7, 3.0}, {4, 1, 5.0}});
  const DcsrMatrix sum = DcsrMatrix::ewise_add(a, b);
  EXPECT_EQ(sum, ref_ewise_add(a, b));
  EXPECT_EQ(sum.nnz(), a.nnz() + b.nnz());
  EXPECT_EQ(sum.nonempty_rows(), 4u);
}

TEST(ZeroCopyKernelsTest, SingleSharedCell) {
  const DcsrMatrix a = DcsrMatrix::from_tuples({{7, 7, 2.0}});
  const DcsrMatrix b = DcsrMatrix::from_tuples({{7, 7, 5.0}});
  const DcsrMatrix sum = DcsrMatrix::ewise_add(a, b);
  EXPECT_EQ(sum.nnz(), 1u);
  EXPECT_EQ(sum.at(7, 7), 7.0);
  EXPECT_EQ(sum, ref_ewise_add(a, b));
}

TEST(ZeroCopyKernelsTest, PackedKeysMatchTupleBuild) {
  Rng rng(21);
  std::vector<std::uint64_t> keys;
  std::vector<Tuple> tuples;
  for (int i = 0; i < 20000; ++i) {
    const Index r = static_cast<Index>(rng.uniform_u64(1000));
    const Index c = static_cast<Index>(rng.uniform_u64(1000));
    keys.push_back(pack_key(r, c));
    tuples.push_back({r, c, 1.0});
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(DcsrMatrix::from_sorted_packed_keys(keys),
            DcsrMatrix::from_tuples(std::move(tuples)));
  EXPECT_EQ(DcsrMatrix::from_sorted_packed_keys({}), DcsrMatrix{});
}

// --- Randomized differential tests across thread counts ---

class ZeroCopyDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZeroCopyDifferentialTest, MatchesTuplePathBitForBit) {
  const std::uint64_t seed = GetParam();
  // Sizes straddle the pooled-kernel thresholds (2^14 combined nnz).
  const DcsrMatrix a = random_matrix(seed, 16000, 1 << 10);
  const DcsrMatrix b = random_matrix(seed ^ 0xB0B, 16000, 1 << 10);

  const DcsrMatrix add_ref = ref_ewise_add(a, b);
  EXPECT_EQ(DcsrMatrix::ewise_add(a, b), add_ref);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(DcsrMatrix::ewise_add(a, b, pool), add_ref) << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZeroCopyDifferentialTest, ::testing::Values(17, 99, 12345));

}  // namespace
}  // namespace obscorr::gbl
