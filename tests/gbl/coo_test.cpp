#include "gbl/coo.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/prng.hpp"

namespace obscorr::gbl {
namespace {

TEST(SortAndCombineTest, EmptyInput) {
  EXPECT_TRUE(sort_and_combine({}).empty());
}

TEST(SortAndCombineTest, SortsRowMajor) {
  std::vector<Tuple> in{{2, 1, 1.0}, {1, 2, 1.0}, {1, 1, 1.0}, {2, 0, 1.0}};
  const auto out = sort_and_combine(std::move(in));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], (Tuple{1, 1, 1.0}));
  EXPECT_EQ(out[1], (Tuple{1, 2, 1.0}));
  EXPECT_EQ(out[2], (Tuple{2, 0, 1.0}));
  EXPECT_EQ(out[3], (Tuple{2, 1, 1.0}));
}

TEST(SortAndCombineTest, AccumulatesDuplicates) {
  std::vector<Tuple> in{{5, 5, 1.0}, {5, 5, 2.0}, {5, 5, 4.0}, {5, 6, 1.0}};
  const auto out = sort_and_combine(std::move(in));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Tuple{5, 5, 7.0}));
  EXPECT_EQ(out[1], (Tuple{5, 6, 1.0}));
}

TEST(SortAndCombineTest, PreservesTotalMass) {
  Rng rng(1);
  std::vector<Tuple> in;
  double mass = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(0.5, 2.0);
    in.push_back({static_cast<Index>(rng.uniform_u64(100)),
                  static_cast<Index>(rng.uniform_u64(100)), v});
    mass += v;
  }
  const auto out = sort_and_combine(std::move(in));
  double out_mass = 0.0;
  for (const Tuple& t : out) out_mass += t.val;
  EXPECT_NEAR(out_mass, mass, 1e-6);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end(), tuple_less));
  // All cells unique.
  EXPECT_EQ(std::adjacent_find(out.begin(), out.end(), same_cell), out.end());
}

TEST(SortAndCombineTest, FullIndexSpaceExtremes) {
  // Hypersparse: indices span the whole uint32 space.
  const auto out = sort_and_combine(
      {{0, 0, 1.0}, {0xFFFFFFFFu, 0xFFFFFFFFu, 1.0}, {0xFFFFFFFFu, 0, 1.0}});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], (Tuple{0xFFFFFFFFu, 0xFFFFFFFFu, 1.0}));
}

TEST(SortPackedKeysTest, MatchesStdSortOnEitherSideOfTheRadixThreshold) {
  // Below 2^10 keys the sort is std::sort, above it the radix sort; packed
  // packet keys repeat cells, full-range keys exercise every digit.
  Rng rng(11);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{1023},
                              std::size_t{1024}, std::size_t{5000}, std::size_t{(1 << 19) + 3}}) {
    std::vector<std::uint64_t> packed(n), full(n);
    for (std::size_t i = 0; i < n; ++i) {
      packed[i] = pack_key(static_cast<Index>(rng.uniform_u64(300)),
                           static_cast<Index>(rng.uniform_u64(1 << 16)));
      full[i] = rng.next();
    }
    for (std::vector<std::uint64_t>* keys : {&packed, &full}) {
      std::vector<std::uint64_t> expected = *keys;
      std::sort(expected.begin(), expected.end());
      sort_packed_keys(*keys);
      EXPECT_EQ(*keys, expected) << n << " keys";
    }
  }
}

}  // namespace
}  // namespace obscorr::gbl
