/// The block radix sort against std::sort. `sort_packed_keys` sends
/// fewer than 2^10 keys to std::sort, so this drives `radix_sort_u64`
/// directly: across the scatter's prefetch tail and key widths that make
/// different passes constant.

#include "gbl/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/prng.hpp"

namespace obscorr::gbl::kernels {
namespace {

std::vector<std::uint64_t> random_keys(Rng& rng, std::size_t n, int key_bits) {
  std::vector<std::uint64_t> keys(n);
  const std::uint64_t mask = key_bits >= 64 ? ~0ULL : (1ULL << key_bits) - 1;
  for (auto& k : keys) k = rng.next() & mask;
  return keys;
}

TEST(RadixSortTest, MatchesStdSortAcrossSizesAndKeyWidths) {
  Rng rng(7);
  for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 63u, 64u, 1000u, 4096u, 100000u}) {
    for (const int bits : {16, 33, 64}) {
      std::vector<std::uint64_t> sorted = random_keys(rng, n, bits);
      std::vector<std::uint64_t> expect = sorted;
      radix_sort_u64(sorted.data(), sorted.size());
      std::sort(expect.begin(), expect.end());
      EXPECT_EQ(sorted, expect) << "n=" << n << " bits=" << bits;
    }
  }
}

}  // namespace
}  // namespace obscorr::gbl::kernels
