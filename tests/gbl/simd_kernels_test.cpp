/// Differential tests for the SIMD kernel variants: every AVX2 kernel
/// must produce byte-identical output to its scalar reference on
/// randomized inputs. Sum-style reductions are exercised with
/// integer-valued doubles — the documented bit-identity contract (see
/// kernels.hpp) covers exactly that domain, which is what the pipeline
/// feeds them (packet counts). Order-insensitive kernels (max, sort) are
/// exercised on arbitrary values.

#include "gbl/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/arena.hpp"
#include "common/prng.hpp"
#include "common/simd.hpp"
#include "gbl/types.hpp"

namespace obscorr::gbl::kernels {
namespace {

bool have_avx2() { return simd::detected_tier() >= simd::Tier::kAvx2; }

std::vector<std::uint64_t> random_keys(Rng& rng, std::size_t n, int key_bits) {
  std::vector<std::uint64_t> keys(n);
  const std::uint64_t mask = key_bits >= 64 ? ~0ULL : (1ULL << key_bits) - 1;
  for (auto& k : keys) k = rng.next() & mask;
  return keys;
}

TEST(SimdKernelsTest, RadixSortMatchesScalarAndStdSort) {
  if (!have_avx2()) GTEST_SKIP() << "host has no AVX2";
  Rng rng(7);
  // Sweep sizes across the unrolled main loop and its tails, and key
  // widths that trigger the constant-digit skip in different passes.
  for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 63u, 64u, 1000u, 4096u, 100000u}) {
    for (const int bits : {16, 33, 64}) {
      std::vector<std::uint64_t> base = random_keys(rng, n, bits);
      std::vector<std::uint64_t> a = base, b = base, c = base;
      mem::Arena arena_a, arena_b;
      radix_sort_u64_scalar(a.data(), a.size(), arena_a);
      radix_sort_u64_avx2(b.data(), b.size(), arena_b);
      std::sort(c.begin(), c.end());
      EXPECT_EQ(a, c) << "scalar vs std::sort, n=" << n << " bits=" << bits;
      EXPECT_EQ(b, c) << "avx2 vs std::sort, n=" << n << " bits=" << bits;
    }
  }
}

TEST(SimdKernelsTest, SumSpanBitIdenticalOnIntegerValues) {
  if (!have_avx2()) GTEST_SKIP() << "host has no AVX2";
  Rng rng(13);
  for (const std::size_t n : {0u, 1u, 15u, 16u, 17u, 255u, 1000u, 65536u, 100001u}) {
    std::vector<Value> v(n);
    for (auto& x : v) x = static_cast<Value>(rng.uniform_u64(1 << 24));
    EXPECT_EQ(sum_span_scalar(v), sum_span_avx2(v)) << "n=" << n;
  }
}

TEST(SimdKernelsTest, MaxSpanBitIdenticalOnArbitraryValues) {
  if (!have_avx2()) GTEST_SKIP() << "host has no AVX2";
  Rng rng(17);
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 1000u, 65537u}) {
    std::vector<Value> v(n);
    for (auto& x : v) x = rng.uniform(0.0, 1e9);  // pipeline values are non-negative
    EXPECT_EQ(max_span_scalar(v), max_span_avx2(v)) << "n=" << n;
  }
}

TEST(SimdKernelsTest, DispatchedKernelsFollowForcedTier) {
  Rng rng(29);
  std::vector<std::uint64_t> keys = random_keys(rng, 5000, 64);
  std::vector<std::uint64_t> expect = keys;
  std::sort(expect.begin(), expect.end());
  for (const simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kAvx2}) {
    simd::set_tier(tier);
    std::vector<std::uint64_t> work = keys;
    radix_sort_u64(work.data(), work.size(), mem::scratch_arena());
    EXPECT_EQ(work, expect) << "tier=" << tier_name(tier);
  }
  simd::set_tier(std::nullopt);
}

}  // namespace
}  // namespace obscorr::gbl::kernels
