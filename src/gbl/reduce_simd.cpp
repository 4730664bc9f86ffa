/// \file reduce_simd.cpp
/// AVX2 variants of the span-served Table II reductions (sum / max). The
/// sum uses four lane-split accumulators combined in a fixed order; that
/// reassociates the additions, which is bit-identical to the scalar left
/// fold exactly when every partial sum is exactly representable — the
/// pipeline's values are integer packet counts far below 2^53, so it
/// always is (see kernels.hpp for the contract on general doubles). Max
/// is order-independent on the no-NaN domain the scalar reference
/// assumes.

#include "gbl/kernels.hpp"

#if defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>

namespace obscorr::gbl::kernels {

namespace {

/// Fixed-order horizontal combine of the sum kernel: pairwise within the
/// accumulator tree, then lanes low to high.
__attribute__((target("avx2"))) inline double hsum(__m256d acc0, __m256d acc1, __m256d acc2,
                                                   __m256d acc3) {
  const __m256d acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

}  // namespace

__attribute__((target("avx2"))) Value sum_span_avx2(std::span<const Value> values) {
  const double* p = values.data();
  const std::size_t n = values.size();
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(p + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(p + i + 4));
    acc2 = _mm256_add_pd(acc2, _mm256_loadu_pd(p + i + 8));
    acc3 = _mm256_add_pd(acc3, _mm256_loadu_pd(p + i + 12));
  }
  Value total = hsum(acc0, acc1, acc2, acc3);
  for (; i < n; ++i) total += p[i];
  return total;
}

__attribute__((target("avx2"))) Value max_span_avx2(std::span<const Value> values) {
  const double* p = values.data();
  const std::size_t n = values.size();
  // Accumulators start at 0.0 like the scalar fold, so the result is
  // floor-clamped at zero identically.
  __m256d best0 = _mm256_setzero_pd();
  __m256d best1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    best0 = _mm256_max_pd(best0, _mm256_loadu_pd(p + i));
    best1 = _mm256_max_pd(best1, _mm256_loadu_pd(p + i + 4));
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, _mm256_max_pd(best0, best1));
  Value best = std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
  for (; i < n; ++i) best = std::max(best, p[i]);
  return best;
}

}  // namespace obscorr::gbl::kernels

#else  // !defined(__x86_64__)

namespace obscorr::gbl::kernels {

Value sum_span_avx2(std::span<const Value> values) { return sum_span_scalar(values); }
Value max_span_avx2(std::span<const Value> values) { return max_span_scalar(values); }

}  // namespace obscorr::gbl::kernels

#endif
