#include "gbl/kernels.hpp"

#include <algorithm>
#include <memory>
#include <vector>

namespace obscorr::gbl::kernels {

void radix_sort_u64(std::uint64_t* keys, std::size_t n) {
  constexpr int kBits = 11;
  constexpr int kPasses = 6;  // 6 * 11 = 66 bits >= 64
  constexpr std::size_t kBuckets = std::size_t{1} << kBits;
  constexpr std::uint64_t kMask = kBuckets - 1;
  // How many keys ahead the scatter prefetches its destination: the
  // writes land at 2048 independent cursors, far more streams than the
  // hardware prefetcher tracks. A cursor moves at most this many slots
  // between the hint and the write, so the hint lands within two cache
  // lines of the store.
  constexpr std::size_t kPrefetchDist = 16;
  if (n < 2) return;  // the constant-digit probe below reads src[0]
  // Every pass writes all n scatter slots before reading any, so the
  // buffer starts uninitialized.
  const auto scratch = std::make_unique_for_overwrite<std::uint64_t[]>(n);
  std::vector<std::size_t> hist(kPasses * kBuckets, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = keys[i];
    for (int p = 0; p < kPasses; ++p) {
      ++hist[static_cast<std::size_t>(p) * kBuckets + ((k >> (p * kBits)) & kMask)];
    }
  }
  std::uint64_t* src = keys;
  std::uint64_t* dst = scratch.get();
  for (int p = 0; p < kPasses; ++p) {
    std::size_t* h = hist.data() + static_cast<std::size_t>(p) * kBuckets;
    const int shift = p * kBits;
    if (h[(src[0] >> shift) & kMask] == n) continue;  // constant digit
    std::size_t offset = 0;
    for (std::size_t d = 0; d < kBuckets; ++d) {
      const std::size_t c = h[d];
      h[d] = offset;
      offset += c;
    }
    const std::size_t hinted = n > kPrefetchDist ? n - kPrefetchDist : 0;
    std::size_t i = 0;
    for (; i < hinted; ++i) {
      __builtin_prefetch(dst + h[(src[i + kPrefetchDist] >> shift) & kMask]);
      dst[h[(src[i] >> shift) & kMask]++] = src[i];
    }
    for (; i < n; ++i) dst[h[(src[i] >> shift) & kMask]++] = src[i];
    std::swap(src, dst);
  }
  if (src != keys) std::copy(src, src + n, keys);
}

std::size_t merge_add_columns(const Index* ac, const Value* av, std::size_t na, const Index* bc,
                              const Value* bv, std::size_t nb, Index* out_col, Value* out_val) {
  std::size_t i = 0, j = 0, out = 0;
  while (i < na && j < nb) {
    if (ac[i] == bc[j]) {
      out_col[out] = ac[i];
      out_val[out] = av[i] + bv[j];
      ++i;
      ++j;
    } else if (ac[i] < bc[j]) {
      out_col[out] = ac[i];
      out_val[out] = av[i];
      ++i;
    } else {
      out_col[out] = bc[j];
      out_val[out] = bv[j];
      ++j;
    }
    ++out;
  }
  for (; i < na; ++i, ++out) {
    out_col[out] = ac[i];
    out_val[out] = av[i];
  }
  for (; j < nb; ++j, ++out) {
    out_col[out] = bc[j];
    out_val[out] = bv[j];
  }
  return out;
}

Value sum_span(std::span<const Value> values) {
  Value total = 0.0;
  for (const Value v : values) total += v;
  return total;
}

Value max_span(std::span<const Value> values) {
  Value best = 0.0;
  for (const Value v : values) best = std::max(best, v);
  return best;
}

void row_sums(std::span<const std::uint64_t> row_ptr, std::span<const Value> values,
              std::span<Value> sums) {
  for (std::size_t r = 0; r < sums.size(); ++r) {
    Value s = 0.0;
    for (std::uint64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) s += values[k];
    sums[r] = s;
  }
}

}  // namespace obscorr::gbl::kernels
