#pragma once
/// \file column_fold.hpp
/// The one column fold in gbl: the column reductions `1ᵀ·A` and
/// `1ᵀ·|A|₀` and the three destination aggregates of Table II all group
/// a matrix's stored entries by column. DCSR keeps entries row-major, so
/// the fold sorts packed `(column << 32) | position` keys with the ingest
/// radix sort (`sort_packed_keys`) — only 8-byte keys move — and walks
/// the runs, reading each entry's value through its position. Inside a
/// column the positions ascend, so a column sums its values in row
/// order, deterministically.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "gbl/coo.hpp"
#include "gbl/types.hpp"

namespace obscorr::gbl {

/// Call `visit(column, sum, count)` once per non-empty column of the
/// entry arrays `col`/`val`, in ascending column order: `sum` folds the
/// column's values left to right from its first, `count` is its entry
/// count.
template <typename Visit>
void fold_columns(std::span<const Index> col, std::span<const Value> val, Visit&& visit) {
  const std::size_t n = col.size();
  OBSCORR_REQUIRE(val.size() == n, "fold_columns: column and value arrays differ in length");
  OBSCORR_REQUIRE(n <= (std::size_t{1} << 32), "fold_columns: positions must fit in 32 bits");
  std::vector<std::uint64_t> keys(n);
  for (std::size_t k = 0; k < n; ++k) keys[k] = pack_key(col[k], static_cast<Index>(k));
  sort_packed_keys(keys);
  constexpr std::uint64_t kPosition = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n;) {
    const std::uint64_t column = keys[i] >> 32;
    Value sum = val[keys[i] & kPosition];
    std::size_t j = i + 1;
    for (; j < n && keys[j] >> 32 == column; ++j) sum += val[keys[j] & kPosition];
    visit(static_cast<Index>(column), sum, j - i);
    i = j;
  }
}

}  // namespace obscorr::gbl
