#pragma once
/// \file coo.hpp
/// COO assembly: the sort front end of the hypersparse pipeline. The
/// ingest path sorts packed `(src << 32) | dst` packet keys
/// (`sort_packed_keys`) and folds them with
/// `DcsrMatrix::from_sorted_packed_keys`; `sort_and_combine` is the tuple
/// formulation that `DcsrMatrix::from_tuples` and the tests use.

#include <span>
#include <vector>

#include "gbl/types.hpp"

namespace obscorr::gbl {

/// Sort tuples row-major and sum values of duplicate (row, col) cells,
/// in place; returns the combined tuples.
std::vector<Tuple> sort_and_combine(std::vector<Tuple> tuples);

/// Sort packed `(row << 32) | col` keys ascending, in place. The batched
/// ingest path sorts these 8-byte keys instead of 16-byte tuples: half
/// the bytes moved and a branch-free comparison. Accepts any contiguous
/// key buffer.
void sort_packed_keys(std::span<std::uint64_t> keys);

/// Pack a (row, col) cell into the ingest key order. Sorting packed keys
/// equals sorting tuples with `tuple_less`.
constexpr std::uint64_t pack_key(Index row, Index col) {
  return (static_cast<std::uint64_t>(row) << 32) | col;
}

}  // namespace obscorr::gbl
