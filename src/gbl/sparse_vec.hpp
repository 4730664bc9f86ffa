#pragma once
/// \file sparse_vec.hpp
/// Sparse vector over the 2^32 IPv4 index space: the result type of the
/// Table II row/column reductions (source packets `A·1`, source fan-out
/// `|A|_0·1`, destination packets `1ᵀ·A`, fan-in `1ᵀ·|A|_0`).

#include <cstdint>
#include <span>
#include <vector>

#include "gbl/types.hpp"

namespace obscorr::gbl {

/// Immutable sparse vector: strictly increasing indices with values.
class SparseVec {
 public:
  SparseVec() = default;

  /// Construct from parallel arrays; indices must be strictly increasing.
  SparseVec(std::vector<Index> indices, std::vector<Value> values);

  /// Number of stored (nonzero) entries.
  std::size_t nnz() const { return indices_.size(); }

  std::span<const Index> indices() const { return indices_; }
  std::span<const Value> values() const { return values_; }

  /// Value at index i, or 0 when the entry is not stored. O(log nnz).
  Value at(Index i) const;

  /// Sum of stored values (e.g. total packets across sources).
  Value reduce_sum() const;

  /// Maximum stored value; 0 for an empty vector (no entries, no packets).
  Value reduce_max() const;

  friend bool operator==(const SparseVec&, const SparseVec&) = default;

 private:
  std::vector<Index> indices_;
  std::vector<Value> values_;
};

}  // namespace obscorr::gbl
