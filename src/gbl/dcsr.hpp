#pragma once
/// \file dcsr.hpp
/// Doubly-compressed sparse row (DCSR) hypersparse matrix.
///
/// Traffic matrices live in a 2^32 x 2^32 index space but a 2^30-packet
/// snapshot touches well under 2^21 rows, so a conventional CSR row-pointer
/// array (2^32+1 entries) is ruinous. DCSR stores only the non-empty rows:
///
///   row_ids  — sorted ids of non-empty rows            (nrows entries)
///   row_ptr  — offsets into col/val per stored row      (nrows+1 entries)
///   col, val — column ids and values, row-major sorted  (nnz entries)
///
/// This is the layout SuiteSparse:GraphBLAS selects for hypersparse
/// matrices (Davis 2019, ref [40]) and the representation behind the
/// paper's traffic-matrix pipeline.

#include <functional>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "gbl/sparse_vec.hpp"
#include "gbl/types.hpp"

namespace obscorr::gbl {

/// Immutable hypersparse matrix in DCSR form.
class DcsrMatrix {
 public:
  /// The empty matrix (no stored rows).
  DcsrMatrix() { row_ptr_.push_back(0); }

  /// Build from tuples that are already row-major sorted with unique
  /// cells (the post-condition of `sort_and_combine`).
  static DcsrMatrix from_sorted_tuples(std::span<const Tuple> tuples);

  /// Build from arbitrary tuples: sorts and combines duplicates first.
  static DcsrMatrix from_tuples(std::vector<Tuple> tuples);

  /// Build from packed `(row << 32) | col` keys that are already sorted;
  /// duplicate keys are allowed and fold into their multiplicity, so a
  /// sorted packet block becomes its traffic matrix in one pass with no
  /// tuple materialization. This is the ingest fast path.
  static DcsrMatrix from_sorted_packed_keys(std::span<const std::uint64_t> keys);

  /// Number of stored entries.
  std::size_t nnz() const { return col_.size(); }

  /// Number of non-empty rows (unique sources for an ext->int matrix).
  std::size_t nonempty_rows() const { return row_ids_.size(); }

  // The read-side reductions below run MatrixView's bodies over this
  // matrix's arrays (`MatrixView::over`); nothing is copied.

  /// Value at (row, col); 0 when the cell is not stored.
  Value at(Index row, Index col) const;

  /// Sum of all values: the valid-packet count `1ᵀ A 1` (Table II).
  Value reduce_sum() const;

  /// Maximum stored value: max link packets `max(A)` (Table II).
  Value reduce_max() const;

  /// Row reduction `A·1`: packets per source (Table II).
  SparseVec reduce_rows() const;

  /// Parallel row reduction over `pool`. Each row is summed in index
  /// order whatever the chunking, so the result is bit-identical to the
  /// serial reduction at every thread count.
  SparseVec reduce_rows(ThreadPool& pool) const;

  /// Row reduction of the pattern `|A|₀·1`: fan-out per source.
  SparseVec reduce_rows_pattern() const;

  /// Column reduction `1ᵀ·A`: packets per destination.
  SparseVec reduce_cols() const;

  /// Column reduction of the pattern `1ᵀ·|A|₀`: fan-in per destination.
  SparseVec reduce_cols_pattern() const;

  /// Zero-norm `|A|₀`: every stored value replaced by 1.
  DcsrMatrix pattern() const;

  /// Element-wise sum `A ⊕ B` over the union of stored cells. Streams
  /// the CSR arrays of both operands into a preallocated output; no
  /// intermediate tuples.
  static DcsrMatrix ewise_add(const DcsrMatrix& a, const DcsrMatrix& b);

  /// Parallel `A ⊕ B`: the merged row-id list is partitioned over `pool`
  /// (count pass, exclusive scan, fill pass). Per-row merges are
  /// independent, so the result is bit-identical to the serial kernel at
  /// every thread count.
  static DcsrMatrix ewise_add(const DcsrMatrix& a, const DcsrMatrix& b, ThreadPool& pool);

  /// Keep only entries whose (row, col) satisfies `keep`; used for
  /// quadrant extraction (Fig. 1).
  DcsrMatrix select(const std::function<bool(Index, Index)>& keep) const;

  /// Visit every stored entry in row-major order.
  void for_each(const std::function<void(Index, Index, Value)>& visit) const;

  /// Export as sorted tuples (inverse of `from_sorted_tuples`).
  std::vector<Tuple> to_tuples() const;

  std::span<const Index> row_ids() const { return row_ids_; }
  std::span<const std::uint64_t> row_ptr() const { return row_ptr_; }
  std::span<const Index> col() const { return col_; }
  std::span<const Value> val() const { return val_; }

  /// Approximate heap footprint in bytes, for the memory-scaling bench.
  std::size_t memory_bytes() const;

  friend bool operator==(const DcsrMatrix&, const DcsrMatrix&) = default;

 private:
  std::vector<Index> row_ids_;
  std::vector<std::uint64_t> row_ptr_;
  std::vector<Index> col_;
  std::vector<Value> val_;
};

}  // namespace obscorr::gbl
