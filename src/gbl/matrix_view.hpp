#pragma once
/// \file matrix_view.hpp
/// Zero-copy read access to an archived hypersparse matrix.
///
/// Format v2 ("OBSCGBL2") lays the DCSR arrays out with every section
/// 8-byte aligned relative to the payload start:
///
///   8 bytes   magic "OBSCGBL2"
///   u64       nonempty rows
///   u64       nnz
///   u32[rows]   row ids           (pad to 8)
///   u64[rows+1] row offsets
///   u32[nnz]    column ids        (pad to 8)
///   f64[nnz]    values
///
/// so a payload mapped at an 8-aligned offset can be *viewed* rather
/// than deserialized: `MatrixView` wraps const spans straight over the
/// mapped bytes. Construction validates the full structural contract
/// (counts vs. byte size, sorted unique rows, monotone offsets, sorted
/// unique columns per row) up front — a view that constructs is safe to
/// query; hostile or corrupt bytes throw std::invalid_argument.
///
/// The view holds the one body of every read-side reduction (`at`,
/// `reduce_sum`, `reduce_rows`, `reduce_cols`, ...), run directly over
/// the mapped spans with no copy of the nnz-sized arrays; the owning
/// DcsrMatrix forwards its reductions through `MatrixView::over`.
/// `materialize()` serves call sites that need an owning matrix.

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "common/thread_pool.hpp"
#include "gbl/dcsr.hpp"
#include "gbl/sparse_vec.hpp"
#include "gbl/types.hpp"

namespace obscorr::gbl {

/// Immutable DCSR view over externally owned (typically mmap'd) bytes.
/// The underlying buffer must outlive the view.
class MatrixView {
 public:
  /// An empty view (no rows, no entries).
  MatrixView() = default;

  /// Validate and wrap a format-v2 payload. `bytes.data()` must be
  /// 8-byte aligned (archive payload starts are, mapped and decoded
  /// alike). Throws std::invalid_argument on any malformation. When
  /// `owner` is given the view shares ownership of the buffer — how the
  /// archive hands out views over cache pages that may be evicted while
  /// the view is live; untyped because gbl sits below the archive.
  static MatrixView from_bytes(std::span<const std::byte> bytes,
                               std::shared_ptr<const void> owner = {});

  /// Borrow the arrays of an in-memory matrix (no serialization); used
  /// to share the reduction kernels between the view and owning types.
  static MatrixView over(const DcsrMatrix& m);

  std::size_t nnz() const { return col_.size(); }
  std::size_t nonempty_rows() const { return row_ids_.size(); }

  std::span<const Index> row_ids() const { return row_ids_; }
  std::span<const std::uint64_t> row_ptr() const { return row_ptr_; }
  std::span<const Index> col() const { return col_; }
  std::span<const Value> val() const { return val_; }

  /// Value at (row, col); 0 when the cell is not stored.
  Value at(Index row, Index col) const;

  /// Sum of all values `1ᵀ A 1` (the valid-packet count).
  Value reduce_sum() const;

  /// Maximum stored value `max(A)`.
  Value reduce_max() const;

  /// Row reduction `A·1`: packets per source.
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

  /// Owning deep copy, re-validated through the tuple path.
  DcsrMatrix materialize() const;

 private:
  std::span<const Index> row_ids_;
  std::span<const std::uint64_t> row_ptr_;
  std::span<const Index> col_;
  std::span<const Value> val_;
  std::shared_ptr<const void> owner_;  ///< keeps a decoded page alive
};

/// Serialize `m` in format v2 (the layout MatrixView reads), appending
/// to `out`. The caller must place the payload at an 8-aligned offset
/// for the zero-copy read path; the archive writer guarantees this.
void append_matrix_v2(std::string& out, const DcsrMatrix& m);

}  // namespace obscorr::gbl
