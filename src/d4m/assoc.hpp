#pragma once
/// \file assoc.hpp
/// D4M associative arrays (Kepner & Jananthan, "Mathematics of Big Data").
///
/// An associative array is a sparse matrix whose rows and columns are
/// indexed by *strings* (here: dotted-quad IPs, month labels, metadata
/// columns) instead of integers. The paper stores GreyNoise observations
/// as associative arrays and converts reduced GraphBLAS results to
/// associative arrays for correlation.
///
/// String-valued data (e.g. GreyNoise classifications) is represented in
/// the canonical D4M *exploded schema*: the value moves into the column
/// key, `A('1.2.3.4', 'intent|malicious') = 1`, keeping stored values
/// numeric. This module holds the arrays' storage: canonical CSR arrays
/// (`from_csr`), their archive encoding, and validated read-only views of
/// that encoding, which the production reads walk directly. The paper's
/// algebra over them (element-wise ops, zero-norm, column selection, row
/// sums) is the tests' reference, in the triple formulation of
/// tests/d4m/assoc_oracle.hpp.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace obscorr::d4m {

/// Immutable associative array. Row and column key sets are sorted and
/// deduplicated; entries are stored CSR-style over the key indices.
class AssocArray {
 public:
  /// The empty array.
  AssocArray();

  /// Adopt CSR arrays that are already in canonical form: strictly
  /// increasing row and column keys, `row_ptr` of size rows + 1 running
  /// from 0 to nnz with no empty row, column indices strictly increasing
  /// within each row, and every column key referenced. Throws
  /// std::invalid_argument on any other input — the checks `read_binary`
  /// runs on a deserialized array.
  static AssocArray from_csr(std::vector<std::string> row_keys,
                             std::vector<std::string> col_keys,
                             std::vector<std::uint64_t> row_ptr,
                             std::vector<std::uint32_t> col_idx, std::vector<double> val);

  std::size_t nnz() const { return col_idx_.size(); }
  bool empty() const { return nnz() == 0; }

  /// Sorted unique row / column key sets.
  std::span<const std::string> row_keys() const { return row_keys_; }
  std::span<const std::string> col_keys() const { return col_keys_; }

  /// The CSR arrays over the key indices: row r's entries are positions
  /// [row_ptr()[r], row_ptr()[r + 1]) of `col_idx()` and `values()`, in
  /// column-key order.
  std::span<const std::uint64_t> row_ptr() const { return row_ptr_; }
  std::span<const std::uint32_t> col_idx() const { return col_idx_; }
  std::span<const double> values() const { return val_; }

  /// Binary serialization ("OBSD4MA1", little-endian): the study-archive
  /// representation. Exact — values round-trip bit-for-bit and keys are
  /// raw bytes (empty strings and non-ASCII bytes survive).
  /// `write_binary` appends the encoding to `out`, growing it once, so an
  /// archive entry's header and array share one buffer. `read_binary`
  /// parses straight out of the mapped buffer, which must hold exactly
  /// one serialized array, with the parser and the checks of
  /// `AssocView::from_bytes`; malformed or non-canonical input throws
  /// std::invalid_argument with the same messages.
  void write_binary(std::string& out) const;
  static AssocArray read_binary(std::span<const std::byte> bytes);

  friend bool operator==(const AssocArray&, const AssocArray&) = default;

 private:
  /// Throws std::invalid_argument, with messages prefixed by `who`,
  /// unless the members are in canonical form (see from_csr).
  void validate(std::string_view who) const;

  std::vector<std::string> row_keys_;
  std::vector<std::string> col_keys_;
  std::vector<std::uint64_t> row_ptr_;  // size row_keys_.size() + 1
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> val_;
};

/// Read-only view of one serialized AssocArray, the associative-array
/// counterpart of gbl::MatrixView: `lookup` over an archived month reads
/// the rows it needs from the entry's bytes instead of copying every key
/// onto the heap, and finds them by rank key when the view is keyed by
/// addresses. Row and column keys are string_views into the bytes;
/// the CSR arrays follow the variable-length keys, so they are unaligned
/// and read with memcpy loads. A view that constructs has passed every
/// check `read_binary` runs, so it is safe to query.
class AssocView {
 public:
  /// The empty view (no rows, no entries).
  AssocView() = default;

  /// Validate and wrap one serialized array ("OBSD4MA1"). Throws
  /// std::invalid_argument, with `read_binary`'s messages, on malformed
  /// or non-canonical bytes. When `owner` is given the view shares
  /// ownership of the buffer (an archive cache page, an encoded month);
  /// otherwise the bytes must outlive the view.
  static AssocView from_bytes(std::span<const std::byte> bytes,
                              std::shared_ptr<const void> owner = {});

  /// As `from_bytes`, for an array keyed by addresses: every row key must
  /// also be a canonical dotted quad (`parse_rank`, d4m/gbl_bridge.hpp),
  /// else std::invalid_argument ("read_binary: row key is not a
  /// canonical dotted quad"). The view holds the rows' rank keys, computed
  /// in the pass that checks the row order.
  static AssocView from_ip_bytes(std::span<const std::byte> bytes,
                                 std::shared_ptr<const void> owner = {});

  std::size_t nnz() const { return nnz_; }

  /// Sorted unique row / column key sets, viewing the serialized bytes.
  std::span<const std::string_view> row_keys() const { return row_keys_; }
  std::span<const std::string_view> col_keys() const { return col_keys_; }

  /// The rows' rank keys, strictly increasing: one per row of a view
  /// made by `from_ip_bytes`, none for `from_bytes`.
  std::span<const std::uint32_t> row_ranks() const { return row_ranks_; }

  /// The (column key, value) entries of row r (r < row_keys().size()) in
  /// column-key order.
  std::vector<std::pair<std::string_view, double>> row(std::size_t r) const;

 private:
  static AssocView view(std::span<const std::byte> bytes, std::shared_ptr<const void> owner,
                        bool ip_keyed);

  std::uint64_t row_ptr(std::size_t r) const;
  std::uint32_t col_idx(std::size_t k) const;
  double val(std::size_t k) const;

  std::vector<std::string_view> row_keys_;
  std::vector<std::string_view> col_keys_;
  std::vector<std::uint32_t> row_ranks_;
  const std::byte* row_ptr_ = nullptr;  ///< u64[rows + 1], unaligned
  const std::byte* col_idx_ = nullptr;  ///< u32[nnz], unaligned
  const std::byte* val_ = nullptr;      ///< f64[nnz], unaligned
  std::size_t nnz_ = 0;
  std::shared_ptr<const void> owner_;  ///< keeps a page or buffer alive
};

}  // namespace obscorr::d4m
