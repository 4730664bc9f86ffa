#include "gbl/matrix_view.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/error.hpp"
#include "gbl/column_fold.hpp"
#include "gbl/kernels.hpp"

namespace obscorr::gbl {

namespace {

constexpr char kMagicV2[8] = {'O', 'B', 'S', 'C', 'G', 'B', 'L', '2'};
constexpr std::size_t kHeaderBytes = 24;

template <typename T>
void append_pod(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
void append_array(std::string& out, std::span<const T> values) {
  out.append(reinterpret_cast<const char*>(values.data()), values.size() * sizeof(T));
}

void pad_to8(std::string& out, std::size_t base) {
  while ((out.size() - base) % 8 != 0) out.push_back('\0');
}

template <typename T>
std::span<const T> take_array(std::span<const std::byte> bytes, std::size_t& pos,
                              std::size_t count) {
  OBSCORR_REQUIRE(count <= (bytes.size() - pos) / sizeof(T),
                  "matrix view: declared counts exceed the payload size");
  const auto raw = bytes.subspan(pos, count * sizeof(T));
  pos += count * sizeof(T);
  return {reinterpret_cast<const T*>(raw.data()), count};
}

void skip_pad8(std::span<const std::byte> bytes, std::size_t& pos) {
  while (pos % 8 != 0) {
    OBSCORR_REQUIRE(pos < bytes.size() && bytes[pos] == std::byte{0},
                    "matrix view: bad section padding");
    ++pos;
  }
}

}  // namespace

void append_matrix_v2(std::string& out, const DcsrMatrix& m) {
  const std::size_t base = out.size();
  out.append(kMagicV2, sizeof kMagicV2);
  append_pod<std::uint64_t>(out, m.nonempty_rows());
  append_pod<std::uint64_t>(out, m.nnz());
  append_array(out, m.row_ids());
  pad_to8(out, base);
  append_array(out, m.row_ptr());
  append_array(out, m.col());
  pad_to8(out, base);
  append_array(out, m.val());
}

MatrixView MatrixView::from_bytes(std::span<const std::byte> bytes,
                                  std::shared_ptr<const void> owner) {
  OBSCORR_REQUIRE(reinterpret_cast<std::uintptr_t>(bytes.data()) % 8 == 0,
                  "matrix view: payload must start 8-byte aligned");
  OBSCORR_REQUIRE(bytes.size() >= kHeaderBytes, "matrix view: truncated header");
  OBSCORR_REQUIRE(std::memcmp(bytes.data(), kMagicV2, sizeof kMagicV2) == 0,
                  "matrix view: bad magic");

  std::uint64_t rows = 0, nnz = 0;
  std::memcpy(&rows, bytes.data() + 8, sizeof rows);
  std::memcpy(&nnz, bytes.data() + 16, sizeof nnz);
  // Every stored row holds at least one entry, and all four arrays must
  // fit inside the payload — reject hostile counts before touching them.
  OBSCORR_REQUIRE(rows <= nnz, "matrix view: more rows than entries");
  OBSCORR_REQUIRE(nnz <= bytes.size() / sizeof(Index),
                  "matrix view: declared counts exceed the payload size");

  MatrixView v;
  v.owner_ = std::move(owner);
  std::size_t pos = kHeaderBytes;
  v.row_ids_ = take_array<Index>(bytes, pos, static_cast<std::size_t>(rows));
  skip_pad8(bytes, pos);
  v.row_ptr_ = take_array<std::uint64_t>(bytes, pos, static_cast<std::size_t>(rows) + 1);
  v.col_ = take_array<Index>(bytes, pos, static_cast<std::size_t>(nnz));
  skip_pad8(bytes, pos);
  v.val_ = take_array<Value>(bytes, pos, static_cast<std::size_t>(nnz));
  OBSCORR_REQUIRE(pos == bytes.size(), "matrix view: trailing bytes after values");

  // Structural contract: sorted unique rows, monotone offsets covering
  // [0, nnz] with no empty rows, sorted unique columns inside each row.
  OBSCORR_REQUIRE(v.row_ptr_.front() == 0 && v.row_ptr_.back() == nnz,
                  "matrix view: inconsistent row offsets");
  for (std::size_t r = 0; r < v.row_ids_.size(); ++r) {
    OBSCORR_REQUIRE(r == 0 || v.row_ids_[r - 1] < v.row_ids_[r],
                    "matrix view: row ids must be strictly increasing");
    OBSCORR_REQUIRE(v.row_ptr_[r] < v.row_ptr_[r + 1],
                    "matrix view: row offsets must be strictly increasing");
    OBSCORR_REQUIRE(v.row_ptr_[r + 1] <= nnz,
                    "matrix view: row offset exceeds the entry count");
    for (std::uint64_t k = v.row_ptr_[r] + 1; k < v.row_ptr_[r + 1]; ++k) {
      OBSCORR_REQUIRE(v.col_[k - 1] < v.col_[k],
                      "matrix view: columns must be strictly increasing within a row");
    }
  }
  return v;
}

MatrixView MatrixView::over(const DcsrMatrix& m) {
  MatrixView v;
  v.row_ids_ = m.row_ids();
  v.row_ptr_ = m.row_ptr();
  v.col_ = m.col();
  v.val_ = m.val();
  return v;
}

Value MatrixView::at(Index row, Index col) const {
  const auto rit = std::lower_bound(row_ids_.begin(), row_ids_.end(), row);
  if (rit == row_ids_.end() || *rit != row) return 0.0;
  const std::size_t r = static_cast<std::size_t>(rit - row_ids_.begin());
  const auto begin = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto end = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto cit = std::lower_bound(begin, end, col);
  if (cit == end || *cit != col) return 0.0;
  return val_[static_cast<std::size_t>(cit - col_.begin())];
}

Value MatrixView::reduce_sum() const { return kernels::sum_span(val_); }

Value MatrixView::reduce_max() const { return kernels::max_span(val_); }

SparseVec MatrixView::reduce_rows() const {
  std::vector<Index> idx(row_ids_.begin(), row_ids_.end());
  std::vector<Value> sums(row_ids_.size(), 0.0);
  kernels::row_sums(row_ptr_, val_, sums);
  return SparseVec(std::move(idx), std::move(sums));
}

SparseVec MatrixView::reduce_rows(ThreadPool& pool) const {
  std::vector<Index> idx(row_ids_.begin(), row_ids_.end());
  std::vector<Value> sums(row_ids_.size(), 0.0);
  parallel_for(pool, 0, row_ids_.size(), [&](std::size_t begin, std::size_t end) {
    kernels::row_sums(row_ptr_.subspan(begin, end - begin + 1), val_,
                      std::span<Value>(sums).subspan(begin, end - begin));
  });
  return SparseVec(std::move(idx), std::move(sums));
}

SparseVec MatrixView::reduce_rows_pattern() const {
  std::vector<Index> idx(row_ids_.begin(), row_ids_.end());
  std::vector<Value> counts(row_ids_.size(), 0.0);
  for (std::size_t r = 0; r < row_ids_.size(); ++r) {
    counts[r] = static_cast<Value>(row_ptr_[r + 1] - row_ptr_[r]);
  }
  return SparseVec(std::move(idx), std::move(counts));
}

namespace {

SparseVec reduce_columns(std::span<const Index> col, std::span<const Value> val, bool pattern) {
  std::vector<Index> idx;
  std::vector<Value> sums;
  fold_columns(col, val, [&](Index c, Value sum, std::size_t count) {
    idx.push_back(c);
    sums.push_back(pattern ? static_cast<Value>(count) : sum);
  });
  return SparseVec(std::move(idx), std::move(sums));
}

}  // namespace

SparseVec MatrixView::reduce_cols() const { return reduce_columns(col_, val_, false); }

SparseVec MatrixView::reduce_cols_pattern() const { return reduce_columns(col_, val_, true); }

DcsrMatrix MatrixView::materialize() const {
  std::vector<Tuple> tuples;
  tuples.reserve(nnz());
  for (std::size_t r = 0; r < row_ids_.size(); ++r) {
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      tuples.push_back({row_ids_[r], col_[k], val_[k]});
    }
  }
  return DcsrMatrix::from_sorted_tuples(tuples);
}

}  // namespace obscorr::gbl
