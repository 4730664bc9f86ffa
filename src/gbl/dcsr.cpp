#include "gbl/dcsr.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "gbl/coo.hpp"
#include "gbl/kernels.hpp"
#include "gbl/matrix_view.hpp"

namespace obscorr::gbl {

namespace {

constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;

/// One output row of a two-operand element-wise kernel: the row id and
/// the operands' positions in their compressed row lists (kNoRow when the
/// row is absent from that operand).
struct MergedRow {
  Index row = 0;
  std::uint32_t ra = kNoRow;
  std::uint32_t rb = kNoRow;
};

/// Union-merge of the two sorted row-id lists into `out` (room for
/// a.size() + b.size() entries); returns the union size.
/// O(nrows_a + nrows_b).
std::size_t merge_row_ids(std::span<const Index> a, std::span<const Index> b, MergedRow* out) {
  std::size_t n = 0;
  std::size_t ra = 0, rb = 0;
  while (ra < a.size() || rb < b.size()) {
    if (rb == b.size() || (ra < a.size() && a[ra] < b[rb])) {
      out[n++] = {a[ra], static_cast<std::uint32_t>(ra), kNoRow};
      ++ra;
    } else if (ra == a.size() || b[rb] < a[ra]) {
      out[n++] = {b[rb], kNoRow, static_cast<std::uint32_t>(rb)};
      ++rb;
    } else {
      out[n++] = {a[ra], static_cast<std::uint32_t>(ra), static_cast<std::uint32_t>(rb)};
      ++ra;
      ++rb;
    }
  }
  return n;
}

}  // namespace

DcsrMatrix DcsrMatrix::from_sorted_tuples(std::span<const Tuple> tuples) {
  DcsrMatrix m;
  m.col_.reserve(tuples.size());
  m.val_.reserve(tuples.size());
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    const Tuple& t = tuples[i];
    if (i > 0) {
      OBSCORR_REQUIRE(tuple_less(tuples[i - 1], t),
                      "from_sorted_tuples: tuples must be sorted with unique cells");
    }
    if (m.row_ids_.empty() || m.row_ids_.back() != t.row) {
      m.row_ids_.push_back(t.row);
      m.row_ptr_.push_back(static_cast<std::uint64_t>(i));
    }
    m.col_.push_back(t.col);
    m.val_.push_back(t.val);
  }
  // row_ptr_ was default-initialized with a single 0 for the empty matrix;
  // rebuild the sentinel layout: one offset per stored row plus the end.
  if (!m.row_ids_.empty()) {
    m.row_ptr_.erase(m.row_ptr_.begin());  // drop the constructor's 0 (first row re-added it)
    m.row_ptr_.push_back(static_cast<std::uint64_t>(tuples.size()));
  }
  OBSCORR_INVARIANT(m.row_ptr_.size() == m.row_ids_.size() + 1);
  return m;
}

DcsrMatrix DcsrMatrix::from_tuples(std::vector<Tuple> tuples) {
  const auto sorted = sort_and_combine(std::move(tuples));
  return from_sorted_tuples(sorted);
}

DcsrMatrix DcsrMatrix::from_sorted_packed_keys(std::span<const std::uint64_t> keys) {
  DcsrMatrix m;
  if (keys.empty()) return m;
  // Size the arrays to the worst case up front and write through raw
  // indices — this fold runs once per sealed block, and per-element
  // push_back capacity checks are measurable there.
  m.col_.resize(keys.size());
  m.val_.resize(keys.size());
  m.row_ids_.resize(keys.size());
  m.row_ptr_.resize(keys.size() + 1);
  std::size_t nnz = 0;
  std::size_t nrows = 0;
  std::size_t i = 0;
  while (i < keys.size()) {
    const std::uint64_t key = keys[i];
    OBSCORR_REQUIRE(i == 0 || keys[i - 1] <= key, "from_sorted_packed_keys: keys must be sorted");
    std::size_t j = i + 1;
    while (j < keys.size() && keys[j] == key) ++j;
    const Index row = static_cast<Index>(key >> 32);
    if (nrows == 0 || m.row_ids_[nrows - 1] != row) {
      m.row_ids_[nrows] = row;
      m.row_ptr_[nrows] = static_cast<std::uint64_t>(nnz);
      ++nrows;
    }
    m.col_[nnz] = static_cast<Index>(key & 0xFFFFFFFFu);
    m.val_[nnz] = static_cast<Value>(j - i);
    ++nnz;
    i = j;
  }
  m.row_ptr_[nrows] = static_cast<std::uint64_t>(nnz);
  m.col_.resize(nnz);
  m.val_.resize(nnz);
  m.row_ids_.resize(nrows);
  m.row_ptr_.resize(nrows + 1);
  OBSCORR_INVARIANT(m.row_ptr_.size() == m.row_ids_.size() + 1);
  return m;
}

// The read-side reductions have one body each, in MatrixView.

Value DcsrMatrix::at(Index row, Index col) const { return MatrixView::over(*this).at(row, col); }

Value DcsrMatrix::reduce_sum() const { return MatrixView::over(*this).reduce_sum(); }

Value DcsrMatrix::reduce_max() const { return MatrixView::over(*this).reduce_max(); }

SparseVec DcsrMatrix::reduce_rows() const { return MatrixView::over(*this).reduce_rows(); }

SparseVec DcsrMatrix::reduce_rows(ThreadPool& pool) const {
  return MatrixView::over(*this).reduce_rows(pool);
}

SparseVec DcsrMatrix::reduce_rows_pattern() const {
  return MatrixView::over(*this).reduce_rows_pattern();
}

SparseVec DcsrMatrix::reduce_cols() const { return MatrixView::over(*this).reduce_cols(); }

SparseVec DcsrMatrix::reduce_cols_pattern() const {
  return MatrixView::over(*this).reduce_cols_pattern();
}

DcsrMatrix DcsrMatrix::pattern() const {
  DcsrMatrix m = *this;
  std::fill(m.val_.begin(), m.val_.end(), 1.0);
  return m;
}

namespace {

/// Number of cells in the union of two sorted column ranges.
std::size_t union_count(std::span<const Index> ac, std::span<const Index> bc) {
  std::size_t i = 0, j = 0, n = 0;
  while (i < ac.size() && j < bc.size()) {
    if (ac[i] == bc[j]) {
      ++i;
      ++j;
    } else if (ac[i] < bc[j]) {
      ++i;
    } else {
      ++j;
    }
    ++n;
  }
  return n + (ac.size() - i) + (bc.size() - j);
}

/// Merge-add two sorted column ranges into `col/val` starting at `out`.
/// Returns one past the last written slot.
std::size_t union_fill(std::span<const Index> ac, std::span<const Value> av,
                       std::span<const Index> bc, std::span<const Value> bv, Index* col,
                       Value* val, std::size_t out) {
  return out + kernels::merge_add_columns(ac.data(), av.data(), ac.size(), bc.data(), bv.data(),
                                          bc.size(), col + out, val + out);
}

}  // namespace

DcsrMatrix DcsrMatrix::ewise_add(const DcsrMatrix& a, const DcsrMatrix& b) {
  // Stream the CSR arrays of both operands directly into the output: a
  // two-pointer walk over the row-id lists, with a column merge for rows
  // present in both. No tuples, no re-sort, one allocation per array.
  DcsrMatrix out;
  const std::size_t na = a.row_ids_.size(), nb = b.row_ids_.size();
  if (na == 0 && nb == 0) return out;
  // Size everything to the worst case and write through raw indices: the
  // carry merges run on every sealed block, and for mostly-shared row
  // sets the per-row insert/push_back machinery dominates otherwise.
  out.row_ids_.resize(na + nb);
  out.row_ptr_.resize(na + nb + 1);
  out.col_.resize(a.nnz() + b.nnz());
  out.val_.resize(a.nnz() + b.nnz());
  Index* ocol = out.col_.data();
  Value* oval = out.val_.data();
  std::size_t nnz = 0;
  std::size_t nrows = 0;
  std::size_t ra = 0, rb = 0;
  while (ra < na || rb < nb) {
    out.row_ptr_[nrows] = static_cast<std::uint64_t>(nnz);
    if (rb == nb || (ra < na && a.row_ids_[ra] < b.row_ids_[rb])) {
      out.row_ids_[nrows++] = a.row_ids_[ra];
      const std::uint64_t k0 = a.row_ptr_[ra], k1 = a.row_ptr_[ra + 1];
      std::copy(a.col_.data() + k0, a.col_.data() + k1, ocol + nnz);
      std::copy(a.val_.data() + k0, a.val_.data() + k1, oval + nnz);
      nnz += static_cast<std::size_t>(k1 - k0);
      ++ra;
    } else if (ra == na || b.row_ids_[rb] < a.row_ids_[ra]) {
      out.row_ids_[nrows++] = b.row_ids_[rb];
      const std::uint64_t k0 = b.row_ptr_[rb], k1 = b.row_ptr_[rb + 1];
      std::copy(b.col_.data() + k0, b.col_.data() + k1, ocol + nnz);
      std::copy(b.val_.data() + k0, b.val_.data() + k1, oval + nnz);
      nnz += static_cast<std::size_t>(k1 - k0);
      ++rb;
    } else {
      out.row_ids_[nrows++] = a.row_ids_[ra];
      const std::uint64_t a0 = a.row_ptr_[ra], a1 = a.row_ptr_[ra + 1];
      const std::uint64_t b0 = b.row_ptr_[rb], b1 = b.row_ptr_[rb + 1];
      nnz += kernels::merge_add_columns(a.col_.data() + a0, a.val_.data() + a0,
                                        static_cast<std::size_t>(a1 - a0), b.col_.data() + b0,
                                        b.val_.data() + b0, static_cast<std::size_t>(b1 - b0),
                                        ocol + nnz, oval + nnz);
      ++ra;
      ++rb;
    }
  }
  out.row_ptr_[nrows] = static_cast<std::uint64_t>(nnz);
  out.row_ids_.resize(nrows);
  out.row_ptr_.resize(nrows + 1);
  out.col_.resize(nnz);
  out.val_.resize(nnz);
  OBSCORR_INVARIANT(out.row_ptr_.size() == out.row_ids_.size() + 1);
  return out;
}

DcsrMatrix DcsrMatrix::ewise_add(const DcsrMatrix& a, const DcsrMatrix& b, ThreadPool& pool) {
  // The pooled variant walks the row union twice (count, then fill), so
  // with fewer than three workers the single-pass serial merge wins.
  if (pool.thread_count() <= 2 || a.nnz() + b.nnz() < (1u << 14)) return ewise_add(a, b);

  // Pass 0 (serial, cheap): union-merge the row-id lists into the
  // merged-row table.
  std::vector<MergedRow> rows(a.row_ids_.size() + b.row_ids_.size());
  const std::size_t nrows = merge_row_ids(a.row_ids_, b.row_ids_, rows.data());
  std::vector<std::uint64_t> counts(nrows);

  auto a_cols = [&](std::uint32_t r) {
    return std::span<const Index>(a.col_.data() + a.row_ptr_[r], a.row_ptr_[r + 1] - a.row_ptr_[r]);
  };
  auto b_cols = [&](std::uint32_t r) {
    return std::span<const Index>(b.col_.data() + b.row_ptr_[r], b.row_ptr_[r + 1] - b.row_ptr_[r]);
  };

  // Pass 1 (parallel): per-row output sizes.
  parallel_for(pool, 0, nrows, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      const MergedRow& m = rows[r];
      if (m.rb == kNoRow) {
        counts[r] = a.row_ptr_[m.ra + 1] - a.row_ptr_[m.ra];
      } else if (m.ra == kNoRow) {
        counts[r] = b.row_ptr_[m.rb + 1] - b.row_ptr_[m.rb];
      } else {
        counts[r] = union_count(a_cols(m.ra), b_cols(m.rb));
      }
    }
  });

  // Exclusive scan -> row_ptr, then size the value arrays exactly.
  DcsrMatrix out;
  out.row_ptr_.assign(nrows + 1, 0);
  for (std::size_t r = 0; r < nrows; ++r) out.row_ptr_[r + 1] = out.row_ptr_[r] + counts[r];
  out.row_ids_.resize(nrows);
  out.col_.resize(out.row_ptr_[nrows]);
  out.val_.resize(out.row_ptr_[nrows]);

  // Pass 2 (parallel): fill each row at its precomputed offset.
  parallel_for(pool, 0, nrows, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      const MergedRow& m = rows[r];
      out.row_ids_[r] = m.row;
      std::size_t o = out.row_ptr_[r];
      if (m.rb == kNoRow) {
        const std::uint64_t k0 = a.row_ptr_[m.ra], k1 = a.row_ptr_[m.ra + 1];
        std::copy(a.col_.begin() + static_cast<std::ptrdiff_t>(k0),
                  a.col_.begin() + static_cast<std::ptrdiff_t>(k1), out.col_.begin() + static_cast<std::ptrdiff_t>(o));
        std::copy(a.val_.begin() + static_cast<std::ptrdiff_t>(k0),
                  a.val_.begin() + static_cast<std::ptrdiff_t>(k1), out.val_.begin() + static_cast<std::ptrdiff_t>(o));
      } else if (m.ra == kNoRow) {
        const std::uint64_t k0 = b.row_ptr_[m.rb], k1 = b.row_ptr_[m.rb + 1];
        std::copy(b.col_.begin() + static_cast<std::ptrdiff_t>(k0),
                  b.col_.begin() + static_cast<std::ptrdiff_t>(k1), out.col_.begin() + static_cast<std::ptrdiff_t>(o));
        std::copy(b.val_.begin() + static_cast<std::ptrdiff_t>(k0),
                  b.val_.begin() + static_cast<std::ptrdiff_t>(k1), out.val_.begin() + static_cast<std::ptrdiff_t>(o));
      } else {
        const std::uint64_t a0 = a.row_ptr_[m.ra], a1 = a.row_ptr_[m.ra + 1];
        const std::uint64_t b0 = b.row_ptr_[m.rb], b1 = b.row_ptr_[m.rb + 1];
        union_fill({a.col_.data() + a0, a1 - a0}, {a.val_.data() + a0, a1 - a0},
                   {b.col_.data() + b0, b1 - b0}, {b.val_.data() + b0, b1 - b0},
                   out.col_.data(), out.val_.data(), o);
      }
    }
  });
  OBSCORR_INVARIANT(out.row_ptr_.size() == out.row_ids_.size() + 1);
  return out;
}

DcsrMatrix DcsrMatrix::select(const std::function<bool(Index, Index)>& keep) const {
  std::vector<Tuple> kept;
  for_each([&](Index r, Index c, Value v) {
    if (keep(r, c)) kept.push_back({r, c, v});
  });
  return from_sorted_tuples(kept);
}

void DcsrMatrix::for_each(const std::function<void(Index, Index, Value)>& visit) const {
  for (std::size_t r = 0; r < row_ids_.size(); ++r) {
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      visit(row_ids_[r], col_[k], val_[k]);
    }
  }
}

std::vector<Tuple> DcsrMatrix::to_tuples() const {
  std::vector<Tuple> tuples;
  tuples.reserve(nnz());
  for_each([&](Index r, Index c, Value v) { tuples.push_back({r, c, v}); });
  return tuples;
}

std::size_t DcsrMatrix::memory_bytes() const {
  return row_ids_.capacity() * sizeof(Index) + row_ptr_.capacity() * sizeof(std::uint64_t) +
         col_.capacity() * sizeof(Index) + val_.capacity() * sizeof(Value);
}

}  // namespace obscorr::gbl
