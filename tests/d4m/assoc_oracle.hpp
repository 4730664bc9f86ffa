#pragma once
/// \file assoc_oracle.hpp
/// The paper's D4M associative-array algebra (Kepner & Jananthan,
/// "Mathematics of Big Data") in the triple formulation: the one
/// reference the production reads are checked against. An array is its
/// (row, col, value) triples sorted by (row, col); every operation
/// expands its operands to triples, combines them, and rebuilds the
/// result with `build`, which hands canonical CSR arrays to
/// `AssocArray::from_csr`.
///
/// A cell stored in both operands of an element-wise op combines in
/// operand order (`x + y`, `x * y`, `std::max(x, y)`), which fixes the
/// NaN and -0 outcomes: `ewise_max(acc, month)` keeps a NaN peak, as the
/// database's max fold over months does.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "d4m/assoc.hpp"

namespace obscorr::d4m::oracle {

/// One (row, col, value) triple with string keys. Triples are equal
/// when their keys are and their values are bit for bit, so NaN payloads
/// and signed zeros count.
struct Triple {
  std::string row;
  std::string col;
  double val = 0.0;

  friend bool operator==(const Triple& a, const Triple& b) {
    return a.row == b.row && a.col == b.col &&
           std::bit_cast<std::uint64_t>(a.val) == std::bit_cast<std::uint64_t>(b.val);
  }
};

/// gtest's printer for failed comparisons.
inline void PrintTo(const Triple& t, std::ostream* os) {
  *os << "(\"" << t.row << "\", \"" << t.col << "\", " << t.val << ")";
}

inline bool key_less(const Triple& a, const Triple& b) {
  return a.row != b.row ? a.row < b.row : a.col < b.col;
}

/// Sort by (row, col) and plus-accumulate duplicates (GraphBLAS "plus",
/// the D4M default) in input order; the cells become the canonical CSR
/// arrays `from_csr` adopts.
inline AssocArray build(std::vector<Triple> triples) {
  std::stable_sort(triples.begin(), triples.end(), key_less);
  std::vector<Triple> cells;
  for (Triple& t : triples) {
    if (!cells.empty() && cells.back().row == t.row && cells.back().col == t.col) {
      cells.back().val += t.val;
    } else {
      cells.push_back(std::move(t));
    }
  }
  std::vector<std::string> cols;
  for (const Triple& t : cells) cols.push_back(t.col);
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());

  std::vector<std::string> rows;
  std::vector<std::uint64_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<double> val;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i == 0 || cells[i - 1].row != cells[i].row) {
      rows.push_back(cells[i].row);
      row_ptr.push_back(i);
    }
    const auto col = std::lower_bound(cols.begin(), cols.end(), cells[i].col);
    col_idx.push_back(static_cast<std::uint32_t>(col - cols.begin()));
    val.push_back(cells[i].val);
  }
  row_ptr.push_back(cells.size());
  return AssocArray::from_csr(std::move(rows), std::move(cols), std::move(row_ptr),
                              std::move(col_idx), std::move(val));
}

/// Every entry, sorted by (row, col).
inline std::vector<Triple> triples(const AssocArray& a) {
  std::vector<Triple> out;
  const auto row_ptr = a.row_ptr();
  for (std::size_t r = 0; r < a.row_keys().size(); ++r) {
    for (std::uint64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      out.push_back({a.row_keys()[r], a.col_keys()[a.col_idx()[k]], a.values()[k]});
    }
  }
  return out;
}

inline std::vector<Triple> triples(const AssocView& v) {
  std::vector<Triple> out;
  for (std::size_t r = 0; r < v.row_keys().size(); ++r) {
    for (const auto& [col, val] : v.row(r)) {
      out.push_back({std::string(v.row_keys()[r]), std::string(col), val});
    }
  }
  return out;
}

/// The walk over both operands' sorted triples behind the element-wise
/// ops: the union of cells, or their intersection when `intersect`; a
/// cell stored in both becomes combine(a's value, b's value).
template <typename Combine>
AssocArray merge(const AssocArray& a, const AssocArray& b, bool intersect, Combine combine) {
  const std::vector<Triple> ta = triples(a);
  const std::vector<Triple> tb = triples(b);
  std::vector<Triple> out;
  std::size_t i = 0, j = 0;
  while (i < ta.size() && j < tb.size()) {
    if (ta[i].row == tb[j].row && ta[i].col == tb[j].col) {
      out.push_back({ta[i].row, ta[i].col, combine(ta[i].val, tb[j].val)});
      ++i;
      ++j;
    } else if (key_less(ta[i], tb[j])) {
      if (!intersect) out.push_back(ta[i]);
      ++i;
    } else {
      if (!intersect) out.push_back(tb[j]);
      ++j;
    }
  }
  if (!intersect) {
    out.insert(out.end(), ta.begin() + static_cast<std::ptrdiff_t>(i), ta.end());
    out.insert(out.end(), tb.begin() + static_cast<std::ptrdiff_t>(j), tb.end());
  }
  return build(std::move(out));
}

/// Element-wise sum over the union of cells (D4M `A + B`).
inline AssocArray ewise_add(const AssocArray& a, const AssocArray& b) {
  return merge(a, b, /*intersect=*/false, [](double x, double y) { return x + y; });
}

/// Element-wise product over the intersection of cells (D4M `A & B`):
/// the correlation primitive, whose cells are those present in both.
inline AssocArray ewise_mult(const AssocArray& a, const AssocArray& b) {
  return merge(a, b, /*intersect=*/true, [](double x, double y) { return x * y; });
}

/// Element-wise maximum over the union of cells (the max semiring).
inline AssocArray ewise_max(const AssocArray& a, const AssocArray& b) {
  return merge(a, b, /*intersect=*/false, [](double x, double y) { return std::max(x, y); });
}

/// The entries whose triple `keep` accepts.
template <typename Keep>
AssocArray filter(const AssocArray& a, Keep keep) {
  std::vector<Triple> kept;
  for (Triple& t : triples(a)) {
    if (keep(t)) kept.push_back(std::move(t));
  }
  return build(std::move(kept));
}

/// Zero-norm |A|₀: every stored value becomes 1.
inline AssocArray logical(const AssocArray& a) {
  std::vector<Triple> ts = triples(a);
  for (Triple& t : ts) t.val = 1.0;
  return build(std::move(ts));
}

/// Row sums `A·1` as a one-column array (column key "sum"), each summed
/// in column-key order.
inline AssocArray row_sum(const AssocArray& a) {
  std::vector<Triple> sums;
  for (const Triple& t : triples(a)) {
    if (sums.empty() || sums.back().row != t.row) sums.push_back({t.row, "sum", 0.0});
    sums.back().val += t.val;
  }
  return build(std::move(sums));
}

/// Sub-array of the columns whose key is in `keys` (D4M `A(:, keys)`).
inline AssocArray select_cols(const AssocArray& a, std::span<const std::string> keys) {
  return filter(a, [keys](const Triple& t) {
    return std::find(keys.begin(), keys.end(), t.col) != keys.end();
  });
}

/// Sub-array of the columns whose key starts with `prefix` (the D4M
/// `A(:, 'intent|*')` idiom over an exploded schema).
inline AssocArray select_cols_prefix(const AssocArray& a, std::string_view prefix) {
  return filter(a, [prefix](const Triple& t) { return t.col.starts_with(prefix); });
}

/// True when the row key has at least one stored entry.
inline bool has_row(const AssocArray& a, std::string_view row) {
  return std::binary_search(a.row_keys().begin(), a.row_keys().end(), row);
}

/// The value at (row, col); 0 when absent.
inline double at(const AssocArray& a, std::string_view row, std::string_view col) {
  const auto rows = a.row_keys();
  const auto it = std::lower_bound(rows.begin(), rows.end(), row);
  if (it == rows.end() || *it != row) return 0.0;
  const auto r = static_cast<std::size_t>(it - rows.begin());
  for (std::uint64_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
    if (a.col_keys()[a.col_idx()[k]] == col) return a.values()[k];
  }
  return 0.0;
}

/// The keys two sorted key sets share: the sources both observatories
/// saw, when the sets are their row keys.
inline std::vector<std::string> shared_keys(std::span<const std::string> a,
                                            std::span<const std::string> b) {
  std::vector<std::string> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

}  // namespace obscorr::d4m::oracle
