#pragma once
/// \file kernels.hpp
/// The hot GBL loops behind the matrix API, called by dcsr.cpp / coo.cpp
/// / matrix_view.cpp / sparse_vec.cpp: radix sort, the column merge and
/// the Table II span reductions, one portable body each (vector variants
/// won nothing end to end; docs/performance.md, "History: SIMD
/// dispatch").
///
/// The reductions fold left from 0.0, so their results do not depend on
/// the host. max assumes no NaNs (the pipeline stores only finite
/// counts).

#include <cstddef>
#include <cstdint>
#include <span>

#include "gbl/types.hpp"

namespace obscorr::gbl::kernels {

/// Serial LSD radix sort of u64 keys: six 11-bit digit passes with a
/// scatter buffer; all six histograms are built in one initial sweep and
/// constant-digit passes are skipped. The scatter buffer and histograms
/// are allocated per call.
void radix_sort_u64(std::uint64_t* keys, std::size_t n);

/// Merge-add two sorted unique column runs into `out_col`/`out_val`
/// (shared columns sum `av[i] + bv[j]`). Returns the entries written
/// (the column union size). The output buffers must have room for
/// `na + nb` entries.
std::size_t merge_add_columns(const Index* ac, const Value* av, std::size_t na, const Index* bc,
                              const Value* bv, std::size_t nb, Index* out_col, Value* out_val);

/// Sum of a value span (left fold from 0.0).
Value sum_span(std::span<const Value> values);

/// Max of a value span; 0.0 for an empty span. No-NaN contract.
Value max_span(std::span<const Value> values);

/// Per-row sums: `sums[r] = sum(values[row_ptr[r] .. row_ptr[r+1]))` for
/// each of the `sums.size()` rows (left fold from 0.0); `row_ptr` holds
/// one more entry than `sums` and its offsets index into `values`.
void row_sums(std::span<const std::uint64_t> row_ptr, std::span<const Value> values,
              std::span<Value> sums);

}  // namespace obscorr::gbl::kernels
