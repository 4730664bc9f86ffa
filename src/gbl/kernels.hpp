#pragma once
/// \file kernels.hpp
/// The hot GBL loops behind the matrix API. Radix sort and the Table II
/// span reductions ship a scalar reference implementation and an AVX2
/// variant selected at runtime (common/simd.hpp); the dispatched entry
/// points are what dcsr.cpp / coo.cpp / matrix_view.cpp / sparse_vec.cpp
/// call, and the `_scalar` and `_avx2` names are exported so the
/// differential test suites can drive both sides directly and assert
/// byte equality. The column merge and per-row sums are scalar only:
/// their AVX2 variants never beat the scalar loop end to end and were
/// removed.
///
/// Bit-identity contract: every AVX2 variant produces output bit-identical
/// to its scalar reference.
///  - radix sort permutes integers — identical on any input.
///  - the floating-point sum uses lane-split accumulators, which
///    reassociate the adds. That is bit-identical whenever every partial
///    sum is exactly representable — true for this pipeline, whose values
///    are integer packet counts far below 2^53. For general doubles the
///    reassociation can differ in the last ulp.
///  - max assumes no NaNs (the scalar fold starts at 0.0 and the
///    pipeline stores only finite counts).

#include <cstddef>
#include <cstdint>
#include <span>

#include "gbl/types.hpp"

namespace obscorr::mem {
class Arena;
}  // namespace obscorr::mem

namespace obscorr::gbl::kernels {

// ---- entry points (dispatched unless marked scalar only) ---------------

/// Serial LSD radix sort of u64 keys: six 11-bit digit passes with a
/// scatter buffer; all six histograms are built in one initial sweep and
/// constant-digit passes are skipped. The scatter buffer and histograms
/// live in a frame of `arena` for the duration of the call — callers
/// share one recycled arena (usually `mem::scratch_arena()`) instead of
/// round-tripping malloc per block.
void radix_sort_u64(std::uint64_t* keys, std::size_t n, mem::Arena& arena);

/// Merge-add two sorted unique column runs into `out_col`/`out_val`
/// (shared columns sum `av[i] + bv[j]`). Returns the entries written
/// (the column union size). The output buffers must have room for
/// `na + nb` entries. Scalar only.
std::size_t merge_add_columns(const Index* ac, const Value* av, std::size_t na, const Index* bc,
                              const Value* bv, std::size_t nb, Index* out_col, Value* out_val);

/// Sum of a value span (left fold from 0.0 in the scalar reference).
Value sum_span(std::span<const Value> values);

/// Max of a value span; 0.0 for an empty span. No-NaN contract.
Value max_span(std::span<const Value> values);

/// Per-row sums: `sums[r] = sum(values[row_ptr[r] .. row_ptr[r+1]))` for
/// each of the `sums.size()` rows (left fold from 0.0); `row_ptr` holds
/// one more entry than `sums` and its offsets index into `values`.
/// Scalar only.
void row_sums(std::span<const std::uint64_t> row_ptr, std::span<const Value> values,
              std::span<Value> sums);

// ---- scalar reference implementations ----------------------------------

void radix_sort_u64_scalar(std::uint64_t* keys, std::size_t n, mem::Arena& arena);
Value sum_span_scalar(std::span<const Value> values);
Value max_span_scalar(std::span<const Value> values);

// ---- AVX2 variants (coo_simd.cpp / reduce_simd.cpp; on non-x86 builds
// each forwards to its scalar reference so the symbols always link —
// dispatch never selects them there) -------------------------------------

void radix_sort_u64_avx2(std::uint64_t* keys, std::size_t n, mem::Arena& arena);
Value sum_span_avx2(std::span<const Value> values);
Value max_span_avx2(std::span<const Value> values);

}  // namespace obscorr::gbl::kernels
