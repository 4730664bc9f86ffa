#pragma once
/// \file quantities.hpp
/// The paper's Table II: every streaming network quantity computable from
/// a traffic matrix A_t, in both aggregate (scalar) and per-entity
/// (sparse-vector) form. All formulas are permutation-invariant, so they
/// are valid on CryptoPAN-anonymized matrices — the property the paper's
/// trusted-data-sharing workflow depends on.

#include <cstdint>

#include "gbl/dcsr.hpp"
#include "gbl/matrix_view.hpp"
#include "gbl/sparse_vec.hpp"

namespace obscorr::gbl {

/// Aggregate (scalar) network quantities of one traffic matrix.
struct AggregateQuantities {
  double valid_packets = 0.0;        ///< 1ᵀ A 1
  std::uint64_t unique_links = 0;    ///< 1ᵀ |A|₀ 1
  double max_link_packets = 0.0;     ///< max(A)
  std::uint64_t unique_sources = 0;  ///< |A 1|₀ summed
  double max_source_packets = 0.0;   ///< max(A 1)
  double max_source_fanout = 0.0;    ///< max(|A|₀ 1)
  std::uint64_t unique_destinations = 0;  ///< ||1ᵀ A|₀| summed
  double max_destination_packets = 0.0;   ///< max(1ᵀ A)
  double max_destination_fanin = 0.0;     ///< max(1ᵀ |A|₀)
};

/// Per-entity quantities: the four Table II reductions.
struct EntityQuantities {
  SparseVec source_packets;      ///< A 1
  SparseVec source_fanout;       ///< |A|₀ 1
  SparseVec destination_packets; ///< 1ᵀ A
  SparseVec destination_fanin;   ///< 1ᵀ |A|₀
};

/// Compute all aggregate quantities of `a` straight over its arrays: the
/// packet sum and maximum, one walk over the rows for the source
/// aggregates, and one column fold (column_fold.hpp) for the destination
/// aggregates. No per-entity vector is built, and nothing is copied, so
/// an archived view reduces in place. Bit-identical to the maxima of the
/// four `entity_quantities` reductions.
AggregateQuantities aggregate_quantities(const MatrixView& a);

/// The same over an in-memory matrix (through `MatrixView::over`).
AggregateQuantities aggregate_quantities(const DcsrMatrix& a);

/// Compute all per-entity quantities of `a`.
EntityQuantities entity_quantities(const DcsrMatrix& a);

}  // namespace obscorr::gbl
