#include "gbl/quantities.hpp"

#include <algorithm>

#include "gbl/column_fold.hpp"

namespace obscorr::gbl {

AggregateQuantities aggregate_quantities(const MatrixView& a) {
  AggregateQuantities q;
  const std::span<const std::uint64_t> row_ptr = a.row_ptr();
  const std::span<const Value> val = a.val();
  q.valid_packets = a.reduce_sum();
  q.unique_links = a.nnz();
  q.max_link_packets = a.reduce_max();
  // Source aggregates: each row's sum folds left from 0.0, as the row
  // reduction does, and the maxima start at 0.0, as max_span does.
  q.unique_sources = a.nonempty_rows();
  for (std::size_t r = 0; r < a.nonempty_rows(); ++r) {
    Value sum = 0.0;
    for (std::uint64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) sum += val[k];
    q.max_source_packets = std::max(q.max_source_packets, sum);
    q.max_source_fanout =
        std::max(q.max_source_fanout, static_cast<Value>(row_ptr[r + 1] - row_ptr[r]));
  }
  fold_columns(a.col(), val, [&q](Index, Value sum, std::size_t count) {
    ++q.unique_destinations;
    q.max_destination_packets = std::max(q.max_destination_packets, sum);
    q.max_destination_fanin = std::max(q.max_destination_fanin, static_cast<Value>(count));
  });
  return q;
}

AggregateQuantities aggregate_quantities(const DcsrMatrix& a) {
  return aggregate_quantities(MatrixView::over(a));
}

EntityQuantities entity_quantities(const DcsrMatrix& a) {
  return EntityQuantities{
      .source_packets = a.reduce_rows(),
      .source_fanout = a.reduce_rows_pattern(),
      .destination_packets = a.reduce_cols(),
      .destination_fanin = a.reduce_cols_pattern(),
  };
}

}  // namespace obscorr::gbl
