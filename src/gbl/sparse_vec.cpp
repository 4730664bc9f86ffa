#include "gbl/sparse_vec.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "gbl/kernels.hpp"

namespace obscorr::gbl {

SparseVec::SparseVec(std::vector<Index> indices, std::vector<Value> values)
    : indices_(std::move(indices)), values_(std::move(values)) {
  OBSCORR_REQUIRE(indices_.size() == values_.size(),
                  "SparseVec: index/value arrays must have equal length");
  OBSCORR_REQUIRE(std::adjacent_find(indices_.begin(), indices_.end(),
                                     [](Index a, Index b) { return a >= b; }) == indices_.end(),
                  "SparseVec: indices must be strictly increasing");
}

Value SparseVec::at(Index i) const {
  const auto it = std::lower_bound(indices_.begin(), indices_.end(), i);
  if (it == indices_.end() || *it != i) return 0.0;
  return values_[static_cast<std::size_t>(it - indices_.begin())];
}

Value SparseVec::reduce_sum() const { return kernels::sum_span(values_); }

Value SparseVec::reduce_max() const { return kernels::max_span(values_); }

}  // namespace obscorr::gbl
