#include "gbl/coo.hpp"

#include <algorithm>

#include "gbl/kernels.hpp"

namespace obscorr::gbl {

std::vector<Tuple> sort_and_combine(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end(), tuple_less);
  if (tuples.empty()) return tuples;
  // Sum values of equal cells in the sorted run.
  std::size_t out = 0;
  for (std::size_t i = 1; i < tuples.size(); ++i) {
    if (same_cell(tuples[out], tuples[i])) {
      tuples[out].val += tuples[i].val;
    } else {
      tuples[++out] = tuples[i];
    }
  }
  tuples.resize(out + 1);
  return tuples;
}

void sort_packed_keys(std::span<std::uint64_t> keys) {
  if (keys.size() < 1 << 10) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  // Serial LSD radix sort (kernels::radix_sort_u64): six 11-bit digit
  // passes with a scatter buffer, all six histograms built in one
  // initial sweep, and passes whose digit is constant across the range
  // skipped — ~5-8x a comparison sort on random packet keys.
  kernels::radix_sort_u64(keys.data(), keys.size());
}

}  // namespace obscorr::gbl
