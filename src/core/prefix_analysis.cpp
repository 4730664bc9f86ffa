#include "core/prefix_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.hpp"
#include "stats/summary.hpp"

namespace obscorr::core {

PrefixAnalysis analyze_prefixes(const gbl::SparseVec& source_packets, int length) {
  return analyze_prefixes(source_packets.indices(), source_packets.values(), length);
}

PrefixAnalysis analyze_prefixes(std::span<const gbl::Index> idx,
                                std::span<const gbl::Value> val, int length) {
  OBSCORR_REQUIRE(length >= 1 && length <= 32, "analyze_prefixes: length must be in [1,32]");
  OBSCORR_REQUIRE(idx.size() == val.size(), "analyze_prefixes: index/value size mismatch");
  PrefixAnalysis out;
  out.length = length;
  const int shift = 32 - length;

  std::map<std::uint32_t, PrefixBucket> buckets;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    // A NaN would break the descending sort's strict weak order below.
    OBSCORR_REQUIRE(std::isfinite(val[i]), "analyze_prefixes: packet counts must be finite");
    const std::uint32_t bits = shift == 32 ? 0 : idx[i] >> shift;
    PrefixBucket& b = buckets[bits];
    b.prefix_bits = bits;
    ++b.sources;
    b.packets += val[i];
  }
  out.buckets.reserve(buckets.size());
  for (const auto& [bits, bucket] : buckets) out.buckets.push_back(bucket);
  std::sort(out.buckets.begin(), out.buckets.end(),
            [](const PrefixBucket& a, const PrefixBucket& b) { return a.packets > b.packets; });

  double total = 0.0, top10 = 0.0;
  std::vector<double> source_counts;
  source_counts.reserve(out.buckets.size());
  for (std::size_t i = 0; i < out.buckets.size(); ++i) {
    total += out.buckets[i].packets;
    if (i < 10) top10 += out.buckets[i].packets;
    source_counts.push_back(static_cast<double>(out.buckets[i].sources));
  }
  if (total > 0.0) out.top10_packet_share = top10 / total;
  if (!source_counts.empty()) out.source_gini = stats::gini_coefficient(source_counts);
  return out;
}

}  // namespace obscorr::core
