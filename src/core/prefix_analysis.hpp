#pragma once
/// \file prefix_analysis.hpp
/// Prefix-level aggregation of traffic matrices. Because CryptoPAN is
/// prefix-preserving, grouping anonymized sources by their top-k bits
/// yields exactly the same concentration structure as grouping the raw
/// addresses — subnet-level analyses survive the trusted-sharing
/// pipeline. This module aggregates a snapshot's sources into /len
/// prefixes and reports the concentration profile (how much traffic the
/// busiest networks carry), the statistic behind "which networks house
/// the scanners".

#include <cstdint>
#include <span>
#include <vector>

#include "gbl/sparse_vec.hpp"

namespace obscorr::core {

/// One aggregated prefix.
struct PrefixBucket {
  std::uint32_t prefix_bits = 0;  ///< the top `length` bits, right-aligned
  std::uint64_t sources = 0;      ///< unique sources inside the prefix
  double packets = 0.0;           ///< total packets from the prefix
};

/// Aggregation result, buckets sorted by descending packets.
struct PrefixAnalysis {
  int length = 0;
  std::vector<PrefixBucket> buckets;
  double top10_packet_share = 0.0;  ///< fraction of packets in the 10 busiest
  double source_gini = 0.0;         ///< inequality of per-prefix source counts
};

/// Aggregate per-source packet counts (`A·1`) into /length prefixes.
/// Works identically on raw and CryptoPAN-anonymized ids. A count that is
/// not finite throws std::invalid_argument.
PrefixAnalysis analyze_prefixes(const gbl::SparseVec& source_packets, int length);

/// Span overload for the archive query path: consumes the reduction
/// arrays in place (e.g. mmap'd archive entries), no SparseVec copy.
PrefixAnalysis analyze_prefixes(std::span<const gbl::Index> source_ids,
                                std::span<const gbl::Value> source_counts, int length);

}  // namespace obscorr::core
