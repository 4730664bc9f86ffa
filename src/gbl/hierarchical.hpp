#pragma once
/// \file hierarchical.hpp
/// Hierarchical hypersparse accumulation (refs [34][35]).
///
/// The CAIDA pipeline aggregates the packet stream into GraphBLAS blocks
/// of 2^17 valid packets and hierarchically sums 2^13 of them into each
/// 2^30-packet snapshot matrix. Summing small sorted blocks pairwise in a
/// power-of-two tree keeps every merge cache-friendly and bounds the
/// working set, which is what makes streaming insert rates of billions of
/// updates/second attainable. `HierarchicalAccumulator` reproduces that
/// structure: packets stream in, blocks of `block_packets` are built and
/// merged whenever two blocks of equal level meet, exactly like binary
/// carry propagation.
///
/// The hot path is allocation-free per packet: pending packets are packed
/// `(src << 32) | dst` u64 keys (8 bytes instead of a 16-byte tuple),
/// sealed blocks are radix-sorted and folded straight into DCSR arrays,
/// and carry merges use the zero-copy `ewise_add` kernels.

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "gbl/dcsr.hpp"
#include "gbl/types.hpp"

namespace obscorr::gbl {

/// Streaming builder: add packets, get the snapshot matrix at the end.
/// The result is bit-identical to building one flat matrix from all
/// packets (verified by property tests); only the work schedule differs.
class HierarchicalAccumulator {
 public:
  /// `block_log2`: log2 of packets per leaf block (paper: 17).
  explicit HierarchicalAccumulator(int block_log2, ThreadPool& pool);

  /// Stream one packet (source, destination). The per-packet reference
  /// the batched `add_packets` is tested against.
  void add_packet(Index src, Index dst);

  /// Stream a batch of packets packed as `(src << 32) | dst` keys (see
  /// `pack_key` in coo.hpp). Equivalent to calling `add_packet` per key
  /// but crosses no per-packet function boundary.
  void add_packets(std::span<const std::uint64_t> keys);

  /// Total packets streamed so far.
  std::uint64_t packets() const { return packets_; }

  /// Number of pairwise block merges performed so far (bench metric).
  std::uint64_t merges() const { return merges_; }

  /// Flush and collapse all levels into the final snapshot matrix.
  /// The accumulator resets and can be reused afterwards.
  DcsrMatrix finish();

 private:
  void seal_block();
  void carry(DcsrMatrix block, int level);

  std::uint64_t block_packets_;
  ThreadPool& pool_;
  std::vector<std::uint64_t> pending_;           // current partial leaf block (packed keys)
  std::vector<std::vector<DcsrMatrix>> levels_;  // levels_[k]: at most 1 block of 2^k leaves
  std::uint64_t packets_ = 0;
  std::uint64_t merges_ = 0;
};

}  // namespace obscorr::gbl
