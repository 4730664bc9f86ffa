#pragma once
/// \file parallel_capture.hpp
/// Deterministic parallel capture of one telescope window.
///
/// The window's valid-packet budget splits into fixed generation shards
/// (`TrafficGenerator::kShardValidPackets` each); every shard's packets
/// are a pure function of (seed, month, salt, shard index). Workers
/// generate and capture contiguous shard runs into private
/// `ShardCapture` contexts, and the per-context matrices are summed in
/// run order. Because the matrix is an exact integer aggregation of the
/// shard packet multisets, the result is byte-identical at every thread
/// count — and, for single-shard windows (<= 2^16 valid packets), to the
/// historical serial capture.

#include <cstdint>

#include "common/thread_pool.hpp"
#include "gbl/dcsr.hpp"
#include "netgen/traffic.hpp"
#include "telescope/telescope.hpp"

namespace obscorr::core {

/// Capture one constant-packet window of `valid_count` valid packets in
/// study month `month` through `scope`. Returns the window's anonymized
/// traffic matrix; the deanonymization dictionary and the discard
/// counter fold into `scope` (so `scope.deanonymize` covers every source
/// the window observed). Bit-identical at any `pool` size.
gbl::DcsrMatrix capture_window(telescope::Telescope& scope,
                               const netgen::TrafficGenerator& generator, int month,
                               std::uint64_t valid_count, std::uint64_t salt, ThreadPool& pool);

/// Duration of a constant-packet window under Poisson arrivals at
/// `mean_packet_rate` packets/s — the paper's "variable time" (Table I:
/// 997–1594 s for the same 2^30 packets). Every streamed packet, valid
/// or discarded, advances the clock by one exponential inter-arrival
/// gap; the gaps are drawn in order from `Rng(timing_seed, 0x7173)` and
/// summed from zero, so the result is a pure function of the arguments.
double window_duration_sec(std::uint64_t streamed_packets, double mean_packet_rate,
                           std::uint64_t timing_seed);

}  // namespace obscorr::core
