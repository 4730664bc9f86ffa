#pragma once
/// \file traffic.hpp
/// Packet-stream generation: the synthetic stand-in for the raw darknet
/// capture feed. For a given study month, packets are multinomial draws
/// over the *active* sources' Zipf–Mandelbrot weights, each aimed at a
/// uniform address inside the telescope darkspace (scanners and
/// backscatter have no preference within an unused /8). A configurable
/// trickle of non-valid "legitimate" traffic is interleaved so the
/// telescope's validity filter has something to discard, as on the real
/// instrument.
///
/// Windows decompose into fixed-size generation *shards* of
/// `kShardValidPackets` valid packets. Every shard's RNG streams are a
/// pure function of (seed, month, salt, shard index) — never of thread
/// count or execution order — so shards can be generated concurrently in
/// any schedule and the union of their packets is always the same
/// multiset. Shard 0 uses exactly the unsharded stream ids, so any window
/// of at most one shard is byte-identical to the historical single-stream
/// sequence.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/ipv4.hpp"
#include "common/packet.hpp"
#include "common/prng.hpp"
#include "netgen/population.hpp"

namespace obscorr::netgen {

/// How a source picks destinations inside the darkspace. Real scanners
/// are not all uniform: worms sweep sequentially, targeted scanners camp
/// on subnets, backscatter lands anywhere. The strategy shapes the
/// fan-out quantities of Table II without touching the source-packet
/// statistics the correlation analyses rest on.
enum class ScanStrategy {
  kUniform,     ///< independent uniform addresses (backscatter/spray)
  kSequential,  ///< linear sweep from a per-source offset (worm style)
  kSubnet,      ///< uniform within one random /24 of the darkspace
};

/// Traffic-stream configuration.
struct TrafficConfig {
  /// The telescope darkspace: a routed /8 with no allocated hosts.
  Ipv4Prefix darkspace{Ipv4(77, 0, 0, 0), 8};
  /// Prefix whose traffic counts as legitimate (discarded by the filter);
  /// the population never allocates sources here.
  Ipv4Prefix legit_prefix{Ipv4(10, 0, 0, 0), 8};
  /// Fraction of emitted packets that are legitimate noise.
  double legit_fraction = 0.001;
  /// Mixture over scan strategies (uniform, sequential, subnet); need
  /// not be normalized. Sources are assigned a strategy deterministically
  /// from these odds.
  double uniform_weight = 0.6;
  double sequential_weight = 0.25;
  double subnet_weight = 0.15;
};

/// Per-(generator, month) sampling state shared by every shard of a
/// window: the active-source set and the alias table over its weights.
/// Built once per window (it scans the whole population) and read-only
/// afterwards, so concurrent shard generators can share one plan.
struct WindowPlan {
  WindowPlan(int month_, std::vector<std::uint32_t> active_, std::vector<std::uint32_t> src_ips_,
             std::vector<ScanStrategy> strategies_, AliasTable alias_)
      : month(month_),
        active(std::move(active_)),
        src_ips(std::move(src_ips_)),
        strategies(std::move(strategies_)),
        alias(std::move(alias_)) {}

  int month;
  std::vector<std::uint32_t> active;     ///< active source indices this month
  std::vector<std::uint32_t> src_ips;    ///< source ip per active slot (flat, for the emit loop)
  std::vector<ScanStrategy> strategies;  ///< strategy per active slot (see strategy_of)
  AliasTable alias;                      ///< over the active sources' weights
};

/// Reusable per-caller scratch for `stream_shard_batched`: the lazy
/// per-source scan-state table and the emission buffer. Logically reset
/// per shard via an epoch stamp, so reusing one scratch across many
/// shards costs no clearing of the population-sized table.
///
/// The scan state is split structure-of-arrays: the epoch stamp — the
/// only field every valid packet touches — is a dense u64 array (8
/// entries per cache line), while the cursor/subnet state only the
/// sequential and subnet strategies read lives separately. The strategy
/// itself comes from the read-only plan. The arrays keep their capacity
/// from shard to shard, so each per-window scratch context of the
/// parallel capture path reuses its blocks instead of re-faulting them.
class ShardScratch {
 public:
  ShardScratch() = default;

 private:
  friend class TrafficGenerator;

  struct ScanState {
    std::uint64_t cursor = 0;       // sequential: next offset
    std::uint64_t subnet_base = 0;  // subnet: offset of the /24-equivalent block
  };

  std::vector<std::uint64_t> stamps_;  // epoch of last init; != epoch_ means stale
  std::vector<ScanState> states_;
  std::vector<Packet> buffer_;
  std::uint64_t epoch_ = 0;
};

/// Generates packet streams for telescope windows.
class TrafficGenerator {
 public:
  TrafficGenerator(const Population& population, TrafficConfig config);

  const TrafficConfig& config() const { return config_; }

  /// Batched sink: receives consecutive fixed-size packet buffers (the
  /// final buffer may be short). The span is only valid for the call.
  using BatchSink = PacketBatchSink;

  /// Emit packets for one constant-packet window in study month `month`
  /// until exactly `valid_count` valid (non-legit) packets have been
  /// produced, handing `sink` fixed-size buffers of packets including
  /// the legitimate noise. `salt` decorrelates windows taken in the same
  /// month. Returns the total number of packets emitted (valid + legit).
  /// The packet sequence is identical for every `batch_packets`, and to
  /// `stream_shard_batched` with shard 0 over the whole window.
  std::uint64_t stream_window_batched(int month, std::uint64_t valid_count, std::uint64_t salt,
                                      const BatchSink& sink,
                                      std::size_t batch_packets = kDefaultBatchPackets) const;

  /// Build the shared per-window sampling plan (active set + alias
  /// table) for `month`. Throws when no source is active.
  WindowPlan plan_window(int month) const;

  /// Emit one generation shard: exactly `shard_valid_count` valid
  /// packets drawn from shard `shard`'s RNG streams, which are a pure
  /// function of (seed, plan.month, salt, shard). Shard 0 reproduces the
  /// unsharded `stream_window_batched` stream prefix exactly. `scratch`
  /// may be reused across calls (any plan, any shard) without clearing.
  /// Returns the total number of packets emitted (valid + legit).
  std::uint64_t stream_shard_batched(const WindowPlan& plan, std::uint64_t shard_valid_count,
                                     std::uint64_t salt, std::uint64_t shard,
                                     ShardScratch& scratch, const BatchSink& sink,
                                     std::size_t batch_packets = kDefaultBatchPackets) const;

  /// Valid packets per generation shard. 2^16 keeps every historical
  /// window size (tests run at <= 2^16) single-shard — hence byte-stable
  /// across this decomposition — while giving a 2^22 window 64 shards.
  static constexpr std::uint64_t kShardValidPackets = 1ULL << 16;

  /// Number of shards a window of `valid_count` valid packets splits
  /// into: ceil(valid_count / kShardValidPackets), at least 1.
  static std::uint64_t shard_count(std::uint64_t valid_count);

  /// Valid packets assigned to shard `shard` of a `valid_count` window:
  /// full shards of kShardValidPackets, the last takes the remainder.
  static std::uint64_t shard_valid_packets(std::uint64_t valid_count, std::uint64_t shard);

  /// Default emission buffer: large enough to amortize the sink call,
  /// small enough to stay resident in L2 (8192 packets = 64 KiB).
  static constexpr std::size_t kDefaultBatchPackets = 8192;

  /// Deterministic strategy assignment of population source `i`.
  ScanStrategy strategy_of(std::size_t i) const;

 private:
  /// Per-shard stream-id offset: the golden-ratio increment (SplitMix64's
  /// own gamma) keeps shard streams far apart in id space. Shard 0
  /// offsets by zero, preserving the historical unsharded stream ids.
  static constexpr std::uint64_t kShardStreamGamma = 0x9E3779B97F4A7C15ULL;

  const Population& population_;
  TrafficConfig config_;
};

}  // namespace obscorr::netgen
