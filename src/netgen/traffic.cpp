#include "netgen/traffic.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace obscorr::netgen {

TrafficGenerator::TrafficGenerator(const Population& population, TrafficConfig config)
    : population_(population), config_(config) {
  OBSCORR_REQUIRE(config.legit_fraction >= 0.0 && config.legit_fraction < 1.0,
                  "legit_fraction must be in [0,1)");
  OBSCORR_REQUIRE(config.uniform_weight >= 0.0 && config.sequential_weight >= 0.0 &&
                      config.subnet_weight >= 0.0,
                  "strategy weights must be non-negative");
  OBSCORR_REQUIRE(config.uniform_weight + config.sequential_weight + config.subnet_weight > 0.0,
                  "at least one strategy weight must be positive");
}

ScanStrategy TrafficGenerator::strategy_of(std::size_t i) const {
  OBSCORR_REQUIRE(i < population_.size(), "strategy_of: source index out of range");
  const double total =
      config_.uniform_weight + config_.sequential_weight + config_.subnet_weight;
  // Deterministic per (seed, source) draw, independent of traffic order.
  Rng rng(population_.config().seed, std::uint64_t{0x800000000} + i);
  const double u = rng.uniform() * total;
  if (u < config_.uniform_weight) return ScanStrategy::kUniform;
  if (u < config_.uniform_weight + config_.sequential_weight) return ScanStrategy::kSequential;
  return ScanStrategy::kSubnet;
}

std::uint64_t TrafficGenerator::shard_count(std::uint64_t valid_count) {
  if (valid_count == 0) return 1;
  return (valid_count + kShardValidPackets - 1) / kShardValidPackets;
}

std::uint64_t TrafficGenerator::shard_valid_packets(std::uint64_t valid_count,
                                                    std::uint64_t shard) {
  const std::uint64_t shards = shard_count(valid_count);
  OBSCORR_REQUIRE(shard < shards, "shard_valid_packets: shard index out of range");
  if (shard + 1 < shards) return kShardValidPackets;
  return valid_count - shard * kShardValidPackets;
}

WindowPlan TrafficGenerator::plan_window(int month) const {
  const obs::Span span("netgen.plan_window", [&] { return std::to_string(month); });
  if (obs::counters_enabled()) {
    static obs::Counter& windows = obs::counter("netgen.windows_planned");
    windows.add(1);
  }
  std::vector<std::uint32_t> active = population_.active_sources(month);
  OBSCORR_REQUIRE(!active.empty(), "plan_window: no active sources this month");
  std::vector<double> weights(active.size());
  std::vector<std::uint32_t> src_ips(active.size());
  // Strategies depend only on (population seed, source index), so every
  // shard of every window would re-derive the same values on its first
  // valid packet per source; deriving them once here takes them (and
  // their per-call RNG construction) out of the per-shard hot loop.
  std::vector<ScanStrategy> strategies(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    const SourceRecord& rec = population_.source(active[i]);
    weights[i] = rec.weight;
    src_ips[i] = rec.ip.value();
    strategies[i] = strategy_of(active[i]);
  }
  return WindowPlan(month, std::move(active), std::move(src_ips), std::move(strategies),
                    AliasTable(weights));
}

std::uint64_t TrafficGenerator::stream_window_batched(int month, std::uint64_t valid_count,
                                                      std::uint64_t salt, const BatchSink& sink,
                                                      std::size_t batch_packets) const {
  // One whole-window stream == shard 0's stream: the unsharded sequence
  // is by construction the single-shard special case.
  const WindowPlan plan = plan_window(month);
  ShardScratch scratch;
  return stream_shard_batched(plan, valid_count, salt, /*shard=*/0, scratch, sink, batch_packets);
}

namespace {

/// Source draws collected per pass. The staging arrays stay in L1, and
/// the pass resolves its alias picks in one loop with no RNG dependency
/// between iterations, so their table loads overlap.
constexpr std::size_t kIngestBatch = 128;

}  // namespace

std::uint64_t TrafficGenerator::stream_shard_batched(const WindowPlan& plan,
                                                     std::uint64_t shard_valid_count,
                                                     std::uint64_t salt, std::uint64_t shard,
                                                     ShardScratch& scratch, const BatchSink& sink,
                                                     std::size_t batch_packets) const {
  OBSCORR_REQUIRE(batch_packets > 0, "stream_shard_batched: batch must be positive");
  OBSCORR_REQUIRE(!plan.active.empty(), "stream_shard_batched: plan has no active sources");
  const std::vector<std::uint32_t>& active = plan.active;
  const std::uint64_t month = static_cast<std::uint64_t>(plan.month);
  const std::uint64_t stream_offset = shard * kShardStreamGamma;

  // New epoch: every scan-state entry from previous shards goes stale at
  // once (stamps are always < the incremented epoch) without touching the
  // population-sized table; entries re-initialize lazily from this
  // shard's init stream.
  scratch.stamps_.resize(active.size());
  scratch.states_.resize(active.size());
  ++scratch.epoch_;
  const std::uint64_t epoch = scratch.epoch_;

  // Two independent streams: source selection (alias + validity) and
  // destination choice. Splitting them makes the source-packet sequence
  // — the quantity every correlation analysis reduces to — invariant
  // under the scan-strategy mixture, which only consumes dst_rng. It
  // also lets a pass draw its sources ahead of their destinations: each
  // stream is still consumed in packet order.
  Rng rng(population_.config().seed,
          std::uint64_t{0x300000000} + month * std::uint64_t{0x10001} + salt + stream_offset);
  Rng dst_rng(population_.config().seed,
              std::uint64_t{0xA00000000} + month * std::uint64_t{0x10001} + salt + stream_offset);

  const std::uint64_t dark_size = config_.darkspace.size();
  // Subnet blocks: 256 addresses, or the whole darkspace when smaller.
  const std::uint64_t block = std::min<std::uint64_t>(256, dark_size);
  const std::span<const double> prob = plan.alias.probs();
  const std::span<const std::uint32_t> alias = plan.alias.aliases();
  // Packets accumulate in a fixed-size buffer flushed to the sink when
  // full; generation order (and so the emitted sequence) is unchanged.
  std::vector<Packet>& buffer = scratch.buffer_;
  buffer.clear();
  buffer.reserve(batch_packets);
  std::uint64_t emitted = 0;
  std::uint64_t valid = 0;
  std::uint64_t fresh_source_states = 0;  // one init RNG stream each
  const auto push = [&](const Packet& p) {
    buffer.push_back(p);
    ++emitted;
    if (buffer.size() == batch_packets) {
      sink(buffer);
      buffer.clear();
    }
  };

  std::uint32_t slot[kIngestBatch] = {};  // Lemire slot into the alias table
  double accept[kIngestBatch] = {};       // the alias acceptance uniform
  std::uint32_t pick[kIngestBatch] = {};  // resolved active-set index
  while (valid < shard_valid_count) {
    // Collect: the source stream's draws in the order `AliasTable::sample`
    // makes them, never past the shard's quota. A legitimate-noise packet
    // ends the pass: its source draw is taken now, its destination draw
    // after the pass's valid packets, as the per-packet order has it.
    const std::size_t cap =
        static_cast<std::size_t>(std::min<std::uint64_t>(shard_valid_count - valid, kIngestBatch));
    std::size_t n = 0;
    bool legit_pending = false;
    Packet legit;
    while (n < cap) {
      if (rng.bernoulli(config_.legit_fraction)) {
        // Legitimate noise: a host inside the legit prefix touching the
        // darkspace (e.g. a mistyped address) — discarded by the filter.
        legit.src = config_.legit_prefix.at(rng.uniform_u64(config_.legit_prefix.size()));
        legit_pending = true;
        break;
      }
      slot[n] = static_cast<std::uint32_t>(rng.uniform_u64(active.size()));
      accept[n] = rng.uniform();
      ++n;
    }
    // Resolve: pure table lookups, independent across the pass. The
    // alias slot is loaded before the test so the select compiles to a
    // conditional move: the test turns on a random draw, so a branch
    // would often mispredict.
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t s = slot[k];
      const std::uint32_t a = alias[s];
      pick[k] = accept[k] < prob[s] ? s : a;
    }
    // Emit in generation order: scan-state updates and every
    // destination-stream draw happen packet by packet.
    for (std::size_t m = 0; m < n; ++m) {
      const std::uint32_t i = pick[m];
      Packet p;
      p.src = Ipv4(plan.src_ips[i]);
      if (scratch.stamps_[i] != epoch) {
        Rng init(population_.config().seed,
                 std::uint64_t{0x900000000} + std::uint64_t{active[i]} * 31 + salt + stream_offset);
        ShardScratch::ScanState& s = scratch.states_[i];
        s.cursor = init.uniform_u64(dark_size);
        s.subnet_base = (init.uniform_u64(dark_size) / block) * block;
        scratch.stamps_[i] = epoch;
        ++fresh_source_states;
      }
      // The strategy lives in the shared read-only plan, so uniform
      // sources — the majority — never touch the cursor array at all.
      switch (plan.strategies[i]) {
        case ScanStrategy::kUniform:
          p.dst = config_.darkspace.at(dst_rng.uniform_u64(dark_size));
          break;
        case ScanStrategy::kSequential: {
          ShardScratch::ScanState& s = scratch.states_[i];
          p.dst = config_.darkspace.at(s.cursor);
          s.cursor = s.cursor + 1 == dark_size ? 0 : s.cursor + 1;
          break;
        }
        case ScanStrategy::kSubnet:
          p.dst = config_.darkspace.at(scratch.states_[i].subnet_base +
                                       dst_rng.uniform_u64(block));
          break;
      }
      ++valid;
      push(p);
    }
    if (legit_pending) {
      legit.dst = config_.darkspace.at(dst_rng.uniform_u64(dark_size));
      push(legit);
    }
  }
  if (!buffer.empty()) sink(buffer);

  if (obs::counters_enabled()) {
    static obs::Counter& packets = obs::counter("netgen.packets_emitted");
    static obs::Counter& valid_packets = obs::counter("netgen.valid_packets");
    static obs::Counter& shards = obs::counter("netgen.shards_generated");
    static obs::Counter& streams = obs::counter("netgen.rng_streams");
    packets.add(emitted);
    valid_packets.add(valid);
    shards.add(1);
    // Two fixed streams (source selection, destinations) plus one lazy
    // init stream per fresh per-source scan state.
    streams.add(2 + fresh_source_states);
  }
  return emitted;
}

}  // namespace obscorr::netgen
