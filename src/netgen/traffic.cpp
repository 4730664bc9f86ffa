#include "netgen/traffic.hpp"

#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/simd.hpp"
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

std::uint64_t TrafficGenerator::stream_shard_batched(const WindowPlan& plan,
                                                     std::uint64_t shard_valid_count,
                                                     std::uint64_t salt, std::uint64_t shard,
                                                     ShardScratch& scratch, const BatchSink& sink,
                                                     std::size_t batch_packets) const {
  OBSCORR_REQUIRE(batch_packets > 0, "stream_shard_batched: batch must be positive");
  OBSCORR_REQUIRE(!plan.active.empty(), "stream_shard_batched: plan has no active sources");
  ShardStats st;
  if (simd::use_avx2()) {
    if (obs::counters_enabled()) {
      static obs::Counter& ingest = obs::counter("simd.dispatch_ingest");
      ingest.add(1);
    }
    st = stream_shard_avx2(plan, shard_valid_count, salt, shard, scratch, sink, batch_packets);
  } else {
    st = stream_shard_scalar(plan, shard_valid_count, salt, shard, scratch, sink, batch_packets);
  }
  if (obs::counters_enabled()) {
    static obs::Counter& packets = obs::counter("netgen.packets_emitted");
    static obs::Counter& valid_packets = obs::counter("netgen.valid_packets");
    static obs::Counter& shards = obs::counter("netgen.shards_generated");
    static obs::Counter& streams = obs::counter("netgen.rng_streams");
    packets.add(st.emitted);
    valid_packets.add(st.valid);
    shards.add(1);
    // Two fixed streams (source selection, destinations) plus one lazy
    // init stream per fresh per-source scan state.
    streams.add(2 + st.fresh_source_states);
  }
  return st.emitted;
}

TrafficGenerator::ShardStats TrafficGenerator::stream_shard_scalar(
    const WindowPlan& plan, std::uint64_t shard_valid_count, std::uint64_t salt,
    std::uint64_t shard, ShardScratch& scratch, const BatchSink& sink,
    std::size_t batch_packets) const {
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
  // under the scan-strategy mixture, which only consumes dst_rng.
  Rng rng(population_.config().seed,
          std::uint64_t{0x300000000} + month * std::uint64_t{0x10001} + salt + stream_offset);
  Rng dst_rng(population_.config().seed,
              std::uint64_t{0xA00000000} + month * std::uint64_t{0x10001} + salt + stream_offset);

  const std::uint64_t dark_size = config_.darkspace.size();
  // Subnet blocks: 256 addresses, or the whole darkspace when smaller.
  const std::uint64_t block = std::min<std::uint64_t>(256, dark_size);
  // Packets accumulate in a fixed-size buffer flushed to the sink when
  // full; generation order (and so the emitted sequence) is unchanged.
  std::vector<Packet>& buffer = scratch.buffer_;
  buffer.clear();
  buffer.reserve(batch_packets);
  ShardStats st;
  std::uint64_t& valid = st.valid;
  while (valid < shard_valid_count) {
    Packet p;
    if (rng.bernoulli(config_.legit_fraction)) {
      // Legitimate noise: a host inside the legit prefix touching the
      // darkspace (e.g. a mistyped address) — discarded by the filter.
      p.src = config_.legit_prefix.at(rng.uniform_u64(config_.legit_prefix.size()));
      p.dst = config_.darkspace.at(dst_rng.uniform_u64(dark_size));
    } else {
      const std::size_t pick = plan.alias.sample(rng);
      const std::size_t source_index = active[pick];
      p.src = population_.source(source_index).ip;
      if (scratch.stamps_[pick] != epoch) {
        Rng init(population_.config().seed, std::uint64_t{0x900000000} + source_index * 31 +
                                                salt + stream_offset);
        ShardScratch::ScanState& s = scratch.states_[pick];
        s.cursor = init.uniform_u64(dark_size);
        s.subnet_base = (init.uniform_u64(dark_size) / block) * block;
        scratch.stamps_[pick] = epoch;
        ++st.fresh_source_states;
      }
      // The strategy lives in the shared read-only plan (same value the
      // old per-state copy held), so uniform sources — the majority —
      // never touch the cursor array at all.
      switch (plan.strategies[pick]) {
        case ScanStrategy::kUniform:
          p.dst = config_.darkspace.at(dst_rng.uniform_u64(dark_size));
          break;
        case ScanStrategy::kSequential: {
          ShardScratch::ScanState& s = scratch.states_[pick];
          p.dst = config_.darkspace.at(s.cursor);
          s.cursor = s.cursor + 1 == dark_size ? 0 : s.cursor + 1;
          break;
        }
        case ScanStrategy::kSubnet:
          p.dst = config_.darkspace.at(scratch.states_[pick].subnet_base +
                                       dst_rng.uniform_u64(block));
          break;
      }
      ++valid;
    }
    buffer.push_back(p);
    ++st.emitted;
    if (buffer.size() == batch_packets) {
      sink(buffer);
      buffer.clear();
    }
  }
  if (!buffer.empty()) sink(buffer);
  return st;
}

}  // namespace obscorr::netgen
