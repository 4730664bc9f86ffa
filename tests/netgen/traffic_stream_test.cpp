/// The batched ingest loop against a per-packet oracle: the packet stream
/// from `stream_shard_batched` must equal, packet by packet, the one a
/// plain loop makes by drawing each packet's source and destination in
/// turn. The oracle below is that loop, written against the public API
/// only; any divergence in RNG draw order, alias resolution, pass
/// boundaries or scan-state evolution shows up as a differing packet.

#include "netgen/traffic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/packet.hpp"
#include "common/prng.hpp"
#include "netgen/population.hpp"

namespace obscorr::netgen {
namespace {

PopulationConfig small_population(std::uint64_t seed = 42) {
  PopulationConfig c;
  c.population = 2048;
  c.log2_nv = 14;
  c.seed = seed;
  return c;
}

/// The shard stream-id offset the generator documents: shard k's streams
/// are the unsharded ids plus k times SplitMix64's gamma.
constexpr std::uint64_t kShardStreamGamma = 0x9E3779B97F4A7C15ULL;

/// One packet at a time: the bernoulli draw, then either a legitimate
/// source or an alias-table sample, then the destination for the
/// source's scan strategy.
std::vector<Packet> oracle_shard(const Population& population, const TrafficGenerator& gen,
                                 const WindowPlan& plan, std::uint64_t valid_count,
                                 std::uint64_t salt, std::uint64_t shard) {
  struct ScanState {
    std::uint64_t cursor;
    std::uint64_t subnet_base;
  };
  const TrafficConfig& config = gen.config();
  const std::uint64_t seed = population.config().seed;
  const auto month = static_cast<std::uint64_t>(plan.month);
  const std::uint64_t offset = shard * kShardStreamGamma;
  Rng rng(seed, std::uint64_t{0x300000000} + month * std::uint64_t{0x10001} + salt + offset);
  Rng dst_rng(seed, std::uint64_t{0xA00000000} + month * std::uint64_t{0x10001} + salt + offset);
  const std::uint64_t dark_size = config.darkspace.size();
  const std::uint64_t block = std::min<std::uint64_t>(256, dark_size);
  std::vector<std::optional<ScanState>> states(plan.active.size());

  std::vector<Packet> out;
  std::uint64_t valid = 0;
  while (valid < valid_count) {
    Packet p;
    if (rng.bernoulli(config.legit_fraction)) {
      p.src = config.legit_prefix.at(rng.uniform_u64(config.legit_prefix.size()));
      p.dst = config.darkspace.at(dst_rng.uniform_u64(dark_size));
    } else {
      const std::size_t pick = plan.alias.sample(rng);
      const std::size_t source_index = plan.active[pick];
      p.src = population.source(source_index).ip;
      std::optional<ScanState>& state = states[pick];
      if (!state.has_value()) {
        Rng init(seed, std::uint64_t{0x900000000} + source_index * 31 + salt + offset);
        const std::uint64_t cursor = init.uniform_u64(dark_size);
        state = ScanState{cursor, (init.uniform_u64(dark_size) / block) * block};
      }
      switch (gen.strategy_of(source_index)) {
        case ScanStrategy::kUniform:
          p.dst = config.darkspace.at(dst_rng.uniform_u64(dark_size));
          break;
        case ScanStrategy::kSequential:
          p.dst = config.darkspace.at(state->cursor);
          state->cursor = state->cursor + 1 == dark_size ? 0 : state->cursor + 1;
          break;
        case ScanStrategy::kSubnet:
          p.dst = config.darkspace.at(state->subnet_base + dst_rng.uniform_u64(block));
          break;
      }
      ++valid;
    }
    out.push_back(p);
  }
  return out;
}

void expect_stream_matches_oracle(const TrafficConfig& traffic, std::uint64_t valid,
                                  std::uint64_t shard, std::size_t batch_packets) {
  const Population population(small_population());
  const TrafficGenerator gen(population, traffic);
  const WindowPlan plan = gen.plan_window(0);
  ShardScratch scratch;
  std::vector<Packet> streamed;
  const std::uint64_t emitted = gen.stream_shard_batched(
      plan, valid, /*salt=*/3, shard, scratch,
      [&](std::span<const Packet> b) {
        EXPECT_LE(b.size(), batch_packets);
        streamed.insert(streamed.end(), b.begin(), b.end());
      },
      batch_packets);
  const std::vector<Packet> oracle = oracle_shard(population, gen, plan, valid, /*salt=*/3, shard);
  ASSERT_EQ(emitted, oracle.size());
  ASSERT_EQ(streamed.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(streamed[i].src.value(), oracle[i].src.value()) << "packet " << i;
    ASSERT_EQ(streamed[i].dst.value(), oracle[i].dst.value()) << "packet " << i;
  }
}

TEST(TrafficStreamTest, ShardStreamMatchesOracle) {
  expect_stream_matches_oracle(TrafficConfig{}, /*valid=*/20000, /*shard=*/0, /*batch=*/8192);
}

TEST(TrafficStreamTest, NonzeroShardMatchesOracle) {
  expect_stream_matches_oracle(TrafficConfig{}, /*valid=*/5000, /*shard=*/7, /*batch=*/8192);
}

TEST(TrafficStreamTest, BatchBoundariesDoNotLeakIntoTheStream) {
  // Emission buffers around the loop's 128-draw pass, and odd sizes that
  // flush in the middle of a pass.
  for (const std::size_t batch : {1u, 3u, 127u, 128u, 129u, 1000u}) {
    expect_stream_matches_oracle(TrafficConfig{}, /*valid=*/3000, /*shard=*/1, batch);
  }
}

TEST(TrafficStreamTest, HeavyLegitTrafficMatchesOracle) {
  TrafficConfig traffic;
  traffic.legit_fraction = 0.4;  // ends nearly every pass early
  expect_stream_matches_oracle(traffic, /*valid=*/10000, /*shard=*/0, /*batch=*/512);
}

TEST(TrafficStreamTest, ZeroLegitFractionMatchesOracle) {
  TrafficConfig traffic;
  traffic.legit_fraction = 0.0;  // bernoulli consumes no draw at all
  expect_stream_matches_oracle(traffic, /*valid=*/10000, /*shard=*/2, /*batch=*/8192);
}

TEST(TrafficStreamTest, SingleStrategyMixturesMatchOracle) {
  for (int which = 0; which < 3; ++which) {
    TrafficConfig traffic;
    traffic.uniform_weight = which == 0 ? 1.0 : 0.0;
    traffic.sequential_weight = which == 1 ? 1.0 : 0.0;
    traffic.subnet_weight = which == 2 ? 1.0 : 0.0;
    expect_stream_matches_oracle(traffic, /*valid=*/5000, /*shard=*/0, /*batch=*/4096);
  }
}

TEST(TrafficStreamTest, TinyShardCountsMatchOracle) {
  for (const std::uint64_t valid : {0u, 1u, 2u, 127u, 128u, 129u, 255u}) {
    expect_stream_matches_oracle(TrafficConfig{}, valid, /*shard=*/0, /*batch=*/64);
  }
}

TEST(TrafficStreamTest, PlanCarriesPerSlotTables) {
  const Population population(small_population());
  const TrafficGenerator gen(population, TrafficConfig{});
  const WindowPlan plan = gen.plan_window(0);
  ASSERT_EQ(plan.src_ips.size(), plan.active.size());
  ASSERT_EQ(plan.strategies.size(), plan.active.size());
  for (std::size_t i = 0; i < plan.active.size(); ++i) {
    EXPECT_EQ(plan.src_ips[i], population.source(plan.active[i]).ip.value());
    EXPECT_EQ(plan.strategies[i], gen.strategy_of(plan.active[i]));
  }
}

}  // namespace
}  // namespace obscorr::netgen
