#include "netgen/traffic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

namespace obscorr::netgen {
namespace {

Population make_population(std::uint64_t seed = 42) {
  PopulationConfig c;
  c.population = 2048;
  c.log2_nv = 14;
  c.seed = seed;
  return Population(c);
}

/// Every packet of one window, in stream order.
std::vector<Packet> window_packets(const TrafficGenerator& gen, int month, std::uint64_t valid,
                                   std::uint64_t salt) {
  std::vector<Packet> out;
  gen.stream_window_batched(month, valid, salt, [&](std::span<const Packet> b) {
    out.insert(out.end(), b.begin(), b.end());
  });
  return out;
}

TEST(TrafficTest, EmitsExactValidCount) {
  const Population pop = make_population();
  TrafficConfig cfg;
  const TrafficGenerator gen(pop, cfg);
  std::uint64_t valid = 0, legit = 0;
  const std::uint64_t emitted =
      gen.stream_window_batched(0, 10000, 1, [&](std::span<const Packet> batch) {
        for (const Packet& p : batch) {
          if (cfg.legit_prefix.contains(p.src)) {
            ++legit;
          } else {
            ++valid;
          }
        }
      });
  EXPECT_EQ(valid, 10000u);
  EXPECT_EQ(emitted, valid + legit);
  EXPECT_GT(legit, 0u);  // legit_fraction 0.001 over 10k packets: ~10 expected
  EXPECT_LT(legit, 100u);
}

TEST(TrafficTest, BatchedStreamEmitsIdenticalPacketSequence) {
  // The batched sink is a pure buffering layer: concatenating its spans
  // must reproduce the default-batch sequence exactly, for any batch size
  // (including ones that do not divide the emitted count).
  const Population pop = make_population();
  TrafficConfig cfg;
  const TrafficGenerator gen(pop, cfg);
  const std::vector<Packet> reference = window_packets(gen, 2, 4000, 7);
  for (const std::size_t batch : {1u, 13u, 1024u, 100000u}) {
    std::vector<Packet> batched;
    const std::uint64_t emitted_batched = gen.stream_window_batched(
        2, 4000, 7,
        [&](std::span<const Packet> b) { batched.insert(batched.end(), b.begin(), b.end()); },
        batch);
    EXPECT_EQ(emitted_batched, reference.size()) << "batch " << batch;
    ASSERT_EQ(batched.size(), reference.size()) << "batch " << batch;
    for (std::size_t i = 0; i < batched.size(); ++i) {
      ASSERT_EQ(batched[i].src, reference[i].src) << i;
      ASSERT_EQ(batched[i].dst, reference[i].dst) << i;
    }
  }
}

TEST(TrafficTest, AllDestinationsInDarkspace) {
  const Population pop = make_population();
  TrafficConfig cfg;
  const TrafficGenerator gen(pop, cfg);
  for (const Packet& p : window_packets(gen, 0, 5000, 1)) {
    EXPECT_TRUE(cfg.darkspace.contains(p.dst)) << p.dst.to_string();
  }
}

TEST(TrafficTest, ValidSourcesBelongToActivePopulation) {
  const Population pop = make_population();
  TrafficConfig cfg;
  const TrafficGenerator gen(pop, cfg);
  const auto active = pop.active_sources(2);
  std::set<std::uint32_t> active_ips;
  for (std::uint32_t i : active) active_ips.insert(pop.source(i).ip.value());
  for (const Packet& p : window_packets(gen, 2, 5000, 1)) {
    if (cfg.legit_prefix.contains(p.src)) continue;
    EXPECT_TRUE(active_ips.contains(p.src.value())) << p.src.to_string();
  }
}

TEST(TrafficTest, DeterministicPerSalt) {
  const Population pop = make_population();
  const TrafficGenerator gen(pop, TrafficConfig{});
  const std::vector<Packet> a = window_packets(gen, 0, 1000, 7);
  EXPECT_EQ(a, window_packets(gen, 0, 1000, 7));
  EXPECT_NE(a, window_packets(gen, 0, 1000, 8));
}

TEST(TrafficTest, BrightSourcesDominatePacketShare) {
  // The Zipf-Mandelbrot head must carry most packets.
  const Population pop = make_population();
  const TrafficGenerator gen(pop, TrafficConfig{});
  std::map<std::uint32_t, std::uint64_t> counts;
  TrafficConfig cfg;
  for (const Packet& p : window_packets(gen, 0, 50000, 1)) {
    if (!cfg.legit_prefix.contains(p.src)) ++counts[p.src.value()];
  }
  std::vector<std::uint64_t> sorted;
  for (const auto& [ip, n] : counts) sorted.push_back(n);
  std::sort(sorted.rbegin(), sorted.rend());
  std::uint64_t top10 = 0, total = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i < 10) top10 += sorted[i];
    total += sorted[i];
  }
  EXPECT_GT(static_cast<double>(top10) / static_cast<double>(total), 0.15);
}

TEST(TrafficTest, LegitFractionValidation) {
  const Population pop = make_population();
  TrafficConfig cfg;
  cfg.legit_fraction = 1.0;
  EXPECT_THROW(TrafficGenerator(pop, cfg), std::invalid_argument);
  cfg.legit_fraction = -0.1;
  EXPECT_THROW(TrafficGenerator(pop, cfg), std::invalid_argument);
}

TEST(TrafficTest, ShardCountAndSizesTileTheWindow) {
  constexpr std::uint64_t K = TrafficGenerator::kShardValidPackets;
  EXPECT_EQ(TrafficGenerator::shard_count(0), 1u);
  EXPECT_EQ(TrafficGenerator::shard_count(1), 1u);
  EXPECT_EQ(TrafficGenerator::shard_count(K), 1u);
  EXPECT_EQ(TrafficGenerator::shard_count(K + 1), 2u);
  EXPECT_EQ(TrafficGenerator::shard_count(5 * K), 5u);
  for (const std::uint64_t valid : {std::uint64_t{1}, K - 1, K, K + 1, 3 * K + 17}) {
    std::uint64_t total = 0;
    const std::uint64_t shards = TrafficGenerator::shard_count(valid);
    for (std::uint64_t s = 0; s < shards; ++s) {
      const std::uint64_t len = TrafficGenerator::shard_valid_packets(valid, s);
      EXPECT_GT(len, 0u);
      EXPECT_LE(len, K);
      if (s + 1 < shards) {
        EXPECT_EQ(len, K);
      }
      total += len;
    }
    EXPECT_EQ(total, valid) << "valid " << valid;
  }
}

TEST(TrafficTest, ShardZeroReproducesUnshardedStream) {
  // The legacy single-stream window is, by construction, shard 0 of the
  // decomposition: a window no larger than one shard must match it
  // byte for byte (this is what keeps pre-sharding archives valid).
  const Population pop = make_population();
  const TrafficGenerator gen(pop, TrafficConfig{});
  const std::vector<Packet> legacy = window_packets(gen, 1, 9000, 5);

  const WindowPlan plan = gen.plan_window(1);
  ShardScratch scratch;
  std::vector<Packet> sharded;
  const std::uint64_t emitted = gen.stream_shard_batched(
      plan, 9000, 5, 0, scratch,
      [&](std::span<const Packet> b) { sharded.insert(sharded.end(), b.begin(), b.end()); });
  EXPECT_EQ(emitted, legacy.size());
  ASSERT_EQ(sharded.size(), legacy.size());
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    ASSERT_EQ(sharded[i].src, legacy[i].src) << i;
    ASSERT_EQ(sharded[i].dst, legacy[i].dst) << i;
  }
}

TEST(TrafficTest, ShardsAreDeterministicAndScratchReuseIsClean) {
  // Re-generating a shard with a fresh scratch and with a scratch dirtied
  // by other shards must give the same packets: the epoch stamp fully
  // isolates shards sharing one scratch.
  const Population pop = make_population();
  const TrafficGenerator gen(pop, TrafficConfig{});
  const WindowPlan plan = gen.plan_window(0);
  const auto collect = [&](std::uint64_t shard, ShardScratch& scratch) {
    std::vector<Packet> out;
    gen.stream_shard_batched(plan, 2500, 3, shard, scratch, [&](std::span<const Packet> b) {
      out.insert(out.end(), b.begin(), b.end());
    });
    return out;
  };
  ShardScratch dirty;
  const std::vector<Packet> s2_dirty_before = collect(2, dirty);
  (void)collect(0, dirty);
  (void)collect(7, dirty);
  const std::vector<Packet> s2_dirty_after = collect(2, dirty);
  ShardScratch fresh;
  const std::vector<Packet> s2_fresh = collect(2, fresh);
  EXPECT_EQ(s2_dirty_before, s2_dirty_after);
  EXPECT_EQ(s2_dirty_before, s2_fresh);
}

TEST(TrafficTest, DistinctShardsProduceDistinctStreams) {
  const Population pop = make_population();
  const TrafficGenerator gen(pop, TrafficConfig{});
  const WindowPlan plan = gen.plan_window(0);
  ShardScratch scratch;
  std::vector<Packet> s0, s1;
  gen.stream_shard_batched(plan, 2000, 1, 0, scratch, [&](std::span<const Packet> b) {
    s0.insert(s0.end(), b.begin(), b.end());
  });
  gen.stream_shard_batched(plan, 2000, 1, 1, scratch, [&](std::span<const Packet> b) {
    s1.insert(s1.end(), b.begin(), b.end());
  });
  EXPECT_NE(s0, s1);
}

TEST(TrafficTest, ShardedUnionIsScheduleInvariant) {
  // Concatenating the shards of a multi-shard window in any order must
  // give the same packet multiset — this is the property that makes
  // parallel captures exact, since the capture matrix is an order-free
  // aggregation of this multiset.
  const Population pop = make_population();
  const TrafficGenerator gen(pop, TrafficConfig{});
  const WindowPlan plan = gen.plan_window(0);
  constexpr std::uint64_t valid = 3 * TrafficGenerator::kShardValidPackets / 2;  // 1.5 shards
  const std::uint64_t shards = TrafficGenerator::shard_count(valid);
  ASSERT_EQ(shards, 2u);

  const auto key = [](const Packet& p) {
    return (std::uint64_t{p.src.value()} << 32) | p.dst.value();
  };
  std::map<std::uint64_t, std::uint64_t> forward, reverse;
  ShardScratch scratch;
  std::uint64_t forward_valid = 0;
  for (std::uint64_t s = 0; s < shards; ++s) {
    forward_valid += TrafficGenerator::shard_valid_packets(valid, s);
    gen.stream_shard_batched(plan, TrafficGenerator::shard_valid_packets(valid, s), 1, s,
                             scratch, [&](std::span<const Packet> b) {
                               for (const Packet& p : b) ++forward[key(p)];
                             });
  }
  EXPECT_EQ(forward_valid, valid);
  for (std::uint64_t s = shards; s-- > 0;) {
    gen.stream_shard_batched(plan, TrafficGenerator::shard_valid_packets(valid, s), 1, s,
                             scratch, [&](std::span<const Packet> b) {
                               for (const Packet& p : b) ++reverse[key(p)];
                             });
  }
  EXPECT_EQ(forward, reverse);
}

TEST(TrafficTest, ZeroLegitFractionEmitsOnlyValid) {
  const Population pop = make_population();
  TrafficConfig cfg;
  cfg.legit_fraction = 0.0;
  const TrafficGenerator gen(pop, cfg);
  const std::uint64_t emitted =
      gen.stream_window_batched(0, 3000, 1, [](std::span<const Packet>) {});
  EXPECT_EQ(emitted, 3000u);
}

}  // namespace
}  // namespace obscorr::netgen
