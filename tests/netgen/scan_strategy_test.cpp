/// Tests for destination scan strategies: the mixture assignment, the
/// per-strategy destination footprints, and the invariance of the
/// source-packet statistics the correlation analyses depend on.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "netgen/traffic.hpp"

namespace obscorr::netgen {
namespace {

Population make_population(std::uint64_t seed = 42) {
  PopulationConfig c;
  c.population = 2048;
  c.log2_nv = 14;
  c.seed = seed;
  return Population(c);
}

TEST(ScanStrategyTest, AssignmentIsDeterministicAndMixed) {
  const Population pop = make_population();
  const TrafficGenerator gen(pop, TrafficConfig{});
  std::map<ScanStrategy, int> counts;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    const ScanStrategy s = gen.strategy_of(i);
    EXPECT_EQ(s, gen.strategy_of(i));  // stable
    ++counts[s];
  }
  // Default mixture 0.6 / 0.25 / 0.15 over 2048 sources.
  EXPECT_NEAR(counts[ScanStrategy::kUniform], 2048 * 0.60, 120);
  EXPECT_NEAR(counts[ScanStrategy::kSequential], 2048 * 0.25, 100);
  EXPECT_NEAR(counts[ScanStrategy::kSubnet], 2048 * 0.15, 80);
}

TEST(ScanStrategyTest, PureMixturesRespected) {
  const Population pop = make_population();
  TrafficConfig cfg;
  cfg.uniform_weight = 0.0;
  cfg.sequential_weight = 1.0;
  cfg.subnet_weight = 0.0;
  const TrafficGenerator gen(pop, cfg);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(gen.strategy_of(i), ScanStrategy::kSequential);
  }
}

TEST(ScanStrategyTest, WeightValidation) {
  const Population pop = make_population();
  TrafficConfig cfg;
  cfg.uniform_weight = cfg.sequential_weight = cfg.subnet_weight = 0.0;
  EXPECT_THROW(TrafficGenerator(pop, cfg), std::invalid_argument);
  cfg.uniform_weight = -1.0;
  EXPECT_THROW(TrafficGenerator(pop, cfg), std::invalid_argument);
}

/// Hand every packet of month 0's salt-1 window to `visit`, in order.
void for_each_packet(const TrafficGenerator& gen, std::uint64_t valid,
                     const std::function<void(const Packet&)>& visit) {
  gen.stream_window_batched(0, valid, 1, [&](std::span<const Packet> batch) {
    for (const Packet& p : batch) visit(p);
  });
}

std::map<std::uint32_t, std::set<std::uint32_t>> destinations_by_source(
    const TrafficGenerator& gen, const TrafficConfig& cfg, std::uint64_t packets) {
  std::map<std::uint32_t, std::set<std::uint32_t>> dsts;
  for_each_packet(gen, packets, [&](const Packet& p) {
    if (!cfg.legit_prefix.contains(p.src)) dsts[p.src.value()].insert(p.dst.value());
  });
  return dsts;
}

TEST(ScanStrategyTest, SubnetScannersStayInsideOneBlock) {
  const Population pop = make_population();
  TrafficConfig cfg;
  cfg.uniform_weight = 0.0;
  cfg.sequential_weight = 0.0;
  cfg.subnet_weight = 1.0;
  const TrafficGenerator gen(pop, cfg);
  const auto dsts = destinations_by_source(gen, cfg, 20000);
  for (const auto& [src, targets] : dsts) {
    ASSERT_FALSE(targets.empty());
    const std::uint32_t base = *targets.begin() & ~0xFFu;
    for (const std::uint32_t dst : targets) {
      EXPECT_EQ(dst & ~0xFFu, base) << Ipv4(src).to_string() << " escaped its /24";
    }
  }
}

TEST(ScanStrategyTest, SequentialScannersSweepContiguously) {
  const Population pop = make_population();
  TrafficConfig cfg;
  cfg.uniform_weight = 0.0;
  cfg.sequential_weight = 1.0;
  cfg.subnet_weight = 0.0;
  const TrafficGenerator gen(pop, cfg);
  // Track the raw destination sequence of the brightest *active* source
  // (rank 0 itself may be dormant in month 0).
  const auto active = pop.active_sources(0);
  ASSERT_FALSE(active.empty());
  const std::uint32_t bright = pop.source(active.front()).ip.value();
  std::vector<std::uint32_t> seq;
  for_each_packet(gen, 20000, [&](const Packet& p) {
    if (p.src.value() == bright) seq.push_back(p.dst.value());
  });
  ASSERT_GT(seq.size(), 10u);
  for (std::size_t i = 1; i < seq.size(); ++i) {
    const std::uint32_t expected = seq[i - 1] + 1;  // may wrap inside darkspace
    EXPECT_TRUE(seq[i] == expected || seq[i] < seq[i - 1]) << "non-sequential sweep at " << i;
  }
}

TEST(ScanStrategyTest, SourcePacketCountsUnaffectedByStrategyMixture) {
  // Fan-out structure changes, but A·1 (the quantity all correlation
  // analyses use) must not depend on how destinations are chosen.
  const Population pop = make_population();
  TrafficConfig uniform_only;
  uniform_only.uniform_weight = 1.0;
  uniform_only.sequential_weight = 0.0;
  uniform_only.subnet_weight = 0.0;
  TrafficConfig mixed;  // defaults

  std::map<std::uint32_t, int> counts_uniform, counts_mixed;
  for_each_packet(TrafficGenerator(pop, uniform_only), 10000,
                  [&](const Packet& p) { ++counts_uniform[p.src.value()]; });
  for_each_packet(TrafficGenerator(pop, mixed), 10000,
                  [&](const Packet& p) { ++counts_mixed[p.src.value()]; });
  EXPECT_EQ(counts_uniform, counts_mixed);
}

TEST(ScanStrategyTest, MixtureBroadensFaninDistribution) {
  // Sequential/subnet scanners concentrate on fewer destinations than
  // uniform spray: the max destination fan-in must rise.
  const Population pop = make_population();
  TrafficConfig uniform_only;
  uniform_only.uniform_weight = 1.0;
  uniform_only.sequential_weight = 0.0;
  uniform_only.subnet_weight = 0.0;
  TrafficConfig subnet_only;
  subnet_only.uniform_weight = 0.0;
  subnet_only.sequential_weight = 0.0;
  subnet_only.subnet_weight = 1.0;

  std::map<std::uint32_t, int> fanin_uniform, fanin_subnet;
  for_each_packet(TrafficGenerator(pop, uniform_only), 30000,
                  [&](const Packet& p) { ++fanin_uniform[p.dst.value()]; });
  for_each_packet(TrafficGenerator(pop, subnet_only), 30000,
                  [&](const Packet& p) { ++fanin_subnet[p.dst.value()]; });
  int max_uniform = 0, max_subnet = 0;
  for (const auto& [dst, n] : fanin_uniform) max_uniform = std::max(max_uniform, n);
  for (const auto& [dst, n] : fanin_subnet) max_subnet = std::max(max_subnet, n);
  EXPECT_GT(max_subnet, 2 * max_uniform);
}

}  // namespace
}  // namespace obscorr::netgen
