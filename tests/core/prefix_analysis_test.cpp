#include "core/prefix_analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/prng.hpp"
#include "crypt/cryptopan.hpp"
#include "netgen/population.hpp"
#include "netgen/traffic.hpp"
#include "telescope/telescope.hpp"

namespace obscorr::core {
namespace {

TEST(PrefixAnalysisTest, HandComputedBuckets) {
  // Two /8 groups: 1.x.x.x (two sources, 5 packets) and 9.x.x.x (one, 7).
  const gbl::SparseVec v(
      std::vector<gbl::Index>{Ipv4(1, 0, 0, 1).value(), Ipv4(1, 2, 3, 4).value(),
                              Ipv4(9, 9, 9, 9).value()},
      std::vector<gbl::Value>{2.0, 3.0, 7.0});
  const PrefixAnalysis a = analyze_prefixes(v, 8);
  ASSERT_EQ(a.buckets.size(), 2u);
  EXPECT_EQ(a.buckets[0].prefix_bits, 9u);  // busiest first
  EXPECT_EQ(a.buckets[0].packets, 7.0);
  EXPECT_EQ(a.buckets[0].sources, 1u);
  EXPECT_EQ(a.buckets[1].prefix_bits, 1u);
  EXPECT_EQ(a.buckets[1].sources, 2u);
  EXPECT_DOUBLE_EQ(a.top10_packet_share, 1.0);  // fewer than 10 buckets
}

TEST(PrefixAnalysisTest, LengthValidationAndBoundaries) {
  const gbl::SparseVec v(std::vector<gbl::Index>{1, 2}, std::vector<gbl::Value>{1.0, 1.0});
  EXPECT_THROW(analyze_prefixes(v, 0), std::invalid_argument);
  EXPECT_THROW(analyze_prefixes(v, 33), std::invalid_argument);
  // /32: every source its own bucket.
  EXPECT_EQ(analyze_prefixes(v, 32).buckets.size(), 2u);
  // /1: at most two buckets.
  EXPECT_LE(analyze_prefixes(v, 1).buckets.size(), 2u);
}

TEST(PrefixAnalysisTest, BucketTotalsConserveSourcesAndPackets) {
  Rng rng(1);
  std::vector<gbl::Index> idx;
  std::vector<gbl::Value> val;
  std::uint32_t cur = 0;
  for (int i = 0; i < 5000; ++i) {
    cur += 1 + static_cast<std::uint32_t>(rng.uniform_u64(1 << 19));
    idx.push_back(cur);
    val.push_back(static_cast<double>(1 + rng.uniform_u64(50)));
  }
  const gbl::SparseVec v(idx, val);
  for (int len : {4, 8, 16, 24}) {
    const PrefixAnalysis a = analyze_prefixes(v, len);
    std::uint64_t sources = 0;
    double packets = 0.0;
    for (const auto& b : a.buckets) {
      sources += b.sources;
      packets += b.packets;
    }
    EXPECT_EQ(sources, v.nnz()) << "len " << len;
    EXPECT_NEAR(packets, v.reduce_sum(), 1e-6) << "len " << len;
  }
}

TEST(PrefixAnalysisTest, ConcentrationProfileSurvivesCryptoPan) {
  // The headline property: CryptoPAN preserves prefixes, so the sorted
  // bucket profile (sources, packets) of the anonymized vector matches
  // the raw one exactly at every prefix length — only the labels move.
  Rng rng(3);
  const crypt::CryptoPan pan = crypt::CryptoPan::from_seed(77);
  std::map<std::uint32_t, double> raw_counts;
  for (int i = 0; i < 3000; ++i) {
    // Mix of clustered (same /16) and scattered sources.
    const std::uint32_t ip = i % 3 == 0 ? (Ipv4(55, 66, 0, 0).value() | (rng.next_u32() & 0xFFFF))
                                        : rng.next_u32();
    raw_counts[ip] += static_cast<double>(1 + rng.uniform_u64(9));
  }
  std::vector<gbl::Index> raw_idx, anon_idx;
  std::vector<gbl::Value> raw_val, anon_val;
  std::map<std::uint32_t, double> anon_counts;
  for (const auto& [ip, n] : raw_counts) {
    raw_idx.push_back(ip);
    raw_val.push_back(n);
    anon_counts[pan.anonymize(Ipv4(ip)).value()] = n;
  }
  for (const auto& [ip, n] : anon_counts) {
    anon_idx.push_back(ip);
    anon_val.push_back(n);
  }
  const gbl::SparseVec raw(raw_idx, raw_val);
  const gbl::SparseVec anon(anon_idx, anon_val);

  for (int len : {8, 16, 24}) {
    const PrefixAnalysis a = analyze_prefixes(raw, len);
    const PrefixAnalysis b = analyze_prefixes(anon, len);
    ASSERT_EQ(a.buckets.size(), b.buckets.size()) << "len " << len;
    // Compare the (sources, packets) profiles sorted canonically.
    auto profile = [](const PrefixAnalysis& p) {
      std::vector<std::pair<double, std::uint64_t>> out;
      for (const auto& bucket : p.buckets) out.emplace_back(bucket.packets, bucket.sources);
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(profile(a), profile(b)) << "len " << len;
    EXPECT_DOUBLE_EQ(a.top10_packet_share, b.top10_packet_share);
    EXPECT_DOUBLE_EQ(a.source_gini, b.source_gini);
  }
}

TEST(PrefixAnalysisTest, BotnetBlocksShowUpAsDenseSlash24s) {
  // With the botnet extension on, some anonymized /24 buckets hold many
  // sources; without it, nearly all /24 buckets are singletons.
  netgen::PopulationConfig base;
  base.population = 4096;
  base.log2_nv = 16;
  base.seed = 5;
  netgen::PopulationConfig botnet = base;
  botnet.botnet_fraction = 0.5;
  botnet.botnet_block_size = 64;

  ThreadPool pool(2);
  const auto max_bucket = [&](const netgen::PopulationConfig& cfg) {
    const netgen::Population pop(cfg);
    netgen::TrafficConfig tcfg;
    tcfg.darkspace = Ipv4Prefix(Ipv4(77, 0, 0, 0), 20);
    const netgen::TrafficGenerator gen(pop, tcfg);
    telescope::TelescopeConfig scfg;
    scfg.darkspace = tcfg.darkspace;
    telescope::Telescope scope(scfg, pool);
    gen.stream_window_batched(0, 1 << 16, 1,
                              [&](std::span<const Packet> b) { scope.capture_block(b); });
    const PrefixAnalysis a = analyze_prefixes(scope.finish_window().reduce_rows(), 24);
    std::uint64_t densest = 0;
    for (const auto& b : a.buckets) densest = std::max(densest, b.sources);
    return densest;
  };
  EXPECT_GE(max_bucket(botnet), 20u);  // a block shines through anonymization
  EXPECT_LE(max_bucket(base), 5u);     // random addresses barely collide
}

}  // namespace
}  // namespace obscorr::core
