#include "netgen/population.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "common/prng.hpp"

namespace obscorr::netgen {
namespace {

PopulationConfig small_config(std::uint64_t seed = 42) {
  PopulationConfig c;
  c.population = 4096;
  c.log2_nv = 16;
  c.seed = seed;
  return c;
}

TEST(PopulationTest, ConfigValidation) {
  PopulationConfig c = small_config();
  c.population = 0;
  EXPECT_THROW(Population{c}, std::invalid_argument);
  c = small_config();
  c.zm_alpha = 0.0;
  EXPECT_THROW(Population{c}, std::invalid_argument);
  c = small_config();
  c.zm_delta = -1.0;
  EXPECT_THROW(Population{c}, std::invalid_argument);
  c = small_config();
  c.rebirth_prob = 1.0;
  EXPECT_THROW(Population{c}, std::invalid_argument);
}

TEST(PopulationTest, WeightsFollowZipfMandelbrotRankLaw) {
  const Population pop(small_config());
  const auto& cfg = pop.config();
  for (std::size_t r : {std::size_t{0}, std::size_t{1}, std::size_t{100}, std::size_t{4095}}) {
    EXPECT_DOUBLE_EQ(pop.source(r).weight,
                     std::pow(static_cast<double>(r + 1) + cfg.zm_delta, -cfg.zm_alpha));
  }
  EXPECT_GT(pop.source(0).weight, pop.source(1).weight);
}

TEST(PopulationTest, IpsAreUniqueAndOutsideReservedSpace) {
  const Population pop(small_config());
  std::set<std::uint32_t> seen;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    const Ipv4 ip = pop.source(i).ip;
    EXPECT_TRUE(seen.insert(ip.value()).second) << "duplicate " << ip.to_string();
    const int top = ip.octet(0);
    EXPECT_NE(top, 0);
    EXPECT_NE(top, 10);   // legit prefix
    EXPECT_NE(top, 77);   // darkspace
    EXPECT_NE(top, 127);  // loopback
    EXPECT_LT(top, 224);  // multicast+
  }
}

TEST(PopulationTest, OwnsIpMatchesMembership) {
  const Population pop(small_config());
  for (std::size_t i : {std::size_t{0}, std::size_t{7}, std::size_t{4000}}) {
    EXPECT_TRUE(pop.owns_ip(pop.source(i).ip));
  }
  EXPECT_FALSE(pop.owns_ip(Ipv4(10, 1, 2, 3)));
  EXPECT_FALSE(pop.owns_ip(Ipv4(77, 1, 2, 3)));
}

TEST(PopulationTest, OwnsIpAgreesWithTheSortedAddressesEverywhere) {
  // Every member, each member's neighbours and random draws, with a
  // botnet tail whose /24 runs put consecutive addresses in the set.
  PopulationConfig c = small_config(9);
  c.botnet_fraction = 0.25;
  const Population pop(c);
  std::set<std::uint32_t> members;
  for (std::size_t i = 0; i < pop.size(); ++i) members.insert(pop.source(i).ip.value());
  ASSERT_EQ(members.size(), pop.size());
  std::vector<std::uint32_t> probes{0u, 1u, 0xFFFFFFFFu};
  for (const std::uint32_t ip : members) {
    probes.insert(probes.end(), {ip, ip - 1, ip + 1, ip ^ 0x80000000u});
  }
  Rng rng(11);
  for (int i = 0; i < 100000; ++i) probes.push_back(rng.next_u32());
  for (const std::uint32_t ip : probes) {
    ASSERT_EQ(pop.owns_ip(Ipv4(ip)), members.contains(ip)) << Ipv4(ip).to_string();
  }
}

TEST(PopulationTest, DeterministicPerSeed) {
  const Population a(small_config(7));
  const Population b(small_config(7));
  const Population c(small_config(8));
  for (std::size_t i : {std::size_t{0}, std::size_t{100}, std::size_t{1000}}) {
    EXPECT_EQ(a.source(i).ip, b.source(i).ip);
    EXPECT_EQ(a.source(i).persist, b.source(i).persist);
  }
  int diff = 0;
  for (std::size_t i = 0; i < 100; ++i) diff += a.source(i).ip != c.source(i).ip;
  EXPECT_GT(diff, 90);
}

TEST(PopulationTest, PersistenceIsAProbability) {
  const Population pop(small_config());
  for (std::size_t i = 0; i < pop.size(); ++i) {
    EXPECT_GT(pop.source(i).persist, 0.0);
    EXPECT_LE(pop.source(i).persist, 1.0);
    EXPECT_EQ(pop.source(i).rebirth, pop.config().rebirth_prob);
  }
}

TEST(PopulationTest, ExpectedDegreesSumToWindowSize) {
  // Sum over sources of E[window degree] == N_V by construction.
  const Population pop(small_config());
  double total = 0.0;
  for (std::size_t i = 0; i < pop.size(); ++i) total += pop.expected_window_degree(i);
  EXPECT_NEAR(total, std::exp2(16.0), 1e-3);
}

TEST(PopulationTest, ActiveDegreeExceedsFullPopulationDegree) {
  // Conditioning on activity concentrates the window on fewer sources.
  const Population pop(small_config());
  EXPECT_LT(pop.active_weight(), pop.total_weight());
  for (std::size_t i : {std::size_t{0}, std::size_t{50}, std::size_t{2000}}) {
    EXPECT_GT(pop.expected_active_degree(i), pop.expected_window_degree(i));
  }
}

TEST(PopulationTest, ActivityIsDeterministicAndOrderIndependent) {
  const Population a(small_config(3));
  const Population b(small_config(3));
  // Query b's months in reverse order; results must agree with a's.
  for (int m = 5; m >= 0; --m) {
    for (std::size_t i = 0; i < 200; ++i) {
      EXPECT_EQ(a.active(i, m), b.active(i, m)) << "i=" << i << " m=" << m;
    }
  }
}

TEST(PopulationTest, StationaryActivityLevelIsStableAcrossMonths) {
  // The chain starts in equilibrium: the active fraction should not
  // drift over the study (no cold-start transient).
  const Population pop(small_config(11));
  std::vector<double> fractions;
  for (int m = 0; m < 12; ++m) {
    fractions.push_back(static_cast<double>(pop.active_sources(m).size()) /
                        static_cast<double>(pop.size()));
  }
  for (double f : fractions) {
    EXPECT_NEAR(f, fractions.front(), 0.05);
  }
}

TEST(PopulationTest, ObservedOverlapMatchesDriftingBeamTheory) {
  // Of the sources active at month 0, the fraction active at month k
  // should follow E[pi + (1-pi) (s-b)^k] — for small rebirth roughly the
  // modified Cauchy a/(a+k) plus floor. Verify monotone decay toward a
  // positive floor rather than exponential collapse.
  PopulationConfig c = small_config(13);
  c.population = 20000;
  const Population pop(c);
  const auto base = pop.active_sources(0);
  ASSERT_GT(base.size(), 1000u);
  std::vector<double> overlap;
  for (int k = 0; k <= 10; ++k) {
    std::size_t still = 0;
    for (std::uint32_t i : base) still += pop.active(i, k);
    overlap.push_back(static_cast<double>(still) / static_cast<double>(base.size()));
  }
  EXPECT_DOUBLE_EQ(overlap[0], 1.0);
  for (std::size_t k = 1; k < overlap.size(); ++k) EXPECT_LE(overlap[k], overlap[k - 1] + 0.03);
  EXPECT_GT(overlap.back(), 0.1);  // background floor, not extinction
  EXPECT_LT(overlap.back(), 0.7);  // but a real drop happened
  // Heavier than exponential: overlap(8) must beat the exponential
  // through overlap(1) extrapolation (the heavy-tail signature).
  const double exp_extrapolation = std::pow(overlap[1], 8.0);
  EXPECT_GT(overlap[8], exp_extrapolation);
}

TEST(PersistenceShapeTest, DipsAtMidBrightness) {
  PopulationConfig c = small_config();
  c.log2_nv = 30;
  // x = log2(d)/15: bright (x=1 -> d=2^15); the dip is centred at x=0.5
  // in full-population degree (x ~ 0.66 in observed, activity-conditioned
  // degree, the paper's coordinate).
  const double bright = persistence_shape(std::exp2(15.0), c);
  const double mid = persistence_shape(std::exp2(7.5), c);
  const double dim = persistence_shape(1.0, c);
  EXPECT_GT(bright, mid);
  EXPECT_GT(dim, mid);
  EXPECT_NEAR(mid, c.persist_shape_churny, 0.35);
  EXPECT_NEAR(bright, c.persist_shape_stable, 1.2);
}

TEST(PopulationTest, NegativeMonthRejected) {
  const Population pop(small_config());
  EXPECT_THROW(pop.active(0, -1), std::invalid_argument);
  EXPECT_THROW(pop.active(pop.size(), 0), std::invalid_argument);
}

TEST(PopulationTest, CollisionHeavyBlockLayoutKeepsIpsUniqueAndContiguous) {
  // 25,000 two-member blocks draw /24 bases from a few-million-slot
  // space, so base collisions are all but guaranteed — the retry probe
  // must catch every one. This is the regression test for the clash
  // check that used to rescan `used` member by member.
  PopulationConfig c = small_config();
  c.population = 50000;
  c.botnet_fraction = 1.0;
  c.botnet_block_size = 2;
  const Population pop(c);
  ASSERT_EQ(pop.block_count(), 25000u);
  std::set<std::uint32_t> ips;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    EXPECT_TRUE(ips.insert(pop.source(i).ip.value()).second)
        << "duplicate ip for source " << i;
  }
  // Every block's members sit at consecutive addresses inside one /24.
  for (std::size_t i = 0; i + 1 < pop.size(); ++i) {
    const int b = pop.block_of(i);
    if (b < 0 || pop.block_of(i + 1) != b) continue;
    const std::uint32_t a = pop.source(i).ip.value();
    const std::uint32_t n = pop.source(i + 1).ip.value();
    EXPECT_EQ(n, a + 1);
    EXPECT_EQ(n >> 8, a >> 8) << "block " << b << " straddles a /24";
  }
}

}  // namespace
}  // namespace obscorr::netgen
