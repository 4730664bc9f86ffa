#include "honeyfarm/honeyfarm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "../d4m/assoc_oracle.hpp"
#include "common/prng.hpp"
#include "netgen/scenario.hpp"

namespace obscorr::honeyfarm {
namespace {

using d4m::oracle::select_cols_prefix;
using d4m::oracle::shared_keys;

netgen::PopulationConfig pop_config(std::uint64_t seed = 42) {
  netgen::PopulationConfig c;
  c.population = 8192;
  c.log2_nv = 16;
  c.seed = seed;
  return c;
}

netgen::VisibilityModel vis_model() {
  netgen::VisibilityModel v;
  v.log2_nv = 16;
  return v;
}

netgen::GreyNoiseMonthSpec month_spec(double coverage = 1.0, double ephemeral = 0.0) {
  return {YearMonth(2020, 6), coverage, ephemeral};
}

TEST(HoneyfarmTest, ObservationIsDeterministic) {
  const netgen::Population pop(pop_config());
  const Honeyfarm farm(pop, vis_model(), 7);
  const auto a = farm.observe_month(month_spec(), 0);
  const auto b = farm.observe_month(month_spec(), 0);
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.population_sources, b.population_sources);
}

TEST(HoneyfarmTest, DetectedSourcesAreActivePopulationMembers) {
  const netgen::Population pop(pop_config());
  const Honeyfarm farm(pop, vis_model(), 7);
  const auto obs = farm.observe_month(month_spec(), 2);
  for (const std::string& key : obs.sources.row_keys()) {
    const auto ip = Ipv4::parse(key);
    ASSERT_TRUE(ip.has_value()) << key;
    EXPECT_TRUE(pop.owns_ip(*ip)) << key;  // no ephemerals in this spec
  }
}

TEST(HoneyfarmTest, ExplodedSchemaColumnsPresent) {
  const netgen::Population pop(pop_config());
  const Honeyfarm farm(pop, vis_model(), 7);
  const auto obs = farm.observe_month(month_spec(), 0);
  ASSERT_GT(obs.population_sources, 0u);
  const auto cls = select_cols_prefix(obs.sources, "classification|");
  const auto intent = select_cols_prefix(obs.sources, "intent|");
  const auto proto = select_cols_prefix(obs.sources, "protocol|");
  // Every detected population source carries one label per facet.
  EXPECT_EQ(cls.nnz(), obs.population_sources);
  EXPECT_EQ(intent.nnz(), obs.population_sources);
  EXPECT_EQ(proto.nnz(), obs.population_sources);
  // Contacts column is positive everywhere.
  const std::vector<std::string> contacts_col{"contacts"};
  for (const auto& t : d4m::oracle::triples(d4m::oracle::select_cols(obs.sources, contacts_col))) {
    EXPECT_GE(t.val, 1.0);
  }
}

TEST(HoneyfarmTest, EnrichmentIsStableAcrossMonths) {
  // A scanner's behaviour profile should not flip month to month.
  const netgen::Population pop(pop_config());
  const Honeyfarm farm(pop, vis_model(), 7);
  const auto m0 = farm.observe_month(month_spec(), 0);
  const auto m1 = farm.observe_month(month_spec(), 1);
  const auto shared = shared_keys(m0.sources.row_keys(), m1.sources.row_keys());
  ASSERT_GT(shared.size(), 10u);
  const auto cls0 = select_cols_prefix(m0.sources, "classification|");
  const auto cls1 = select_cols_prefix(m1.sources, "classification|");
  for (const std::string& ip : shared) {
    for (const char* label :
         {"classification|malicious", "classification|benign", "classification|unknown"}) {
      EXPECT_EQ(d4m::oracle::at(cls0, ip, label), d4m::oracle::at(cls1, ip, label))
          << ip << " " << label;
    }
  }
}

TEST(HoneyfarmTest, BrightSourcesAlwaysDetectedWhenActive) {
  const netgen::Population pop(pop_config());
  const Honeyfarm farm(pop, vis_model(), 7);
  const auto obs = farm.observe_month(month_spec(), 0);
  const double threshold = std::exp2(8.0);  // sqrt(2^16)
  for (std::size_t i = 0; i < pop.size(); ++i) {
    if (!pop.active(i, 0)) continue;
    if (pop.expected_active_degree(i) >= threshold) {
      EXPECT_TRUE(d4m::oracle::has_row(obs.sources, pop.source(i).ip.to_string()))
          << pop.source(i).ip.to_string();
    }
  }
}

TEST(HoneyfarmTest, EphemeralSourcesAreDisjointFromPopulation) {
  const netgen::Population pop(pop_config());
  const Honeyfarm farm(pop, vis_model(), 7);
  const auto obs = farm.observe_month(month_spec(1.0, 0.5), 0);
  EXPECT_NEAR(static_cast<double>(obs.ephemeral_sources), 0.5 * 8192, 2.0);
  std::uint64_t pop_rows = 0, eph_rows = 0;
  for (const std::string& key : obs.sources.row_keys()) {
    const auto ip = Ipv4::parse(key);
    ASSERT_TRUE(ip.has_value());
    if (pop.owns_ip(*ip)) {
      ++pop_rows;
    } else {
      ++eph_rows;
    }
  }
  EXPECT_EQ(pop_rows, obs.population_sources);
  // Random ephemeral IPs may occasionally collide with each other, so
  // row count can fall a hair short of the target.
  EXPECT_NEAR(static_cast<double>(eph_rows), static_cast<double>(obs.ephemeral_sources), 3.0);
}

TEST(HoneyfarmTest, CoverageBoostsDetections) {
  const netgen::Population pop(pop_config());
  const Honeyfarm farm(pop, vis_model(), 7);
  const auto lo = farm.observe_month(month_spec(1.0), 0);
  const auto hi = farm.observe_month(month_spec(2.5), 0);
  EXPECT_GT(hi.population_sources, lo.population_sources);
}

TEST(HoneyfarmTest, DifferentMonthsDifferentEphemerals) {
  const netgen::Population pop(pop_config());
  const Honeyfarm farm(pop, vis_model(), 7);
  const auto m0 = farm.observe_month({YearMonth(2020, 6), 1.0, 0.2}, 0);
  const auto m1 = farm.observe_month({YearMonth(2020, 7), 1.0, 0.2}, 1);
  // Ephemeral keys should essentially never repeat across months.
  std::vector<std::string> eph0, eph1;
  for (const std::string& k : m0.sources.row_keys()) {
    if (!pop.owns_ip(*Ipv4::parse(k))) eph0.push_back(k);
  }
  for (const std::string& k : m1.sources.row_keys()) {
    if (!pop.owns_ip(*Ipv4::parse(k))) eph1.push_back(k);
  }
  EXPECT_LT(shared_keys(eph0, eph1).size(), 3u);
}

TEST(HoneyfarmTest, InputValidation) {
  const netgen::Population pop(pop_config());
  const Honeyfarm farm(pop, vis_model(), 7);
  EXPECT_THROW(farm.observe_month(month_spec(), -1), std::invalid_argument);
  EXPECT_THROW(farm.observe_month({YearMonth(2020, 6), 0.0, 0.0}, 0), std::invalid_argument);
  EXPECT_THROW(farm.observe_month({YearMonth(2020, 6), 1.0, -0.5}, 0), std::invalid_argument);
}

TEST(HoneyfarmTest, TotalsAddUp) {
  const netgen::Population pop(pop_config());
  const Honeyfarm farm(pop, vis_model(), 7);
  const auto obs = farm.observe_month(month_spec(1.0, 0.3), 0);
  EXPECT_EQ(obs.total_sources(), obs.population_sources + obs.ephemeral_sources);
  EXPECT_EQ(obs.month, YearMonth(2020, 6));
}

std::string bytes(const d4m::AssocArray& a) {
  std::string out;
  a.write_binary(out);
  return out;
}

/// The month as the triple formulation builds it: four triples per
/// detected source and two per ephemeral draw, from the same RNG streams,
/// accumulated by `oracle::build`. `repeated` counts ephemeral draws of an
/// address already drawn that month.
d4m::AssocArray triple_month(const netgen::Population& pop, const netgen::VisibilityModel& vis,
                             std::uint64_t seed, const netgen::GreyNoiseMonthSpec& spec,
                             int month_index, std::size_t& repeated) {
  constexpr std::array<const char*, 3> kClassifications = {"malicious", "benign", "unknown"};
  constexpr std::array<const char*, 4> kIntents = {"scan", "backscatter", "worm", "botnet-c2"};
  constexpr std::array<const char*, 3> kProtocols = {"tcp", "udp", "icmp"};
  std::vector<d4m::oracle::Triple> triples;
  const std::size_t n = pop.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!pop.active(i, month_index)) continue;
    const double degree = pop.expected_active_degree(i);
    const double p = std::min(1.0, vis.probability(degree) * spec.coverage);
    Rng rng(seed, std::uint64_t{0x500000000} + static_cast<std::uint64_t>(month_index) * n + i);
    if (!rng.bernoulli(p)) continue;
    const std::string ip = pop.source(i).ip.to_string();
    Rng enrich(seed, std::uint64_t{0x600000000} + i);
    const char* cls = kClassifications[enrich.uniform_u64(kClassifications.size())];
    const char* intent = kIntents[enrich.uniform_u64(kIntents.size())];
    const char* proto = kProtocols[enrich.uniform_u64(kProtocols.size())];
    const std::uint64_t contacts = 1 + rng.poisson(std::min(degree, 1e6) * 0.25);
    triples.push_back({ip, std::string("classification|") + cls, 1.0});
    triples.push_back({ip, std::string("intent|") + intent, 1.0});
    triples.push_back({ip, std::string("protocol|") + proto, 1.0});
    triples.push_back({ip, "contacts", static_cast<double>(contacts)});
  }
  const auto target = static_cast<std::uint64_t>(spec.ephemeral_factor * static_cast<double>(n));
  Rng eph_rng(seed, std::uint64_t{0x700000000} + static_cast<std::uint64_t>(month_index));
  std::set<std::uint32_t> drawn;
  for (std::uint64_t made = 0; made < target;) {
    const std::uint32_t candidate = eph_rng.next_u32();
    const std::uint32_t top = candidate >> 24;
    if (top == 0 || top == 10 || top == 77 || top == 127 || top >= 224) continue;
    if (pop.owns_ip(Ipv4(candidate))) continue;
    if (!drawn.insert(candidate).second) ++repeated;
    const std::string key = Ipv4(candidate).to_string();
    triples.push_back({key, "classification|unknown", 1.0});
    triples.push_back({key, "contacts", 1.0});
    ++made;
  }
  return d4m::oracle::build(std::move(triples));
}

TEST(HoneyfarmTest, MonthsMatchTripleFormulation) {
  // The paper scenario at 2^14: 8192 candidates and 15 months whose
  // ephemeral loads reach 6.9x the population, enough draws that some
  // month catalogues one ephemeral address twice (its cells then sum).
  const netgen::Scenario scenario = netgen::Scenario::paper(14, 42);
  const netgen::Population pop(scenario.population);
  const std::uint64_t seed = 42;
  const Honeyfarm farm(pop, scenario.visibility, seed);
  std::size_t repeated = 0;
  for (std::size_t m = 0; m < scenario.months.size(); ++m) {
    const int month = static_cast<int>(m);
    const MonthlyObservation obs = farm.observe_month(scenario.months[m], month);
    EXPECT_EQ(bytes(obs.sources),
              bytes(triple_month(pop, scenario.visibility, seed, scenario.months[m], month,
                                 repeated)))
        << "month " << m;
  }
  EXPECT_GT(repeated, 0u);
}

}  // namespace
}  // namespace obscorr::honeyfarm
