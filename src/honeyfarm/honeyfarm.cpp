#include "honeyfarm/honeyfarm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "d4m/gbl_bridge.hpp"

namespace obscorr::honeyfarm {

namespace {

/// The exploded-schema column vocabulary in std::string order; a month's
/// column keys are the subset of it that the month references.
constexpr std::array<std::string_view, 11> kColumns = {
    "classification|benign", "classification|malicious", "classification|unknown",
    "contacts",              "intent|backscatter",       "intent|botnet-c2",
    "intent|scan",           "intent|worm",              "protocol|icmp",
    "protocol|tcp",          "protocol|udp"};
static_assert(std::ranges::is_sorted(kColumns));

constexpr std::uint8_t column(std::string_view key) {
  const auto it = std::ranges::find(kColumns, key);
  if (it == kColumns.end()) throw std::invalid_argument("not a honeyfarm column");
  return static_cast<std::uint8_t>(it - kColumns.begin());
}

/// Enrichment vocabularies: what the outpost's conversation layer labels
/// sources with. Chosen per source deterministically; each array's order
/// is the order its RNG draw indexes.
constexpr std::array<std::uint8_t, 3> kClassifications = {
    column("classification|malicious"), column("classification|benign"),
    column("classification|unknown")};
constexpr std::array<std::uint8_t, 4> kIntents = {column("intent|scan"),
                                                  column("intent|backscatter"),
                                                  column("intent|worm"),
                                                  column("intent|botnet-c2")};
constexpr std::array<std::uint8_t, 3> kProtocols = {
    column("protocol|tcp"), column("protocol|udp"), column("protocol|icmp")};
constexpr std::uint8_t kUnknown = column("classification|unknown");
constexpr std::uint8_t kContacts = column("contacts");
constexpr std::uint8_t kNoFacet = 0xFF;

/// One catalogued source: its row key's rank (`d4m::ip_rank`, whose
/// integer order is the row keys' std::string order) and the cells it
/// adds to its row.
struct Sighting {
  std::uint32_t rank;
  std::uint8_t classification;
  std::uint8_t intent;    ///< kNoFacet for ephemerals
  std::uint8_t protocol;  ///< kNoFacet for ephemerals
  double contacts;
};

/// The month's associative array: one row per distinct address over the
/// columns the month references. Repeated sightings of one address add
/// up (D4M's plus accumulation).
d4m::AssocArray catalogue(std::vector<Sighting> sightings) {
  std::sort(sightings.begin(), sightings.end(),
            [](const Sighting& a, const Sighting& b) { return a.rank < b.rank; });
  std::vector<std::string> row_keys;
  std::vector<std::uint64_t> row_ptr{0};
  std::vector<std::uint32_t> col_idx;
  std::vector<double> val;
  std::array<bool, kColumns.size()> used{};
  for (std::size_t s = 0; s < sightings.size();) {
    const std::uint32_t rank = sightings[s].rank;
    std::array<double, kColumns.size()> cells{};
    std::array<bool, kColumns.size()> stored{};
    const auto add = [&](std::uint8_t c, double v) {
      if (c == kNoFacet) return;
      cells[c] = stored[c] ? cells[c] + v : v;
      stored[c] = true;
    };
    for (; s < sightings.size() && sightings[s].rank == rank; ++s) {
      add(sightings[s].classification, 1.0);
      add(sightings[s].intent, 1.0);
      add(sightings[s].protocol, 1.0);
      add(kContacts, sightings[s].contacts);
    }
    row_keys.push_back(d4m::rank_ip(rank).to_string());
    for (std::uint32_t c = 0; c < kColumns.size(); ++c) {
      if (!stored[c]) continue;
      col_idx.push_back(c);
      val.push_back(cells[c]);
      used[c] = true;
    }
    row_ptr.push_back(col_idx.size());
  }
  // Keep the referenced columns; the renumbering is monotone.
  std::vector<std::string> col_keys;
  std::array<std::uint32_t, kColumns.size()> remap{};
  for (std::size_t c = 0; c < kColumns.size(); ++c) {
    if (!used[c]) continue;
    remap[c] = static_cast<std::uint32_t>(col_keys.size());
    col_keys.emplace_back(kColumns[c]);
  }
  for (std::uint32_t& c : col_idx) c = remap[c];
  return d4m::AssocArray::from_csr(std::move(row_keys), std::move(col_keys), std::move(row_ptr),
                                   std::move(col_idx), std::move(val));
}

}  // namespace

Honeyfarm::Honeyfarm(const netgen::Population& population, netgen::VisibilityModel visibility,
                     std::uint64_t seed)
    : population_(population), visibility_(visibility), seed_(seed) {}

MonthlyObservation Honeyfarm::observe_month(const netgen::GreyNoiseMonthSpec& spec,
                                            int month_index) const {
  OBSCORR_REQUIRE(month_index >= 0, "month index must be non-negative");
  OBSCORR_REQUIRE(spec.coverage > 0.0, "coverage must be positive");
  OBSCORR_REQUIRE(spec.ephemeral_factor >= 0.0, "ephemeral_factor must be non-negative");

  MonthlyObservation obs;
  obs.month = spec.month;
  std::vector<Sighting> sightings;

  // Ground-truth population sources: active this month AND detected.
  // One activity-row snapshot instead of a per-source `active` call: the
  // sweep is the hot loop, and month tasks run concurrently.
  const std::size_t n = population_.size();
  const std::vector<std::uint8_t> active_row = population_.activity_row(month_index);
  for (std::size_t i = 0; i < n; ++i) {
    if (active_row[i] == 0) continue;
    const double degree = population_.expected_active_degree(i);
    const double p = std::min(1.0, visibility_.probability(degree) * spec.coverage);
    // Per-(source, month) detection stream, independent of the activity
    // stream (0x500... base) and of evaluation order.
    Rng rng(seed_, std::uint64_t{0x500000000} + static_cast<std::uint64_t>(month_index) * n + i);
    if (!rng.bernoulli(p)) continue;

    // Deterministic per-source enrichment (stable across months, as a
    // scanner's behaviour profile would be).
    Rng enrich(seed_, std::uint64_t{0x600000000} + i);
    const std::uint8_t cls = kClassifications[enrich.uniform_u64(kClassifications.size())];
    const std::uint8_t intent = kIntents[enrich.uniform_u64(kIntents.size())];
    const std::uint8_t proto = kProtocols[enrich.uniform_u64(kProtocols.size())];
    // Monthly interaction count: the outpost converses over the whole
    // month, so counts scale with the source's rate.
    const std::uint64_t contacts = 1 + rng.poisson(std::min(degree, 1e6) * 0.25);

    sightings.push_back({d4m::ip_rank(population_.source(i).ip), cls, intent, proto,
                         static_cast<double>(contacts)});
    ++obs.population_sources;
  }

  // Ephemeral one-month noise sources: random addresses outside the
  // persistent population, labelled unknown.
  const auto ephemeral_target =
      static_cast<std::uint64_t>(spec.ephemeral_factor * static_cast<double>(n));
  Rng eph_rng(seed_, std::uint64_t{0x700000000} + static_cast<std::uint64_t>(month_index));
  std::uint64_t made = 0;
  while (made < ephemeral_target) {
    const std::uint32_t candidate = eph_rng.next_u32();
    const std::uint32_t top = candidate >> 24;
    if (top == 0 || top == 10 || top == 77 || top == 127 || top >= 224) continue;
    const Ipv4 ip(candidate);
    if (population_.owns_ip(ip)) continue;
    sightings.push_back({d4m::ip_rank(ip), kUnknown, kNoFacet, kNoFacet, 1.0});
    ++made;
  }
  obs.ephemeral_sources = made;

  obs.sources = catalogue(std::move(sightings));
  return obs;
}

}  // namespace obscorr::honeyfarm
