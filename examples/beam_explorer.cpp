/// Beam explorer: the paper's closing interpretation made visible — "a
/// correlated high frequency beam of sources that drifts on a time scale
/// of a month". Builds the honeyfarm database over the full study span,
/// extracts the persistent-scanner core, and shows (a) how month-over-
/// month membership decays, (b) how persistence correlates with
/// brightness, (c) the beam's monthly churn rates.
///
///   $ ./beam_explorer [log2_nv]   (default 16)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.hpp"
#include "honeyfarm/database.hpp"
#include "netgen/scenario.hpp"

int main(int argc, char** argv) {
  using namespace obscorr;
  const int log2_nv = argc > 1 ? std::stoi(argv[1]) : 16;

  const auto scenario = netgen::Scenario::paper(log2_nv, 3);
  const netgen::Population population(scenario.population);
  const honeyfarm::Honeyfarm farm(population, scenario.visibility,
                                  scenario.population.seed ^ 0x64E4015EULL);
  std::vector<honeyfarm::MonthlyObservation> months;
  for (std::size_t m = 0; m < scenario.months.size(); ++m) {
    months.push_back(farm.observe_month(scenario.months[m], static_cast<int>(m)));
  }
  // Keep an independent copy for the persistence counts and the churn.
  const std::vector<honeyfarm::MonthlyObservation> monthly(months);
  const honeyfarm::Database db(std::move(months));

  // Months seen per source, in key order.
  std::map<std::string_view, int> months_seen;
  for (const auto& month : monthly) {
    for (const std::string& key : month.sources.row_keys()) ++months_seen[key];
  }
  // The number of sources seen in at least `min_months` months.
  const auto persistent = [&months_seen](int min_months) {
    return static_cast<std::size_t>(std::ranges::count_if(
        months_seen, [min_months](const auto& entry) { return entry.second >= min_months; }));
  };

  // (a) Persistence spectrum: how many sources survive k of 15 months.
  TextTable spectrum("persistence spectrum (population + ephemeral sources)");
  spectrum.set_header({"months seen >=", "sources", "fraction of catalog"});
  const double total = static_cast<double>(db.distinct_sources());
  for (int k : {1, 2, 4, 6, 8, 10, 12, 15}) {
    const std::size_t sources = persistent(k);
    spectrum.add_row({std::to_string(k), fmt_count(sources),
                      fmt_percent(static_cast<double>(sources) / total, 2)});
  }
  spectrum.print(std::cout);

  // (b) The beam core: sources seen every single month, with brightness.
  const int all_months = static_cast<int>(monthly.size());
  std::printf("\nbeam core: %zu sources catalogued in all %zu months\n", persistent(all_months),
              monthly.size());
  double core_bright = 0.0;
  std::size_t matched = 0;
  for (const auto& [ip, seen] : months_seen) {
    if (seen < all_months) continue;
    const auto parsed = Ipv4::parse(ip);
    if (!parsed) continue;
    for (std::size_t i = 0; i < population.size(); ++i) {
      if (population.source(i).ip == *parsed) {
        core_bright += population.expected_active_degree(i);
        ++matched;
        break;
      }
    }
    if (matched >= 200) break;  // sample is plenty for the mean
  }
  if (matched > 0) {
    std::printf("mean expected window brightness of sampled core members: %.0f packets\n",
                core_bright / static_cast<double>(matched));
    std::printf("(brightness threshold sqrt(N_V) = %.0f: the beam is the bright head)\n",
                std::exp2(static_cast<double>(log2_nv) / 2.0));
  }

  // (c) Monthly churn, catalog-wide vs persistent-population members.
  // Ephemeral one-shot noise dominates the raw catalog (as the real
  // GreyNoise month-to-month totals suggest); the drifting beam lives in
  // the recurring population subset.
  const auto population_keys = [&](std::size_t m) {
    std::vector<std::string> keys;
    for (const std::string& key : monthly[m].sources.row_keys()) {
      const auto parsed = Ipv4::parse(key);
      if (parsed && population.owns_ip(*parsed)) keys.push_back(key);
    }
    return keys;
  };
  // The keys two sorted key sets share.
  const auto shared_keys = [](const auto& a, const auto& b) {
    std::vector<std::string_view> both;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(both));
    return both;
  };
  TextTable churn("\nmonth-over-month churn: whole catalog vs the recurring (beam) subset");
  churn.set_header({"from", "to", "catalog retained", "beam retained"});
  for (std::size_t m = 0; m + 1 < monthly.size(); ++m) {
    const auto shared_all =
        shared_keys(monthly[m].sources.row_keys(), monthly[m + 1].sources.row_keys());
    const double from_all = static_cast<double>(monthly[m].sources.row_keys().size());
    const auto beam_from = population_keys(m);
    const auto beam_to = population_keys(m + 1);
    const auto beam_shared = shared_keys(beam_from, beam_to);
    churn.add_row({monthly[m].month.to_string(), monthly[m + 1].month.to_string(),
                   fmt_percent(static_cast<double>(shared_all.size()) / from_all, 1),
                   beam_from.empty()
                       ? std::string("-")
                       : fmt_percent(static_cast<double>(beam_shared.size()) /
                                         static_cast<double>(beam_from.size()), 1)});
  }
  churn.print(std::cout);
  std::printf("\nthe beam subset retains over an order of magnitude more month to month\n"
              "than the raw catalog — the drifting correlated beam of the paper's\n"
              "conclusion, and the decay behind the Figs. 5-6 modified Cauchy.\n");
  return 0;
}
