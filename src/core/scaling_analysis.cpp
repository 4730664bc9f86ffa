#include "core/scaling_analysis.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/parallel_capture.hpp"
#include "core/study.hpp"
#include "gbl/quantities.hpp"
#include "netgen/traffic.hpp"
#include "telescope/telescope.hpp"

namespace obscorr::core {

double log_log_slope(const std::vector<int>& log2_x, const std::vector<double>& y) {
  OBSCORR_REQUIRE(log2_x.size() == y.size(), "log_log_slope: size mismatch");
  OBSCORR_REQUIRE(log2_x.size() >= 2, "log_log_slope: need at least two points");
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  const double n = static_cast<double>(log2_x.size());
  for (std::size_t i = 0; i < log2_x.size(); ++i) {
    OBSCORR_REQUIRE(y[i] > 0.0, "log_log_slope: values must be positive");
    const double x = static_cast<double>(log2_x[i]);
    const double ly = std::log2(y[i]);
    sx += x;
    sy += ly;
    sxx += x * x;
    sxy += x * ly;
  }
  const double denom = n * sxx - sx * sx;
  OBSCORR_REQUIRE(denom > 0.0, "log_log_slope: degenerate x values");
  return (n * sxy - sx * sy) / denom;
}

ScalingAnalysis scaling_analysis(const netgen::Scenario& scenario, int month, int log2_lo,
                                 int log2_hi, ThreadPool& pool) {
  const netgen::Population population(scenario.population);
  return scaling_analysis(scenario, population, month, log2_lo, log2_hi, pool);
}

ScalingAnalysis scaling_analysis(const netgen::Scenario& scenario,
                                 const netgen::Population& population, int month, int log2_lo,
                                 int log2_hi, ThreadPool& pool) {
  OBSCORR_REQUIRE(log2_lo >= 8, "scaling_analysis: windows below 2^8 are all noise");
  OBSCORR_REQUIRE(log2_hi > log2_lo, "scaling_analysis: need an increasing ladder");
  OBSCORR_REQUIRE(log2_hi <= static_cast<int>(scenario.population.log2_nv) + 2,
                  "scaling_analysis: ladder far beyond the scenario scale");

  const netgen::TrafficGenerator generator(population, scenario.traffic);
  const telescope::TelescopeConfig cfg = scope_config_for(scenario);

  // Ladder rungs are independent windows: run them as pool tasks into
  // pre-sized slots, each through its own telescope instance.
  (void)population.active(0, month);  // warm the activity chain once
  const std::size_t rungs = static_cast<std::size_t>(log2_hi - log2_lo + 1);
  ScalingAnalysis analysis;
  analysis.points.resize(rungs);
  parallel_for(pool, 0, rungs, [&](std::size_t b, std::size_t e) {
    for (std::size_t r = b; r < e; ++r) {
      const int k = log2_lo + static_cast<int>(r);
      telescope::Telescope scope(cfg, pool);
      const gbl::DcsrMatrix matrix =
          capture_window(scope, generator, month, 1ULL << k,
                         /*salt=*/0x5CA1E000 + static_cast<std::uint64_t>(k), pool);
      const gbl::AggregateQuantities q = gbl::aggregate_quantities(matrix);
      analysis.points[r] = {k, q.unique_sources, q.unique_links, q.unique_destinations,
                            q.max_source_packets};
    }
  });

  std::vector<int> ks;
  std::vector<double> sources, links, destinations, dmax;
  for (const auto& point : analysis.points) {
    ks.push_back(point.log2_nv);
    sources.push_back(static_cast<double>(point.unique_sources));
    links.push_back(static_cast<double>(point.unique_links));
    destinations.push_back(static_cast<double>(point.unique_destinations));
    dmax.push_back(point.max_source_packets);
  }
  analysis.source_exponent = log_log_slope(ks, sources);
  analysis.link_exponent = log_log_slope(ks, links);
  analysis.destination_exponent = log_log_slope(ks, destinations);
  analysis.dmax_exponent = log_log_slope(ks, dmax);
  return analysis;
}

}  // namespace obscorr::core
