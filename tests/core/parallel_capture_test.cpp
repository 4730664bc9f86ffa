#include "core/parallel_capture.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/prng.hpp"
#include "core/study.hpp"
#include "netgen/scenario.hpp"

namespace obscorr::core {
namespace {

TEST(WindowDurationTest, DurationsSpreadAroundPacketsOverRate) {
  // Poisson arrivals: a window's duration is Gamma(n, rate) with mean
  // n/rate and relative sd 1/sqrt(n). Windows of the same packet count
  // must differ (Table I's variable time) yet hug the mean.
  constexpr std::uint64_t kPackets = 4096;
  constexpr double kRate = 1e6;
  const double expected = static_cast<double>(kPackets) / kRate;
  double lo = expected * 2.0, hi = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const double d = window_duration_sec(kPackets, kRate, seed);
    EXPECT_NEAR(d, expected, expected * 0.1) << "seed " << seed;
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_GT(hi - lo, expected * 0.001);
}

TEST(WindowDurationTest, SumsTheTimingStreamInOrder) {
  // The live archive's stored bytes depend on this exact stream and
  // summation order: Rng(seed, 0x7173), one gap per packet, from zero.
  Rng timing(0x11E50003, 0x7173);
  double clock = 0.0;
  for (int i = 0; i < 1000; ++i) clock += timing.exponential(250.0);
  EXPECT_EQ(window_duration_sec(1000, 250.0, 0x11E50003), clock);
  EXPECT_EQ(window_duration_sec(0, 250.0, 1), 0.0);
  EXPECT_THROW(window_duration_sec(10, 0.0, 1), std::invalid_argument);
}

TEST(WindowDurationTest, DiscardedPacketsAdvanceTheClock) {
  // Half the stream is legitimate traffic the telescope discards: the
  // window holds its constant valid-packet count, but its clock runs
  // over every streamed packet, so it lasts about twice as long.
  netgen::Scenario scenario = netgen::Scenario::paper(12, 3);
  scenario.traffic.legit_fraction = 0.5;
  ThreadPool pool(2);
  const netgen::Population population(scenario.population);
  const netgen::TrafficGenerator generator(population, scenario.traffic);
  telescope::Telescope scope(scope_config_for(scenario), pool);
  const gbl::DcsrMatrix matrix =
      capture_window(scope, generator, 0, scenario.nv(), /*salt=*/9, pool);
  EXPECT_EQ(matrix.reduce_sum(), static_cast<double>(scenario.nv()));
  const std::uint64_t discarded = scope.discarded_packets();
  EXPECT_GT(discarded, scenario.nv() / 4);

  constexpr double kRate = 1000.0;
  const std::uint64_t streamed = scenario.nv() + discarded;
  const double with_discards = window_duration_sec(streamed, kRate, 9);
  EXPECT_NEAR(with_discards, static_cast<double>(streamed) / kRate,
              0.1 * static_cast<double>(streamed) / kRate);
  EXPECT_GT(with_discards, window_duration_sec(scenario.nv(), kRate, 9));
}

}  // namespace
}  // namespace obscorr::core
