#pragma once
/// \file correlation_oracle.hpp
/// Per-source oracle for the correlation analyses: a snapshot is binned by
/// walking its triples, and every tracked source is looked up in each
/// month with its own binary search (`has_row` of the triple-formulation
/// algebra, tests/d4m/assoc_oracle.hpp). The analyses
/// count the same matches with one sorted merge per (snapshot, month);
/// `expect_matches_oracle` holds every count, series and modified-Cauchy
/// fit they return to this formulation exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "../d4m/assoc_oracle.hpp"
#include "../stats/modified_cauchy_reference.hpp"
#include "common/binning.hpp"
#include "common/thread_pool.hpp"
#include "core/correlation.hpp"

namespace obscorr::core::oracle {

/// Sources of `snapshot` whose packet count lies in [2^bin, 2^(bin+1)),
/// as sorted dotted-quad keys.
inline std::vector<std::string> bin_sources(const SnapshotData& snapshot, int bin) {
  std::vector<std::string> keys;
  for (const d4m::oracle::Triple& t : d4m::oracle::triples(snapshot.sources)) {
    if (t.col != "packets") continue;
    if (t.val >= 1.0 && log2_bin(static_cast<std::uint64_t>(t.val)) == bin) {
      keys.push_back(t.row);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Fig. 4 for one snapshot against one month, one lookup per source.
inline std::vector<PeakCorrelationBin> peak_correlation(const SnapshotData& snapshot,
                                                        const honeyfarm::MonthlyObservation& month,
                                                        double half_log_nv) {
  std::vector<PeakCorrelationBin> bins;
  for (const d4m::oracle::Triple& t : d4m::oracle::triples(snapshot.sources)) {
    if (t.col != "packets" || t.val < 1.0) continue;
    const int b = log2_bin(static_cast<std::uint64_t>(t.val));
    if (bins.size() <= static_cast<std::size_t>(b)) {
      bins.resize(static_cast<std::size_t>(b) + 1);
      for (std::size_t i = 0; i < bins.size(); ++i) bins[i].bin = static_cast<int>(i);
    }
    auto& cell = bins[static_cast<std::size_t>(b)];
    ++cell.caida_sources;
    if (d4m::oracle::has_row(month.sources, t.row)) ++cell.matched;
  }
  for (auto& cell : bins) {
    if (cell.caida_sources > 0) {
      cell.fraction = static_cast<double>(cell.matched) / static_cast<double>(cell.caida_sources);
    }
    cell.model = std::min(1.0, (static_cast<double>(cell.bin) + 0.5) / half_log_nv);
  }
  return bins;
}

/// One curve's tracked-source count and series; nullopt below `min_sources`.
struct Curve {
  std::uint64_t bin_sources = 0;
  stats::TemporalSeries series;
};

inline std::optional<Curve> curve(const SnapshotData& snapshot,
                                  std::span<const honeyfarm::MonthlyObservation> months, int bin,
                                  std::uint64_t min_sources) {
  const std::vector<std::string> tracked = bin_sources(snapshot, bin);
  if (tracked.size() < min_sources) return std::nullopt;
  Curve out;
  out.bin_sources = tracked.size();
  for (std::size_t m = 0; m < months.size(); ++m) {
    std::uint64_t matched = 0;
    for (const std::string& ip : tracked) {
      if (d4m::oracle::has_row(months[m].sources, ip)) ++matched;
    }
    out.series.dt.push_back(static_cast<double>(static_cast<int>(m) - snapshot.month_index));
    out.series.fraction.push_back(static_cast<double>(matched) /
                                  static_cast<double>(tracked.size()));
  }
  return out;
}

/// The bins `fit_grid` enumerates for a snapshot: 0 through the bin of
/// its brightest source.
inline int max_bin(const SnapshotData& snapshot) {
  return log2_bin(
      static_cast<std::uint64_t>(std::max(1.0, snapshot.source_packets.reduce_max())));
}

inline void expect_same_series(const stats::TemporalSeries& actual,
                               const stats::TemporalSeries& expected, const std::string& what) {
  ASSERT_EQ(actual.dt.size(), expected.dt.size()) << what;
  ASSERT_EQ(actual.fraction.size(), expected.fraction.size()) << what;
  for (std::size_t m = 0; m < actual.dt.size(); ++m) {
    const std::string at = what + " month " + std::to_string(m);
    stats::reference::expect_same_bits(actual.dt[m], expected.dt[m], at + " dt");
    stats::reference::expect_same_bits(actual.fraction[m], expected.fraction[m],
                                       at + " fraction");
  }
}

/// Fig. 4 totals, every single-bin curve of the first snapshot, and the
/// fit grid at `min_sources` on `pool`, all against the oracle.
inline void expect_matches_oracle(std::span<const SnapshotData> snapshots,
                                  std::span<const honeyfarm::MonthlyObservation> months,
                                  double half_log_nv, std::uint64_t min_sources,
                                  ThreadPool& pool, const std::string& what) {
  // Fig. 4: the per-snapshot oracle summed as peak_correlation_all sums.
  std::vector<PeakCorrelationBin> expected;
  for (const SnapshotData& snap : snapshots) {
    const auto bins = oracle::peak_correlation(
        snap, months[static_cast<std::size_t>(snap.month_index)], half_log_nv);
    if (expected.size() < bins.size()) expected.resize(bins.size());
    for (std::size_t b = 0; b < bins.size(); ++b) {
      expected[b].caida_sources += bins[b].caida_sources;
      expected[b].matched += bins[b].matched;
    }
  }
  const auto peak = core::peak_correlation_all(snapshots, months, half_log_nv);
  ASSERT_EQ(peak.size(), expected.size()) << what;
  for (std::size_t b = 0; b < peak.size(); ++b) {
    EXPECT_EQ(peak[b].bin, static_cast<int>(b)) << what;
    EXPECT_EQ(peak[b].caida_sources, expected[b].caida_sources) << what << " bin " << b;
    EXPECT_EQ(peak[b].matched, expected[b].matched) << what << " bin " << b;
  }

  // Figs. 5-8: the grid holds exactly the oracle's populated cells, in
  // (snapshot, bin) order.
  const auto grid = core::fit_grid(snapshots, months, min_sources, pool);
  std::size_t next = 0;
  for (std::size_t s = 0; s < snapshots.size(); ++s) {
    for (int bin = 0; bin <= max_bin(snapshots[s]); ++bin) {
      const auto want = oracle::curve(snapshots[s], months, bin, min_sources);
      if (!want) continue;
      const std::string cell =
          what + " snapshot " + std::to_string(s) + " bin " + std::to_string(bin);
      ASSERT_LT(next, grid.size()) << cell << " is missing";
      const FitGridCell& got = grid[next++];
      EXPECT_EQ(got.snapshot, s) << cell;
      EXPECT_EQ(got.curve.bin, bin) << cell;
      EXPECT_EQ(got.curve.bin_sources, want->bin_sources) << cell;
      expect_same_series(got.curve.series, want->series, cell);
      stats::reference::expect_reference_fit(got.curve.modified_cauchy, want->series, cell);
    }
  }
  EXPECT_EQ(next, grid.size()) << what << ": the grid holds cells the oracle does not";

  // A single curve merges only its own bin's sources.
  if (snapshots.empty()) return;
  for (int bin = -1; bin <= max_bin(snapshots[0]) + 1; ++bin) {
    const std::string cell = what + " single curve, bin " + std::to_string(bin);
    const auto want = oracle::curve(snapshots[0], months, bin, min_sources);
    const auto got = core::temporal_correlation(snapshots[0], months, bin, min_sources);
    ASSERT_EQ(got.has_value(), want.has_value()) << cell;
    if (!got) continue;
    EXPECT_EQ(got->bin_sources, want->bin_sources) << cell;
    expect_same_series(got->series, want->series, cell);
    stats::reference::expect_reference_fit(got->modified_cauchy, want->series, cell);
  }
}

}  // namespace obscorr::core::oracle
