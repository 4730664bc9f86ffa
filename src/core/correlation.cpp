#include "core/correlation.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "common/binning.hpp"
#include "common/error.hpp"
#include "obs/span.hpp"

namespace obscorr::core {

namespace {

/// The log2 brightness bin of a source's packet count, or -1 for a count
/// no bin holds (below 1, NaN, or past the u64 range).
int packets_bin(double packets) {
  if (!(packets >= 1.0 && packets < 0x1p64)) return -1;
  return log2_bin(static_cast<std::uint64_t>(packets));
}

/// A snapshot's tracked sources: the rows of its assoc array whose
/// "packets" count lies in a bin, in row-key order, each with its bin.
struct BinnedSources {
  std::vector<const std::string*> keys;  ///< tracked row keys, ascending
  std::vector<std::uint8_t> bins;        ///< bins[i]: the bin of *keys[i]
  std::vector<std::uint64_t> sources;    ///< tracked sources per bin, to the last nonempty one

  std::uint64_t count(int bin) const {
    return bin >= 0 && static_cast<std::size_t>(bin) < sources.size()
               ? sources[static_cast<std::size_t>(bin)]
               : 0;
  }
};

/// Read the snapshot's "packets" column once. `only_bin` keeps the
/// sources of that bin alone (a single curve's sparse merge).
BinnedSources bin_snapshot(const SnapshotData& snapshot,
                           std::optional<int> only_bin = std::nullopt) {
  const d4m::AssocArray& a = snapshot.sources;
  BinnedSources out;
  const auto cols = a.col_keys();
  const auto col = std::lower_bound(cols.begin(), cols.end(), std::string_view("packets"));
  if (col == cols.end() || *col != "packets") return out;
  const auto packets_col = static_cast<std::uint32_t>(col - cols.begin());
  const auto keys = a.row_keys();
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  for (std::size_t r = 0; r < keys.size(); ++r) {
    for (std::uint64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (col_idx[k] != packets_col) continue;
      const int bin = packets_bin(values[k]);
      if (bin >= 0 && (!only_bin || bin == *only_bin)) {
        out.keys.push_back(&keys[r]);
        out.bins.push_back(static_cast<std::uint8_t>(bin));
        if (out.sources.size() <= static_cast<std::size_t>(bin)) {
          out.sources.resize(static_cast<std::size_t>(bin) + 1);
        }
        ++out.sources[static_cast<std::size_t>(bin)];
      }
      break;
    }
  }
  return out;
}

/// How many of `sources`' keys `month_keys` holds, per bin: one galloping
/// merge of the two sorted, unique key lists. Each key is searched forward
/// from the previous position, first by doubling steps and then by binary
/// search within the last step, so a dense snapshot costs a linear merge
/// and a sparse bin about one binary search per key.
std::vector<std::uint64_t> match_counts(const BinnedSources& sources,
                                        std::span<const std::string> month_keys) {
  std::vector<std::uint64_t> matched(sources.sources.size());
  const std::size_t n = month_keys.size();
  std::size_t lo = 0;  // every month key before `lo` sorts below the next source key
  for (std::size_t i = 0; i < sources.keys.size(); ++i) {
    const std::string& key = *sources.keys[i];
    std::size_t hi = lo;
    for (std::size_t step = 1; hi < n && month_keys[hi] < key; step *= 2) {
      lo = hi + 1;
      hi = lo + step;
    }
    const auto last_step = month_keys.subspan(lo, std::min(hi, n) - lo);
    lo += static_cast<std::size_t>(
        std::lower_bound(last_step.begin(), last_step.end(), key) - last_step.begin());
    if (lo < n && month_keys[lo] == key) {
      ++matched[sources.bins[i]];
      ++lo;
    }
  }
  return matched;
}

/// The bin-`bin` curve of a snapshot of month `month_index` whose bin holds
/// `tracked` sources, `matched[m]` holding month m's per-bin match counts;
/// nullopt below `min_sources`.
std::optional<TemporalCorrelation> fit_curve(int month_index, int bin, std::uint64_t tracked,
                                             std::span<const std::vector<std::uint64_t>> matched,
                                             std::uint64_t min_sources) {
  if (tracked < min_sources) return std::nullopt;
  TemporalCorrelation out;
  out.bin = bin;
  out.bin_sources = tracked;
  for (std::size_t m = 0; m < matched.size(); ++m) {
    const std::vector<std::uint64_t>& counts = matched[m];
    const std::uint64_t seen =
        static_cast<std::size_t>(bin) < counts.size() ? counts[static_cast<std::size_t>(bin)] : 0;
    out.series.dt.push_back(static_cast<double>(static_cast<int>(m) - month_index));
    out.series.fraction.push_back(static_cast<double>(seen) / static_cast<double>(tracked));
  }
  out.modified_cauchy = stats::fit_modified_cauchy(out.series);
  out.cauchy = stats::fit_cauchy(out.series);
  out.gaussian = stats::fit_gaussian(out.series);
  return out;
}

}  // namespace

std::vector<PeakCorrelationBin> peak_correlation(const SnapshotData& snapshot,
                                                 const honeyfarm::MonthlyObservation& month,
                                                 double half_log_nv) {
  OBSCORR_REQUIRE(half_log_nv > 0.0, "half_log_nv must be positive");
  const BinnedSources binned = bin_snapshot(snapshot);
  const std::vector<std::uint64_t> matched = match_counts(binned, month.sources.row_keys());
  std::vector<PeakCorrelationBin> bins(binned.sources.size());
  for (std::size_t b = 0; b < bins.size(); ++b) {
    auto& cell = bins[b];
    cell.bin = static_cast<int>(b);
    cell.caida_sources = binned.sources[b];
    cell.matched = matched[b];
    if (cell.caida_sources > 0) {
      cell.fraction = static_cast<double>(cell.matched) / static_cast<double>(cell.caida_sources);
    }
    // The paper's empirical law evaluated at the bin centre.
    cell.model = std::min(1.0, (static_cast<double>(cell.bin) + 0.5) / half_log_nv);
  }
  return bins;
}

std::vector<PeakCorrelationBin> peak_correlation_all(const StudyData& study) {
  return peak_correlation_all(study.snapshots, study.months, study.half_log_nv());
}

std::vector<PeakCorrelationBin> peak_correlation_all(
    std::span<const SnapshotData> snapshots,
    std::span<const honeyfarm::MonthlyObservation> months, double half_log_nv) {
  std::vector<PeakCorrelationBin> total;
  for (const SnapshotData& snap : snapshots) {
    OBSCORR_REQUIRE(static_cast<std::size_t>(snap.month_index) < months.size(),
                    "snapshot month outside honeyfarm coverage");
    const auto bins = peak_correlation(
        snap, months[static_cast<std::size_t>(snap.month_index)], half_log_nv);
    if (total.size() < bins.size()) {
      const std::size_t old = total.size();
      total.resize(bins.size());
      for (std::size_t i = old; i < total.size(); ++i) {
        total[i].bin = static_cast<int>(i);
        total[i].model = bins[i].model;
      }
    }
    for (std::size_t i = 0; i < bins.size(); ++i) {
      total[i].caida_sources += bins[i].caida_sources;
      total[i].matched += bins[i].matched;
    }
  }
  for (auto& cell : total) {
    if (cell.caida_sources > 0) {
      cell.fraction = static_cast<double>(cell.matched) / static_cast<double>(cell.caida_sources);
    }
  }
  return total;
}

std::optional<TemporalCorrelation> temporal_correlation(const SnapshotData& snapshot,
                                                        const StudyData& study, int bin,
                                                        std::uint64_t min_sources) {
  return temporal_correlation(snapshot, study.months, bin, min_sources);
}

std::optional<TemporalCorrelation> temporal_correlation(
    const SnapshotData& snapshot, std::span<const honeyfarm::MonthlyObservation> months,
    int bin, std::uint64_t min_sources) {
  const BinnedSources tracked = bin_snapshot(snapshot, bin);
  std::vector<std::vector<std::uint64_t>> matched(months.size());
  for (std::size_t m = 0; m < months.size(); ++m) {
    matched[m] = match_counts(tracked, months[m].sources.row_keys());
  }
  return fit_curve(snapshot.month_index, bin, tracked.count(bin), matched, min_sources);
}

std::vector<FitGridCell> fit_grid(const StudyData& study, std::uint64_t min_sources) {
  return fit_grid(study.snapshots, study.months, min_sources);
}

std::vector<FitGridCell> fit_grid(const StudyData& study, std::uint64_t min_sources,
                                  ThreadPool& pool) {
  return fit_grid(study.snapshots, study.months, min_sources, pool);
}

std::vector<FitGridCell> fit_grid(std::span<const SnapshotData> snapshots,
                                  std::span<const honeyfarm::MonthlyObservation> months,
                                  std::uint64_t min_sources) {
  return fit_grid(snapshots, months, min_sources, ThreadPool::global());
}

std::vector<FitGridCell> fit_grid(std::span<const SnapshotData> snapshots,
                                  std::span<const honeyfarm::MonthlyObservation> months,
                                  std::uint64_t min_sources, ThreadPool& pool) {
  const obs::Span span("study.fit_grid");
  // Bin each snapshot once, then count every (snapshot, month) pair with
  // one merge: matched[s * months + m] holds the per-bin counts.
  std::vector<BinnedSources> binned(snapshots.size());
  parallel_for(pool, 0, snapshots.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t s = b; s < e; ++s) binned[s] = bin_snapshot(snapshots[s]);
  });
  std::vector<std::vector<std::uint64_t>> matched(snapshots.size() * months.size());
  parallel_for(pool, 0, matched.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      matched[i] = match_counts(binned[i / months.size()],
                                months[i % months.size()].sources.row_keys());
    }
  });

  // Enumerate the (snapshot, bin) cells up front, fit them in parallel
  // into per-cell slots, then keep the populated cells in enumeration
  // order — the exact sequence the serial loop produced.
  struct CellRef {
    std::size_t snapshot;
    int bin;
  };
  std::vector<CellRef> cells;
  for (std::size_t s = 0; s < snapshots.size(); ++s) {
    const int max_bin = packets_bin(std::max(1.0, snapshots[s].source_packets.reduce_max()));
    for (int bin = 0; bin <= max_bin; ++bin) cells.push_back({s, bin});
  }
  std::vector<std::optional<TemporalCorrelation>> curves(cells.size());
  parallel_for(pool, 0, cells.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const std::size_t s = cells[i].snapshot;
      curves[i] = fit_curve(snapshots[s].month_index, cells[i].bin,
                            binned[s].count(cells[i].bin),
                            std::span(matched).subspan(s * months.size(), months.size()),
                            min_sources);
    }
  });
  std::vector<FitGridCell> grid;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (curves[i].has_value()) grid.push_back({cells[i].snapshot, std::move(*curves[i])});
  }
  return grid;
}

}  // namespace obscorr::core
