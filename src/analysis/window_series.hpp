#pragma once
/// \file window_series.hpp
/// Per-window metric time-series: the substrate the correlation engine
/// (correlate.hpp) and the streaming detectors (detectors.hpp) operate
/// on. Each capture window — an archived CAIDA snapshot or a live ingest
/// window — is reduced to one WindowSample (Table II aggregates plus
/// capture metadata and degree-distribution shape), and a SeriesStore
/// holds the samples column-wise as named, append-friendly series.
///
/// The catalogue is fixed: every store carries the same metric names in
/// the same order, so ranked-correlation output is comparable across
/// archives and across live/offline runs. Population is deliberately
/// proxied by `table2.unique_sources` (the paper's observable estimate
/// of N_V) rather than the ground-truth generator state, which a live
/// observatory never has.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "archive/study_archive.hpp"
#include "common/thread_pool.hpp"
#include "gbl/matrix_view.hpp"
#include "gbl/quantities.hpp"

namespace obscorr::analysis {

/// One window reduced to the quantities worth tracking over time.
struct WindowSample {
  gbl::AggregateQuantities q;           ///< Table II aggregates of A_t
  std::uint64_t discarded_packets = 0;  ///< below-horizon drops this window
  double duration_sec = 0.0;            ///< scaled capture duration
  double source_gini = 0.0;             ///< Gini of the A·1 degree values
};

/// Names of the registered series, catalogue order. Fixed at
/// compile time; docs/observability.md documents each entry.
const std::vector<std::string>& metric_names();

/// Number of registered series.
std::size_t metric_count();

/// One sample flattened to catalogue order (metric_row(s)[i] is the
/// value of metric_names()[i]).
std::vector<double> metric_row(const WindowSample& s);

/// Column-wise store of the per-window series. Append-only: built from
/// a window domain's samples (`store_from_reader` bulk-loads an archive;
/// the daemon builds one from the samples it holds) or grown one window
/// at a time. Not internally synchronized — callers serialize appends.
class SeriesStore {
 public:
  SeriesStore();

  /// A store holding `samples`, one window each, in order.
  explicit SeriesStore(std::span<const WindowSample> samples);

  const std::vector<std::string>& names() const { return metric_names(); }
  std::size_t series_count() const { return data_.size(); }
  std::size_t window_count() const { return windows_; }

  /// Append one window's sample to every series.
  void append(const WindowSample& s);

  /// Series i as a contiguous span, one value per appended window.
  std::span<const double> series(std::size_t i) const;

  /// Catalogue index of `name`, or npos when not registered.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find(std::string_view name) const;

 private:
  std::vector<std::vector<double>> data_;  ///< [metric][window]
  std::size_t windows_ = 0;
};

/// Which window population an archive-backed store draws from.
enum class Domain {
  kSnapshots,  ///< the scenario's archived CAIDA snapshots
  kWindows,    ///< live windows appended by `obscorr serve`
};

/// Reduce one window (its matrix, A·1 degree values, discards and
/// duration) to a WindowSample, with the serial Table II aggregation
/// straight over the matrix's arrays, so the result is bit-identical
/// across thread counts and between an in-memory matrix
/// (`MatrixView::over`) and its archived view. Every sample is taken
/// here; each one counts once in `analysis.windows_sampled`.
WindowSample sample_from(const gbl::MatrixView& matrix, std::span<const double> degrees,
                         std::uint64_t discarded, double duration_sec);

/// Reduce archived snapshot k / live window w to a WindowSample: the
/// stored matrix view and source reduction are read in place (over the
/// mapping, or over a decoded page the refs keep alive), and a
/// snapshot's D4M assoc entry is not read at all.
WindowSample sample_snapshot(const archive::StudyReader& reader, std::size_t k);
WindowSample sample_window(const archive::StudyReader& reader, std::size_t w);

/// Every window of `domain`, reduced on `pool`: each window is sampled
/// into its own slot, so the samples come back in window order and equal
/// a serial loop's at any thread count. A failed sample throws here once
/// every task has finished. Call from outside `pool`'s tasks.
std::vector<WindowSample> sample_all(const archive::StudyReader& reader, Domain domain,
                                     ThreadPool& pool);

/// Bulk-load every window of `domain` from an archive into a store.
SeriesStore store_from_reader(const archive::StudyReader& reader, Domain domain);

}  // namespace obscorr::analysis
