#include "analysis/window_series.hpp"

#include <exception>
#include <mutex>

#include "common/error.hpp"
#include "obs/telemetry.hpp"
#include "stats/summary.hpp"

namespace obscorr::analysis {

namespace {

/// The fixed metric catalogue. Order is the on-the-wire ranking order —
/// append new metrics at the end of their group and update the docs plus
/// the pinned tests, never reorder.
const std::vector<std::string>& catalogue() {
  static const std::vector<std::string> names = {
      "table2.valid_packets",
      "table2.unique_links",
      "table2.max_link_packets",
      "table2.unique_sources",
      "table2.max_source_packets",
      "table2.max_source_fanout",
      "table2.unique_destinations",
      "table2.max_destination_packets",
      "table2.max_destination_fanin",
      "window.discarded_packets",
      "window.duration_sec",
      "window.ingest_packets",
      "degree.source_gini",
      "degree.mean_source_packets",
  };
  return names;
}

}  // namespace

const std::vector<std::string>& metric_names() { return catalogue(); }

std::size_t metric_count() { return catalogue().size(); }

std::vector<double> metric_row(const WindowSample& s) {
  const gbl::AggregateQuantities& q = s.q;
  const double unique_sources = static_cast<double>(q.unique_sources);
  return {
      q.valid_packets,
      static_cast<double>(q.unique_links),
      q.max_link_packets,
      unique_sources,
      q.max_source_packets,
      q.max_source_fanout,
      static_cast<double>(q.unique_destinations),
      q.max_destination_packets,
      q.max_destination_fanin,
      static_cast<double>(s.discarded_packets),
      s.duration_sec,
      q.valid_packets + static_cast<double>(s.discarded_packets),
      s.source_gini,
      unique_sources > 0.0 ? q.valid_packets / unique_sources : 0.0,
  };
}

SeriesStore::SeriesStore() : data_(metric_count()) {}

SeriesStore::SeriesStore(std::span<const WindowSample> samples) : SeriesStore() {
  for (std::vector<double>& series : data_) series.reserve(samples.size());
  for (const WindowSample& s : samples) append(s);
}

void SeriesStore::append(const WindowSample& s) {
  const std::vector<double> row = metric_row(s);
  OBSCORR_REQUIRE(row.size() == data_.size(), "metric row/catalogue mismatch");
  for (std::size_t i = 0; i < row.size(); ++i) data_[i].push_back(row[i]);
  ++windows_;
}

std::span<const double> SeriesStore::series(std::size_t i) const {
  OBSCORR_REQUIRE(i < data_.size(), "series index out of range");
  return data_[i];
}

std::size_t SeriesStore::find(std::string_view name) const {
  const std::vector<std::string>& names = catalogue();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  return npos;
}

WindowSample sample_from(const gbl::MatrixView& matrix, std::span<const double> degrees,
                         std::uint64_t discarded, double duration_sec) {
  WindowSample s;
  s.q = gbl::aggregate_quantities(matrix);
  s.discarded_packets = discarded;
  s.duration_sec = duration_sec;
  s.source_gini = degrees.empty() ? 0.0 : stats::gini_coefficient(degrees);
  if (obs::counters_enabled()) {
    static obs::Counter& sampled = obs::counter("analysis.windows_sampled");
    sampled.add(1);
  }
  return s;
}

WindowSample sample_snapshot(const archive::StudyReader& reader, std::size_t k) {
  const core::SnapshotData meta = reader.snapshot_meta(k);
  const archive::StudyReader::SourcesRef sources = reader.sources(k);
  return sample_from(reader.matrix(k), sources.counts, meta.discarded_packets, meta.duration_sec);
}

WindowSample sample_window(const archive::StudyReader& reader, std::size_t w) {
  const archive::LiveWindowMeta meta = reader.window_meta(w);
  const archive::StudyReader::SourcesRef sources = reader.window_sources(w);
  return sample_from(reader.window_matrix(w), sources.counts, meta.discarded_packets,
                     meta.duration_sec);
}

std::vector<WindowSample> sample_all(const archive::StudyReader& reader, Domain domain,
                                     ThreadPool& pool) {
  const bool snapshots = domain == Domain::kSnapshots;
  const std::size_t n = snapshots ? reader.snapshot_count() : reader.window_count();
  std::vector<WindowSample> samples(n);
  std::mutex error_mu;
  std::exception_ptr error;
  parallel_for(pool, 0, n, [&](std::size_t begin, std::size_t end) {
    try {
      for (std::size_t w = begin; w < end; ++w) {
        samples[w] = snapshots ? sample_snapshot(reader, w) : sample_window(reader, w);
      }
    } catch (...) {
      const std::lock_guard lock(error_mu);
      if (!error) error = std::current_exception();
    }
  });
  if (error) std::rethrow_exception(error);
  return samples;
}

SeriesStore store_from_reader(const archive::StudyReader& reader, Domain domain) {
  SeriesStore store;
  if (domain == Domain::kSnapshots) {
    for (std::size_t k = 0; k < reader.snapshot_count(); ++k) {
      store.append(sample_snapshot(reader, k));
    }
  } else {
    for (std::size_t w = 0; w < reader.window_count(); ++w) {
      store.append(sample_window(reader, w));
    }
  }
  return store;
}

}  // namespace obscorr::analysis
