#pragma once
/// \file queries.hpp
/// The service's queries: their parameters, and the engine that answers
/// them over a live `StudyReader`. Each query type declares its params;
/// the batch CLI reads flags of the same names into the same JSON object
/// (`--snapshot 3` is `{"snapshot":3}`), so both fronts parse, and reject,
/// through one code path — before any archive is opened.
///
/// The engine is thread-safe — many connections execute queries
/// concurrently while the ingest loop publishes new windows:
///
///  * a shared/exclusive lock separates queries (shared) from
///    `refresh()` (exclusive), so a refresh never swaps the catalog
///    under a reader mid-query;
///  * rendered query outputs are cached by key behind deferred shared
///    futures, so an expensive render (scaling, report) runs exactly
///    once no matter how many clients race for it, and repeat queries
///    are a string copy; a render that throws leaves no entry;
///  * the completed campaign prefix is immutable, so cached entries for
///    it are valid forever; per-window entries are keyed by index and
///    windows are immutable once published;
///  * the engine holds every visible live window's sample (the series
///    `correlate` ranks over windows): the windows in the archive at open
///    are reduced then, and each later one is appended in the exclusive
///    section of the refresh that makes it visible, so a `correlate`
///    resolved at N windows ranks N resident samples and reads no window.
///
/// Rendering goes through svc/render.hpp — the same functions the batch
/// CLI prints with — which is what makes responses byte-identical to the
/// corresponding `obscorr <cmd> --from DIR` stdout.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/correlate.hpp"
#include "analysis/monitor.hpp"
#include "analysis/window_series.hpp"
#include "archive/study_archive.hpp"
#include "common/cli.hpp"
#include "common/thread_pool.hpp"
#include "core/scaling_analysis.hpp"
#include "honeyfarm/database.hpp"
#include "stats/histogram.hpp"
#include "svc/protocol.hpp"

namespace obscorr::svc {

/// The error text for a parameter (or CLI flag) `scope` does not declare.
std::string unknown_parameter(std::string_view scope, std::string_view name);

/// Throw unless `query` is known and every member of `params` is declared
/// by it, typed as declared (snapshot/window/top: integers >= 0; else strings).
void check_params(std::string_view query, const JsonValue& params);

/// `query`'s checked params object, read from the flags of the same names.
JsonValue params_from_flags(std::string_view query, const CliArgs& flags);

/// `degrees`: a campaign snapshot (default: snapshot 0) or a live window.
struct DegreesQuery {
  bool window = false;
  std::size_t index = 0;
  /// The indexed snapshot's or window's source packet counts; throws
  /// std::invalid_argument when the archive has no such index.
  gbl::SparseVec sources(const archive::StudyReader& reader) const;
};
DegreesQuery parse_degrees(const JsonValue& params);

/// `lookup`: the validated address.
std::string parse_lookup(const JsonValue& params);

/// `correlate` as requested; resolve_correlate fills the defaults.
struct CorrelateQuery {
  std::optional<analysis::Domain> domain;  ///< default: windows when any exist
  analysis::Method method = analysis::Method::kKs2;
  std::optional<analysis::WindowRange> baseline, highlight;  ///< default: netdata framing
  std::size_t top = 10;                                      ///< 0 = every metric
};
CorrelateQuery parse_correlate(const JsonValue& params);

/// A correlate query resolved over an open archive.
struct CorrelateFrame {
  analysis::Domain domain;
  std::string domain_name;  ///< "windows" or "snapshots"
  std::size_t count = 0;    ///< windows in the domain, at least 2
  analysis::WindowRange baseline, highlight;
};
CorrelateFrame resolve_correlate(const CorrelateQuery& query, const archive::StudyReader& reader);

/// The `scaling` ladder: windows of 2^10 up to the scenario's own N_V.
inline core::ScalingAnalysis scaling_ladder(const netgen::Scenario& scenario, ThreadPool& pool) {
  return core::scaling_analysis(scenario, 0, 10, static_cast<int>(scenario.population.log2_nv),
                                pool);
}

/// One query type's service-latency digest (microseconds, log-binned
/// percentiles — exact to within one binary-log bin).
struct QueryLatency {
  std::string query;
  std::uint64_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Dispatches requests over one archive; shared by every connection.
class QueryEngine {
 public:
  /// Open the archive and reduce its live windows to their samples, as
  /// `pool` tasks; throws on a missing/corrupt archive. `pool` is also
  /// used for the scaling ladder (and must outlive the engine). Call from
  /// outside `pool`'s tasks.
  QueryEngine(const std::string& dir, ThreadPool& pool);

  /// Execute one parsed request and return the full response line.
  /// Never throws: failures become protocol error responses.
  std::string execute(const Request& req);

  /// Absorb windows published since open/last refresh and append their
  /// samples to the resident series, all under the exclusive lock.
  /// `published`, when given, is the sample of window `window`, taken by
  /// the ingest loop from the matrix it just published; every other newly
  /// visible window (one the `LiveArchive` open recovered, say) is
  /// sampled from the archive here. Returns the number of newly visible
  /// windows.
  std::size_t refresh(std::size_t window = 0,
                      const analysis::WindowSample* published = nullptr);

  /// Prime `monitor` with the resident samples of the visible windows
  /// (shared lock): their detectors see the windows in order, each
  /// window's stored source reduction feeding the degree-shift detector.
  /// Returns the events fired during the replay.
  std::vector<analysis::AnomalyEvent> prime(analysis::Monitor& monitor);

  /// Currently visible live windows (shared lock).
  std::size_t window_count();

  /// Per-query-type latency digests, sorted by query name. Populated by
  /// execute(); `--timing` and the svc `stats` query surface these.
  std::vector<QueryLatency> latency_snapshot();

  const netgen::Scenario& scenario() const { return reader_.scenario(); }

 private:
  JsonValue dispatch(const Request& req);
  JsonValue q_lookup(const JsonValue& params);
  JsonValue q_report();
  JsonValue q_degrees(const JsonValue& params);
  JsonValue q_scaling();
  JsonValue q_correlate(const JsonValue& params);
  JsonValue q_stats();
  JsonValue q_metrics(const JsonValue& params);

  /// Rendered-output cache: run `print` once per key, share what it
  /// printed. Bounded: past kMaxCacheEntries new keys compute uncached.
  /// A render that throws is erased, so the key renders afresh next time.
  std::string cached(const std::string& key, const std::function<void(std::ostream&)>& print);

  /// Lazily built honeyfarm database over views of the completed
  /// campaign's months (immutable under live ingest); built by the first
  /// lookup, as `pool_` tasks, and again by the next one when a build
  /// throws. Raw months are viewed in reader_'s mapping, which refresh()
  /// never unmaps and which outlives db_.
  const honeyfarm::Database& database();

  static constexpr std::size_t kMaxCacheEntries = 256;

  archive::StudyReader reader_;
  ThreadPool& pool_;
  std::shared_mutex data_mu_;  // queries shared, refresh exclusive
  std::vector<analysis::WindowSample> windows_;  // one per visible live window
  std::mutex cache_mu_;
  std::unordered_map<std::string, std::shared_future<std::string>> cache_;
  std::mutex latency_mu_;
  std::map<std::string, stats::LogHistogram> latency_us_;  // by query type
  std::mutex db_mu_;  // guards db_: built by the first lookup that succeeds
  std::unique_ptr<honeyfarm::Database> db_;
};

}  // namespace obscorr::svc
