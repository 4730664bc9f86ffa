#pragma once
/// \file monitor.hpp
/// The live glue: one Monitor owns a DetectorBank and feeds it each
/// window's sample, in order — from an archive replay (`obscorr correlate
/// --events`, priming in `obscorr serve`) or from the resident service's
/// ingest loop. The Monitor reduces no window itself: it observes the
/// samples its caller already holds (the ones `correlate` ranks), and
/// reads a window's source reduction only for the degree-shift detector.
/// Anomaly events are returned to the caller (the serve loop pushes them
/// to `watch` subscribers) and, when configured, appended to an NDJSON
/// sidecar log next to the archive so offline tooling sees the same
/// stream.
///
/// Threading: a Monitor is driven by exactly one thread (the ingest
/// thread in `obscorr serve`); it is not internally synchronized.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/detectors.hpp"
#include "analysis/window_series.hpp"
#include "archive/study_archive.hpp"

namespace obscorr::analysis {

struct MonitorConfig {
  DetectorConfig detectors;
  /// NDJSON sidecar path for anomaly events; empty disables the log.
  std::string event_log_path;
};

/// {"event":"window",...} push line for one published window — the
/// heartbeat `watch` subscribers key their exactly-once accounting on.
std::string window_event_json(const archive::LiveWindowMeta& meta);

class Monitor {
 public:
  explicit Monitor(MonitorConfig cfg = {});

  /// Replay an archive's windows of `domain` through the detectors, in
  /// order: `samples[w]` is window w's sample, and the window's stored
  /// source reduction feeds the degree-shift detector. Returns every
  /// event fired during the replay (callers priming a live monitor
  /// typically discard them; `correlate --events` prints them). The
  /// sidecar log is *not* written during priming — only live
  /// observations are logged.
  std::vector<AnomalyEvent> prime(const archive::StudyReader& reader, Domain domain,
                                  std::span<const WindowSample> samples);

  /// Observe one live window: runs the detectors over its sample and
  /// degree values, appends any events to the sidecar log. Returns the
  /// events, also when the append did not reach the log in full: that
  /// failure counts in `analysis.event_log_errors` and is named by
  /// `log_error()`.
  std::vector<AnomalyEvent> observe_window(std::uint64_t window, const WindowSample& sample,
                                           std::span<const double> degrees);

  /// Why the last `observe_window` lost its events' append ("monitor:
  /// cannot append anomaly events to PATH"); empty when it logged them or
  /// had none to log.
  const std::string& log_error() const { return log_error_; }

  const DetectorBank& detectors() const { return bank_; }

 private:
  MonitorConfig cfg_;
  DetectorBank bank_;
  std::string log_error_;
};

}  // namespace obscorr::analysis
