#pragma once
/// \file ingest.hpp
/// The daemon's background capture loop: continuous telescope operation
/// appending live windows to the archive the service is serving.
///
/// Each iteration captures one constant-packet window with
/// `core::capture_window` — the batched block path the campaign's
/// snapshots take, through one telescope configured by
/// `core::scope_config_for` and kept for the loop's lifetime (its
/// anonymization memo stays warm across windows). The window's discards
/// are the change in the telescope's discard counter, and its duration
/// is `core::window_duration_sec` over every streamed packet at
/// `mean_packet_rate`, timed from zero with the window's salt as seed.
/// The loop reduces the window, appends it to the `LiveArchive` (atomic
/// manifest publication), samples it from the in-memory matrix (the one
/// Table II reduction a live window gets), and hands the sample to the
/// `QueryEngine` refresh that makes the window visible — so a `degrees`
/// query for window w starts answering the moment w's publication rename
/// lands, and a `correlate` ranks it, with bytes identical to what a
/// later batch CLI run over the same archive prints.
///
/// Determinism: window w always draws from scenario month `w %
/// month_count` with salt `salt_base + w` and timing seed `salt_base +
/// w`, so every window's entries are a pure function of its index and
/// the config — identical at any pool size and across restarts, which
/// the resume path of LiveArchive::append_window relies on.
///
/// The loop checks `interrupt::stop_requested()` (and the engine-side
/// stop flag) at window boundaries only: a SIGTERM mid-window finishes
/// and publishes that window, then exits — the paper's "never tear a
/// window" drain semantics.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "analysis/window_series.hpp"
#include "archive/live_archive.hpp"
#include "common/thread_pool.hpp"
#include "gbl/sparse_vec.hpp"
#include "netgen/scenario.hpp"
#include "svc/queries.hpp"

namespace obscorr::svc {

/// One freshly published live window, handed to IngestConfig::on_publish
/// on the ingest thread right after the publication rename lands and the
/// engine refreshed. The sources/sample references are valid only for
/// the duration of the callback.
struct PublishedWindow {
  archive::LiveWindowMeta meta;
  const gbl::SparseVec& sources;
  const analysis::WindowSample& sample;  ///< the sample the engine now holds
  std::uint64_t streamed = 0;  ///< generator packets offered (valid + discarded)
};

struct IngestConfig {
  /// Stop after publishing this many new windows (in addition to any
  /// recovered ones); SIZE_MAX runs until shutdown.
  std::size_t max_windows = static_cast<std::size_t>(-1);
  std::uint64_t window_packets = 1 << 16;  ///< valid packets per live window
  double mean_packet_rate = 1e6;           ///< Poisson arrival rate (packets/s)
  /// Live-window salt/timing base; window w uses salt_base + w. Distinct
  /// from every campaign snapshot salt.
  std::uint64_t salt_base = 0x11E50000;

  /// Deterministic injected anomaly: windows [surge_start, surge_start +
  /// surge_len) stream `surge_factor ×` the usual packet budget — a
  /// 2020-03-style traffic surge the detectors and `correlate` should
  /// flag. Off by default (surge_start = SIZE_MAX). Window index is the
  /// archive-global index, so the surge lands at the same windows across
  /// restarts.
  std::size_t surge_start = static_cast<std::size_t>(-1);
  std::size_t surge_len = 1;
  double surge_factor = 4.0;

  /// Called on the ingest thread once per published window, after the
  /// engine refresh — the serve command chains the anomaly monitor and
  /// the server's event push here. Must not throw.
  std::function<void(const PublishedWindow&)> on_publish;
};

/// Background ingest thread over one archive directory.
class IngestLoop {
 public:
  /// `dir` must hold a completed archive of `engine`'s scenario. The
  /// engine, pool, and directory must outlive the loop. Throws when
  /// `config.window_packets` is zero or `config.mean_packet_rate` is not
  /// positive.
  IngestLoop(std::string dir, QueryEngine& engine, ThreadPool& pool, IngestConfig config);
  ~IngestLoop();

  /// Spawn the ingest thread. Call at most once.
  void start();

  /// Signal the loop to stop at the next window boundary and wait for
  /// it to finish (idempotent; also triggered by the global interrupt
  /// flag).
  void stop_and_join();

  /// Windows published by this loop so far (excludes recovered ones).
  std::size_t published() const { return published_.load(std::memory_order_relaxed); }

  /// Set when the loop died on an exception; serve surfaces it.
  std::string error() const;

 private:
  void run();

  std::string dir_;
  QueryEngine& engine_;
  ThreadPool& pool_;
  IngestConfig config_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> published_{0};
  mutable std::mutex error_mu_;
  std::string error_;
};

}  // namespace obscorr::svc
