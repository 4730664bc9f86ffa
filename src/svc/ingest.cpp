#include "svc/ingest.hpp"

#include <exception>
#include <utility>

#include "archive/live_archive.hpp"
#include "common/error.hpp"
#include "common/interrupt.hpp"
#include "core/parallel_capture.hpp"
#include "core/study.hpp"
#include "gbl/matrix_view.hpp"
#include "netgen/traffic.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "telescope/telescope.hpp"

namespace obscorr::svc {

IngestLoop::IngestLoop(std::string dir, QueryEngine& engine, ThreadPool& pool,
                       IngestConfig config)
    : dir_(std::move(dir)), engine_(engine), pool_(pool), config_(std::move(config)) {
  OBSCORR_REQUIRE(config_.window_packets > 0, "ingest: window_packets must be positive");
  OBSCORR_REQUIRE(config_.mean_packet_rate > 0.0, "ingest: mean_packet_rate must be positive");
}

IngestLoop::~IngestLoop() { stop_and_join(); }

void IngestLoop::start() {
  OBSCORR_REQUIRE(!thread_.joinable(), "ingest: already started");
  thread_ = std::thread([this] { run(); });
}

void IngestLoop::stop_and_join() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

std::string IngestLoop::error() const {
  const std::lock_guard lk(error_mu_);
  return error_;
}

void IngestLoop::run() {
  try {
    archive::LiveArchive live(dir_);
    const netgen::Scenario& scenario = engine_.scenario();
    engine_.refresh();  // samples the windows the LiveArchive open just republished

    const netgen::Population population(scenario.population);
    const netgen::TrafficGenerator generator(population, scenario.traffic);
    telescope::Telescope scope(core::scope_config_for(scenario), pool_);

    while (!stop_.load(std::memory_order_relaxed) && !interrupt::stop_requested() &&
           published_.load(std::memory_order_relaxed) < config_.max_windows) {
      const std::size_t w = live.window_count();
      const int month = static_cast<int>(w % scenario.months.size());
      const std::uint64_t salt = config_.salt_base + w;
      const obs::Span span("svc.ingest_window", [&] { return std::to_string(w); });

      // The injected surge scales the packet budget for a contiguous
      // window range; keyed off the archive-global index, it replays
      // identically after a crash-restart.
      const bool surging =
          w >= config_.surge_start && w < config_.surge_start + config_.surge_len;
      const std::uint64_t wp =
          surging ? static_cast<std::uint64_t>(
                        static_cast<double>(config_.window_packets) * config_.surge_factor)
                  : config_.window_packets;

      // The campaign's capture path: the window's discards are the change
      // in the telescope's counter, and every streamed packet advances
      // the window's own Poisson clock.
      const std::uint64_t discarded_before = scope.discarded_packets();
      const gbl::DcsrMatrix matrix =
          core::capture_window(scope, generator, month, wp, salt, pool_);
      const std::uint64_t discarded = scope.discarded_packets() - discarded_before;
      const std::uint64_t streamed = wp + discarded;

      archive::LiveWindowMeta meta;
      meta.window = w;
      meta.month_index = month;
      meta.salt = salt;
      meta.valid_packets = wp;
      meta.discarded_packets = discarded;
      meta.start_sec = 0.0;  // each live window runs on its own clock
      meta.duration_sec = core::window_duration_sec(streamed, config_.mean_packet_rate, salt);
      const gbl::SparseVec sources = matrix.reduce_rows(pool_);
      live.append_window(meta, matrix, sources);
      const analysis::WindowSample sample =
          analysis::sample_from(gbl::MatrixView::over(matrix), sources.values(),
                                meta.discarded_packets, meta.duration_sec);
      engine_.refresh(w, &sample);
      published_.fetch_add(1, std::memory_order_relaxed);
      if (obs::counters_enabled()) {
        static obs::Counter& packets = obs::counter("svc.ingest_packets");
        packets.add(streamed);
      }
      if (config_.on_publish) {
        config_.on_publish(PublishedWindow{meta, sources, sample, streamed});
      }
    }
  } catch (const std::exception& e) {
    const std::lock_guard lk(error_mu_);
    error_ = e.what();
  }
}

}  // namespace obscorr::svc
