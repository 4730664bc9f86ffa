#include "analysis/monitor.hpp"

#include <fstream>
#include <sstream>

#include "obs/telemetry.hpp"

namespace obscorr::analysis {

std::string window_event_json(const archive::LiveWindowMeta& meta) {
  std::ostringstream os;
  os << "{\"event\":\"window\",\"window\":" << meta.window
     << ",\"month_index\":" << meta.month_index
     << ",\"valid_packets\":" << meta.valid_packets
     << ",\"discarded_packets\":" << meta.discarded_packets << "}";
  return os.str();
}

Monitor::Monitor(MonitorConfig cfg) : cfg_(std::move(cfg)), bank_(cfg_.detectors) {}

std::vector<AnomalyEvent> Monitor::prime(const archive::StudyReader& reader, Domain domain,
                                         std::span<const WindowSample> samples) {
  std::vector<AnomalyEvent> all;
  for (std::size_t w = 0; w < samples.size(); ++w) {
    const archive::StudyReader::SourcesRef sources =
        domain == Domain::kSnapshots ? reader.sources(w) : reader.window_sources(w);
    std::vector<AnomalyEvent> events = bank_.observe(w, metric_row(samples[w]), sources.counts);
    all.insert(all.end(), std::make_move_iterator(events.begin()),
               std::make_move_iterator(events.end()));
  }
  return all;
}

std::vector<AnomalyEvent> Monitor::observe_window(std::uint64_t window,
                                                  const WindowSample& sample,
                                                  std::span<const double> degrees) {
  std::vector<AnomalyEvent> events = bank_.observe(window, metric_row(sample), degrees);
  log_error_.clear();
  if (!events.empty() && !cfg_.event_log_path.empty()) {
    std::ofstream log(cfg_.event_log_path, std::ios::app);
    for (const AnomalyEvent& e : events) log << event_json(e) << '\n';
    log.close();
    if (log.fail()) {
      log_error_ = "monitor: cannot append anomaly events to " + cfg_.event_log_path;
      static obs::Counter& errors = obs::counter("analysis.event_log_errors");
      if (obs::counters_enabled()) errors.add(1);
    }
  }
  return events;
}

}  // namespace obscorr::analysis
