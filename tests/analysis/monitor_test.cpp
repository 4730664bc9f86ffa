/// Monitor: archive replay priming from a caller's samples, live
/// observation with the NDJSON anomaly sidecar, and the window push-event
/// serialization.

#include "analysis/monitor.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "archive/live_archive.hpp"
#include "archive/study_archive.hpp"
#include "common/thread_pool.hpp"
#include "gbl/dcsr.hpp"
#include "netgen/scenario.hpp"
#include "obs/telemetry.hpp"

namespace obscorr::analysis {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string completed_archive(const std::string& name) {
  const std::string dir = temp_dir(name);
  ThreadPool pool(2);
  archive::archive_study(netgen::Scenario::paper(/*log2_nv=*/10, /*seed=*/7), dir, pool);
  return dir;
}

gbl::DcsrMatrix window_matrix(std::size_t w, double scale) {
  std::vector<gbl::Tuple> tuples;
  for (std::uint32_t i = 0; i < 8; ++i) {
    tuples.push_back({static_cast<gbl::Index>(w * 100 + i), i, scale * double(i + 1)});
    tuples.push_back({static_cast<gbl::Index>(w * 100 + i), i + 8, scale * 2.0});
  }
  return gbl::DcsrMatrix::from_tuples(std::move(tuples));
}

void append_window(archive::LiveArchive& live, std::size_t w, double scale) {
  archive::LiveWindowMeta meta;
  meta.window = w;
  meta.month_index = static_cast<std::int32_t>(w % 15);
  meta.salt = 0x11E50000ull + w;
  const gbl::DcsrMatrix m = window_matrix(w, scale);
  meta.valid_packets = static_cast<std::uint64_t>(m.reduce_sum());
  meta.duration_sec = 3.5;
  live.append_window(meta, m, m.reduce_rows());
}

TEST(MonitorTest, PrimeReplaysArchiveAndFlagsInjectedSurge) {
  const std::string dir = completed_archive("monitor_prime");
  {
    archive::LiveArchive live(dir);
    for (std::size_t w = 0; w < 10; ++w) append_window(live, w, w == 8 ? 8.0 : 1.0);
  }
  archive::StudyReader reader(dir);
  ThreadPool pool(2);
  Monitor monitor;
  const std::vector<AnomalyEvent> events =
      monitor.prime(reader, Domain::kWindows, sample_all(reader, Domain::kWindows, pool));
  EXPECT_EQ(monitor.detectors().observed(), 10u);

  // The surge at window 8 fires; the detectors stay silent elsewhere
  // (window 9 returns to baseline, which is itself a detectable step
  // back — accept events only at 8 and 9).
  ASSERT_FALSE(events.empty());
  bool surge_flagged = false;
  for (const AnomalyEvent& e : events) {
    EXPECT_TRUE(e.window == 8 || e.window == 9) << e.window << " " << e.metric;
    if (e.window == 8 && e.metric == "table2.valid_packets") surge_flagged = true;
  }
  EXPECT_TRUE(surge_flagged);
}

TEST(MonitorTest, ObserveWindowAppendsSidecarEvents) {
  const std::string dir = temp_dir("monitor_sidecar");
  std::filesystem::create_directories(dir);
  MonitorConfig cfg;
  cfg.event_log_path = dir + "/anomalies.ndjson";
  Monitor monitor(cfg);

  WindowSample flat;
  flat.q.valid_packets = 1000.0;
  flat.q.unique_sources = 40;
  const std::vector<double> degrees(40, 4.0);
  for (std::uint64_t w = 0; w < 8; ++w) {
    EXPECT_TRUE(monitor.observe_window(w, flat, degrees).empty()) << w;
  }
  EXPECT_FALSE(std::filesystem::exists(cfg.event_log_path));  // nothing fired yet

  WindowSample surge = flat;
  surge.q.valid_packets = 9000.0;
  const std::vector<AnomalyEvent> events = monitor.observe_window(8, surge, degrees);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(monitor.detectors().observed(), 9u);

  // Sidecar holds exactly the fired events, one JSON object per line.
  std::ifstream log(cfg.event_log_path);
  ASSERT_TRUE(log.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(log, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(lines[i], event_json(events[i]));
    EXPECT_EQ(lines[i].front(), '{');
    EXPECT_EQ(lines[i].back(), '}');
  }
}

TEST(MonitorTest, FailedSidecarAppendIsCountedAndNamed) {
  // The sidecar is a symlink to /dev/full: every append fails at flush.
  std::error_code ec;
  if (!std::filesystem::is_character_file("/dev/full", ec)) {
    GTEST_SKIP() << "/dev/full is not a character device";
  }
  const std::string dir = temp_dir("monitor_sidecar_full");
  std::filesystem::create_directories(dir);
  MonitorConfig cfg;
  cfg.event_log_path = dir + "/anomalies.ndjson";
  std::filesystem::create_symlink("/dev/full", cfg.event_log_path);
  Monitor monitor(cfg);
  obs::reset();
  obs::set_level(obs::Level::kCounters);

  WindowSample flat;
  flat.q.valid_packets = 1000.0;
  flat.q.unique_sources = 40;
  const std::vector<double> degrees(40, 4.0);
  for (std::uint64_t w = 0; w < 8; ++w) {
    EXPECT_TRUE(monitor.observe_window(w, flat, degrees).empty()) << w;
    EXPECT_EQ(monitor.log_error(), "") << w;  // nothing to append
  }
  WindowSample surge = flat;
  surge.q.valid_packets = 9000.0;
  EXPECT_FALSE(monitor.observe_window(8, surge, degrees).empty());
  EXPECT_EQ(monitor.log_error(),
            "monitor: cannot append anomaly events to " + cfg.event_log_path);
  EXPECT_EQ(obs::counter("analysis.event_log_errors").value(), 1u);
  // Each observation reports its own append.
  const std::vector<AnomalyEvent> after = monitor.observe_window(9, flat, degrees);
  EXPECT_EQ(monitor.log_error().empty(), after.empty());
  obs::set_level(obs::Level::kOff);
  obs::reset();
  EXPECT_TRUE(std::filesystem::is_symlink(cfg.event_log_path));
  std::filesystem::remove_all(dir);
}

TEST(MonitorTest, WindowEventJsonShape) {
  archive::LiveWindowMeta meta;
  meta.window = 5;
  meta.month_index = 2;
  meta.valid_packets = 4096;
  meta.discarded_packets = 17;
  EXPECT_EQ(window_event_json(meta),
            "{\"event\":\"window\",\"window\":5,\"month_index\":2,"
            "\"valid_packets\":4096,\"discarded_packets\":17}");
}

}  // namespace
}  // namespace obscorr::analysis
