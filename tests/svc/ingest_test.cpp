/// Live ingest over copies of the committed golden archive: every live
/// window's stored entries are a pure function of its index and the
/// ingest config — the same after a daemon restart and at any pool size
/// — and each window stores its own discard count. Queries racing the
/// ingest never keep a failure that newer windows would fix. The suite name keeps
/// it inside the ASan and TSan CI filters (`LiveArchive`).

#include "svc/ingest.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "archive/reader.hpp"
#include "archive/study_archive.hpp"
#include "common/interrupt.hpp"
#include "common/thread_pool.hpp"
#include "svc/queries.hpp"

namespace obscorr::svc {
namespace {

/// A private copy of the golden archive (log2 N_V = 12, seed 42, no live
/// windows) that ingest may append to.
std::string golden_copy(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "/" + name + "." + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::copy(OBSCORR_TEST_DATA_DIR "/golden_study", dir);
  return dir;
}

/// One daemon session: publish `windows` live windows into `dir` on a
/// `threads`-worker pool, then stop. Appends each published window's
/// streamed-packet count to `streamed`.
void run_session(const std::string& dir, std::size_t windows, std::size_t threads,
                 IngestConfig cfg, std::vector<std::uint64_t>& streamed) {
  interrupt::reset();
  ThreadPool pool(threads);
  QueryEngine engine(dir, pool);
  cfg.max_windows = windows;
  cfg.on_publish = [&streamed](const PublishedWindow& pw) { streamed.push_back(pw.streamed); };
  IngestLoop ingest(dir, engine, pool, cfg);
  ingest.start();
  for (int spin = 0; spin < 6000 && ingest.published() < windows && ingest.error().empty();
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ingest.stop_and_join();
  ASSERT_EQ(ingest.error(), "");
  ASSERT_EQ(ingest.published(), windows);
}

/// Every `window/<w>/{meta,matrix,sources}` entry is byte-identical.
void expect_same_windows(const std::string& a_dir, const std::string& b_dir,
                         std::size_t windows) {
  const archive::ArchiveReader a(a_dir);
  const archive::ArchiveReader b(b_dir);
  for (std::size_t w = 0; w < windows; ++w) {
    for (const char* part : {"meta", "matrix", "sources"}) {
      const std::string name = archive::window_entry(w, part);
      const archive::PayloadView pa = a.payload(name);
      const archive::PayloadView pb = b.payload(name);
      EXPECT_TRUE(std::ranges::equal(pa.bytes, pb.bytes)) << name;
    }
  }
}

TEST(LiveArchiveIngestTest, WindowsSurviveRestartsAndOwnTheirDiscards) {
  // Six windows in one session vs. three, a restart, and three more:
  // identical entries, and every window's discards are its own
  // (streamed − valid), never a running total since the daemon started.
  const IngestConfig cfg;  // default 65536-packet windows
  const std::string one_session = golden_copy("ingest_one_session");
  const std::string restarted = golden_copy("ingest_restarted");
  std::vector<std::uint64_t> streamed_one, streamed_restarted;
  run_session(one_session, 6, 4, cfg, streamed_one);
  run_session(restarted, 3, 4, cfg, streamed_restarted);
  run_session(restarted, 3, 4, cfg, streamed_restarted);
  ASSERT_EQ(streamed_one.size(), 6u);
  EXPECT_EQ(streamed_one, streamed_restarted);

  expect_same_windows(one_session, restarted, 6);
  const archive::StudyReader reader(one_session);
  ASSERT_EQ(reader.window_count(), 6u);
  for (std::size_t w = 0; w < 6; ++w) {
    const archive::LiveWindowMeta meta = reader.window_meta(w);
    EXPECT_EQ(meta.valid_packets, cfg.window_packets) << "window " << w;
    EXPECT_EQ(meta.discarded_packets, streamed_one[w] - meta.valid_packets) << "window " << w;
    EXPECT_GT(meta.discarded_packets, 0u) << "window " << w;
  }
  std::filesystem::remove_all(one_session);
  std::filesystem::remove_all(restarted);
}

TEST(LiveArchiveIngestTest, SurgeWindowIsThreadCountInvariant) {
  // A surge window above one generation shard (2^16 valid packets) takes
  // the campaign's sharded capture; its entries must not depend on the
  // pool size.
  IngestConfig cfg;
  cfg.surge_start = 0;
  cfg.surge_len = 1;
  cfg.surge_factor = 2.5;  // 163840 valid packets: three shards
  const std::string serial = golden_copy("ingest_surge_serial");
  const std::string parallel = golden_copy("ingest_surge_parallel");
  std::vector<std::uint64_t> streamed_serial, streamed_parallel;
  run_session(serial, 1, 1, cfg, streamed_serial);
  run_session(parallel, 1, 4, cfg, streamed_parallel);
  EXPECT_EQ(streamed_serial, streamed_parallel);

  expect_same_windows(serial, parallel, 1);
  const archive::StudyReader reader(serial);
  const archive::LiveWindowMeta meta = reader.window_meta(0);
  EXPECT_EQ(meta.valid_packets, 163840u);
  EXPECT_EQ(meta.discarded_packets, streamed_serial.at(0) - meta.valid_packets);
  EXPECT_EQ(reader.window_matrix(0).reduce_sum(), 163840.0);
  std::filesystem::remove_all(serial);
  std::filesystem::remove_all(parallel);
}

TEST(LiveArchiveIngestTest, RejectsUnusableSizes) {
  const std::string dir = golden_copy("ingest_config");
  ThreadPool pool(1);
  QueryEngine engine(dir, pool);
  IngestConfig no_packets;
  no_packets.window_packets = 0;
  EXPECT_THROW(IngestLoop(dir, engine, pool, no_packets), std::invalid_argument);
  IngestConfig no_rate;
  no_rate.mean_packet_rate = 0.0;
  EXPECT_THROW(IngestLoop(dir, engine, pool, no_rate), std::invalid_argument);
  std::filesystem::remove_all(dir);
}

TEST(LiveArchiveIngestTest, FailedRenderIsNotCached) {
  // A correlate range past the published windows fails inside the
  // cached render. The failure must leave no cache entry: once ingest
  // publishes the windows the range names, the same request succeeds.
  const std::string dir = golden_copy("ingest_failed_render");
  interrupt::reset();
  ThreadPool pool(2);
  QueryEngine engine(dir, pool);
  const auto publish = [&](std::size_t windows) {
    IngestConfig cfg;
    cfg.max_windows = windows;
    cfg.window_packets = 4096;
    IngestLoop ingest(dir, engine, pool, cfg);
    ingest.start();
    for (int spin = 0; spin < 6000 && ingest.published() < windows && ingest.error().empty();
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ingest.stop_and_join();
    ASSERT_EQ(ingest.error(), "");
  };
  const auto correlate = [&] {
    return parse_json(engine.execute(parse_request(
        R"({"query":"correlate","params":{"domain":"windows","baseline":"0:1","highlight":"2:3"}})")));
  };

  publish(2);
  ASSERT_EQ(engine.window_count(), 2u);
  const JsonValue early = correlate();
  ASSERT_FALSE(early.find("ok")->as_bool());
  EXPECT_NE(early.find("error")->find("message")->as_string().find("exceeds window count"),
            std::string::npos);

  publish(2);
  ASSERT_EQ(engine.window_count(), 4u);
  const JsonValue later = correlate();
  ASSERT_TRUE(later.find("ok")->as_bool()) << dump_json(later);
  EXPECT_EQ(later.find("result")->find("highlight")->find("last")->as_uint(), 3u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace obscorr::svc
