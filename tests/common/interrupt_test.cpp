/// Cooperative-stop flag and its archive integration: an interrupted
/// `archive_study` flushes every completed entry, reports
/// `stats.interrupted`, commits no manifest — and a rerun resumes to a
/// completed archive byte-identical in content to an uninterrupted run.

#include "common/interrupt.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "archive/reader.hpp"
#include "archive/study_archive.hpp"
#include "common/thread_pool.hpp"
#include "gbl/sparse_vec.hpp"
#include "netgen/scenario.hpp"

namespace obscorr {
namespace {

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

class InterruptTest : public ::testing::Test {
 protected:
  // The flag is process-wide; leave it clean on both sides.
  void SetUp() override { interrupt::reset(); }
  void TearDown() override { interrupt::reset(); }
};

TEST_F(InterruptTest, FlagLifecycle) {
  EXPECT_FALSE(interrupt::stop_requested());
  interrupt::request_stop();
  EXPECT_TRUE(interrupt::stop_requested());
  interrupt::request_stop();  // second request is the same stop
  EXPECT_TRUE(interrupt::stop_requested());
  interrupt::reset();
  EXPECT_FALSE(interrupt::stop_requested());
  EXPECT_TRUE(interrupt::install_handlers());
  EXPECT_TRUE(interrupt::install_handlers());  // idempotent
}

TEST_F(InterruptTest, InterruptedArchiveFlushesAndResumesByteIdentically) {
  const std::string dir = ::testing::TempDir() + "/interrupt_archive";
  const std::string ref_dir = ::testing::TempDir() + "/interrupt_archive_ref";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(ref_dir);

  const netgen::Scenario scenario = netgen::Scenario::paper(/*log2_nv=*/10, /*seed=*/11);
  ThreadPool pool(2);

  // Stop requested before the run starts: the checkpoint before the
  // first missing entry fires immediately — nothing generated, no
  // manifest, interrupted reported.
  interrupt::request_stop();
  const archive::ArchiveStats stopped = archive::archive_study(scenario, dir, pool);
  EXPECT_TRUE(stopped.interrupted);
  EXPECT_FALSE(stopped.already_complete);
  EXPECT_THROW(archive::StudyReader{dir}, std::exception);  // incomplete: unreadable

  // Rerun with the flag cleared: resumes (trivially, here) and completes.
  interrupt::reset();
  const archive::ArchiveStats resumed = archive::archive_study(scenario, dir, pool);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.snapshots_total, scenario.snapshots.size());

  // Content equals an uninterrupted run's.
  const archive::ArchiveStats fresh = archive::archive_study(scenario, ref_dir, pool);
  EXPECT_FALSE(fresh.interrupted);
  const archive::StudyReader a(dir), b(ref_dir);
  ASSERT_EQ(a.snapshot_count(), b.snapshot_count());
  for (std::size_t k = 0; k < a.snapshot_count(); ++k) {
    EXPECT_TRUE(a.source_packets(k) == b.source_packets(k)) << k;
  }
  EXPECT_EQ(a.scenario_hash(), b.scenario_hash());
}

TEST_F(InterruptTest, StoppedResumeOfTornMonthLogAppendsNothing) {
  namespace fs = std::filesystem;
  const std::string clean = ::testing::TempDir() + "/interrupt_torn_clean";
  const std::string dir = ::testing::TempDir() + "/interrupt_torn";
  fs::remove_all(clean);
  fs::remove_all(dir);
  const netgen::Scenario scenario = netgen::Scenario::paper(/*log2_nv=*/10, /*seed=*/11);
  ThreadPool serial(1);
  ASSERT_FALSE(archive::archive_study(scenario, clean, serial).interrupted);

  // Kill the run halfway through month 7's frame; month 6's frame ends
  // where month 7's begins (frames are 8-byte aligned).
  std::uint64_t tear = 0;
  std::uint64_t prefix = 0;
  const archive::ArchiveReader reader(clean);
  for (const archive::EntryInfo& e : reader.entries()) {
    if (e.name == "month/6") prefix = (e.offset + e.size + 7) / 8 * 8;
    if (e.name == "month/7") tear = e.offset + e.size / 2;
  }
  ASSERT_GT(prefix, 0u);
  ASSERT_GT(tear, prefix);
  fs::copy(clean, dir);
  fs::remove(dir + "/" + archive::kManifestName);
  fs::resize_file(dir + "/" + archive::kEntryLogName, tear);

  // A stop already requested: the torn tail is dropped, no month task
  // starts, nothing is appended and no manifest is committed.
  interrupt::request_stop();
  ThreadPool pool(4);
  const archive::ArchiveStats stopped = archive::archive_study(scenario, dir, pool);
  EXPECT_TRUE(stopped.interrupted);
  EXPECT_EQ(stopped.snapshots_reused, scenario.snapshots.size());
  EXPECT_EQ(stopped.months_reused, 7u);
  EXPECT_FALSE(fs::exists(dir + "/" + archive::kManifestName));
  const std::string clean_log = file_bytes(clean + "/" + archive::kEntryLogName);
  EXPECT_TRUE(file_bytes(dir + "/" + archive::kEntryLogName) == clean_log.substr(0, prefix));

  // The flag cleared, the same command completes the uninterrupted bytes.
  interrupt::reset();
  const archive::ArchiveStats resumed = archive::archive_study(scenario, dir, pool);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.months_reused, 7u);
  for (const char* file : {archive::kEntryLogName, archive::kManifestName}) {
    EXPECT_TRUE(file_bytes(dir + "/" + file) == file_bytes(clean + "/" + file)) << file;
  }
}

TEST_F(InterruptTest, CompletedArchiveIgnoresStaleStopFlag) {
  // `already_complete` short-circuits before any checkpoint: a stale
  // flag must not make a no-op run claim interruption.
  const std::string dir = ::testing::TempDir() + "/interrupt_complete";
  std::filesystem::remove_all(dir);
  const netgen::Scenario scenario = netgen::Scenario::paper(/*log2_nv=*/10, /*seed=*/13);
  ThreadPool pool(2);
  ASSERT_FALSE(archive::archive_study(scenario, dir, pool).interrupted);

  interrupt::request_stop();
  const archive::ArchiveStats again = archive::archive_study(scenario, dir, pool);
  EXPECT_TRUE(again.already_complete);
  EXPECT_FALSE(again.interrupted);
}

}  // namespace
}  // namespace obscorr
