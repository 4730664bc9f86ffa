#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "archive/study_archive.hpp"
#include "core/study.hpp"
#include "netgen/scenario.hpp"
#include "obs/telemetry.hpp"

namespace obscorr::archive {
namespace {

/// Differential test against a committed golden archive, written by the
/// pre-parallelism serial pipeline (log2_nv = 12, seed = 42). Replaying
/// the campaign on a multi-thread pool must reproduce that archive byte
/// for byte: this is the regression tripwire for the parallel execution
/// model — any scheduling dependence, RNG-stream drift, or merge-order
/// effect shows up here as a diff against history, not just against
/// another run of the same binary.
#ifndef OBSCORR_TEST_DATA_DIR
#error "OBSCORR_TEST_DATA_DIR must point at tests/data"
#endif

TEST(GoldenStudyTest, ParallelRunReproducesArchivedSerialCampaign) {
  const std::string dir = std::string(OBSCORR_TEST_DATA_DIR) + "/golden_study";
  const core::StudyData golden = read_study(dir);
  EXPECT_EQ(golden.scenario.population.log2_nv, 12u);
  EXPECT_EQ(golden.scenario.population.seed, 42u);

  ThreadPool pool(5);
  const core::StudyData fresh = core::run_study(golden.scenario, pool);

  ASSERT_EQ(fresh.snapshots.size(), golden.snapshots.size());
  for (std::size_t i = 0; i < fresh.snapshots.size(); ++i) {
    EXPECT_EQ(fresh.snapshots[i].matrix, golden.snapshots[i].matrix) << "snapshot " << i;
    EXPECT_EQ(fresh.snapshots[i].source_packets, golden.snapshots[i].source_packets) << i;
    EXPECT_EQ(fresh.snapshots[i].sources, golden.snapshots[i].sources) << i;
    EXPECT_EQ(fresh.snapshots[i].valid_packets, golden.snapshots[i].valid_packets) << i;
    EXPECT_EQ(fresh.snapshots[i].discarded_packets, golden.snapshots[i].discarded_packets) << i;
    EXPECT_EQ(fresh.snapshots[i].month_index, golden.snapshots[i].month_index) << i;
  }
  ASSERT_EQ(fresh.months.size(), golden.months.size());
  for (std::size_t m = 0; m < fresh.months.size(); ++m) {
    EXPECT_EQ(fresh.months[m].month, golden.months[m].month) << m;
    EXPECT_EQ(fresh.months[m].sources, golden.months[m].sources) << m;
    EXPECT_EQ(fresh.months[m].population_sources, golden.months[m].population_sources) << m;
    EXPECT_EQ(fresh.months[m].ephemeral_sources, golden.months[m].ephemeral_sources) << m;
  }
}

TEST(GoldenStudyTest, TelemetryEnabledRunReproducesArchivedCampaign) {
  // Full tracing on, against history: telemetry must not move a single
  // byte of the pipeline's output relative to the committed archive.
  const std::string dir = std::string(OBSCORR_TEST_DATA_DIR) + "/golden_study";
  const core::StudyData golden = read_study(dir);

  obs::reset();
  obs::set_level(obs::Level::kFull);
  ThreadPool pool(3);
  const core::StudyData fresh = core::run_study(golden.scenario, pool);
  obs::set_level(obs::Level::kOff);
  obs::reset();

  ASSERT_EQ(fresh.snapshots.size(), golden.snapshots.size());
  for (std::size_t i = 0; i < fresh.snapshots.size(); ++i) {
    EXPECT_EQ(fresh.snapshots[i].matrix, golden.snapshots[i].matrix) << "snapshot " << i;
    EXPECT_EQ(fresh.snapshots[i].sources, golden.snapshots[i].sources) << i;
    EXPECT_EQ(fresh.snapshots[i].discarded_packets, golden.snapshots[i].discarded_packets) << i;
  }
  ASSERT_EQ(fresh.months.size(), golden.months.size());
  for (std::size_t m = 0; m < fresh.months.size(); ++m) {
    EXPECT_EQ(fresh.months[m].sources, golden.months[m].sources) << m;
  }
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

TEST(GoldenStudyTest, ArchiveStudyRewritesGoldenFilesAtEveryThreadCount) {
  // `archive_study` builds the months as pool tasks and appends them in
  // index order: at every pool size it writes the committed log and
  // manifest byte for byte.
  const std::string golden = std::string(OBSCORR_TEST_DATA_DIR) + "/golden_study";
  const netgen::Scenario scenario = StudyReader(golden).scenario();
  for (const std::size_t threads : {1u, 2u, 5u}) {
    const std::string dir = ::testing::TempDir() + "/golden_rewrite_" + std::to_string(threads);
    std::filesystem::remove_all(dir);
    ThreadPool pool(threads);
    const ArchiveStats stats = archive_study(scenario, dir, pool);
    EXPECT_FALSE(stats.interrupted);
    for (const char* file : {kEntryLogName, kManifestName}) {
      EXPECT_TRUE(file_bytes(dir + "/" + file) == file_bytes(golden + "/" + file))
          << file << " differs at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace obscorr::archive
