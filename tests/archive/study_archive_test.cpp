/// Study-archive level: scenario codec canonicality, archive/read
/// differential fidelity against an in-memory run_study, resume after a
/// simulated crash, and the StudyReader zero-copy query surface.

#include "archive/study_archive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <stdexcept>
#include <utility>
#include <string>
#include <vector>

#include "archive/reader.hpp"
#include "archive/writer.hpp"
#include "common/thread_pool.hpp"
#include "core/study.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace obscorr::archive {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

/// Small, fast campaign: full Table I shape at a 2^10-packet window.
netgen::Scenario small_scenario(std::uint64_t seed = 7) {
  return netgen::Scenario::paper(/*log2_nv=*/10, seed);
}

std::string assoc_bytes(const d4m::AssocArray& a) {
  std::string out;
  a.write_binary(out);
  return out;
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// Both files of two archive directories are byte-identical.
void expect_same_files(const std::string& got, const std::string& want) {
  for (const char* file : {kEntryLogName, kManifestName}) {
    EXPECT_TRUE(file_bytes(got + "/" + file) == file_bytes(want + "/" + file)) << file;
  }
}

/// What a run killed while appending `entry` leaves: no manifest, and a
/// log that ends halfway through that entry's payload.
void tear_log_at(const std::string& dir, const std::string& entry) {
  std::uint64_t tear = 0;
  {
    const ArchiveReader reader(dir);
    for (const EntryInfo& e : reader.entries()) {
      if (e.name == entry) tear = e.offset + e.size / 2;
    }
  }
  ASSERT_GT(tear, 0u) << entry;
  fs::remove(dir + "/" + kManifestName);
  fs::resize_file(dir + "/" + kEntryLogName, tear);
}

void expect_same_study(const core::StudyData& got, const core::StudyData& want) {
  EXPECT_EQ(encode_scenario(got.scenario), encode_scenario(want.scenario));
  ASSERT_EQ(got.snapshots.size(), want.snapshots.size());
  for (std::size_t k = 0; k < want.snapshots.size(); ++k) {
    const core::SnapshotData& g = got.snapshots[k];
    const core::SnapshotData& w = want.snapshots[k];
    EXPECT_EQ(g.spec.start_label, w.spec.start_label) << "snapshot " << k;
    EXPECT_EQ(g.spec.salt, w.spec.salt);
    EXPECT_EQ(g.month_index, w.month_index);
    EXPECT_EQ(g.valid_packets, w.valid_packets);
    EXPECT_EQ(g.discarded_packets, w.discarded_packets);
    EXPECT_EQ(g.duration_sec, w.duration_sec);
    EXPECT_TRUE(g.matrix == w.matrix) << "snapshot " << k << " matrix differs";
    EXPECT_TRUE(g.source_packets == w.source_packets);
    EXPECT_TRUE(g.sources == w.sources);
  }
  ASSERT_EQ(got.months.size(), want.months.size());
  for (std::size_t m = 0; m < want.months.size(); ++m) {
    EXPECT_EQ(got.months[m].month.index(), want.months[m].month.index());
    EXPECT_EQ(got.months[m].population_sources, want.months[m].population_sources);
    EXPECT_EQ(got.months[m].ephemeral_sources, want.months[m].ephemeral_sources);
    EXPECT_TRUE(got.months[m].sources == want.months[m].sources) << "month " << m;
  }
}

TEST(StudyArchiveTest, ScenarioCodecRoundTrips) {
  const netgen::Scenario s = small_scenario();
  const std::string bytes = encode_scenario(s);
  const netgen::Scenario back =
      decode_scenario(std::as_bytes(std::span<const char>(bytes.data(), bytes.size())));
  // The encoding is canonical, so re-encoding the decoded scenario must
  // reproduce the exact bytes.
  EXPECT_EQ(encode_scenario(back), bytes);
  EXPECT_EQ(back.population.log2_nv, s.population.log2_nv);
  EXPECT_EQ(back.population.seed, s.population.seed);
  EXPECT_EQ(back.months.size(), s.months.size());
  EXPECT_EQ(back.snapshots.size(), s.snapshots.size());
  EXPECT_EQ(back.snapshots[0].start_label, s.snapshots[0].start_label);
}

TEST(StudyArchiveTest, FingerprintSeparatesScenarios) {
  const std::uint64_t base = scenario_fingerprint(small_scenario(7));
  EXPECT_EQ(scenario_fingerprint(small_scenario(7)), base);
  EXPECT_NE(scenario_fingerprint(small_scenario(8)), base);
  netgen::Scenario tweaked = small_scenario(7);
  tweaked.months[3].coverage *= 1.5;
  EXPECT_NE(scenario_fingerprint(tweaked), base);
}

TEST(StudyArchiveTest, DecodeRejectsGarbage) {
  const std::string bytes = "definitely not a scenario payload";
  EXPECT_THROW(
      decode_scenario(std::as_bytes(std::span<const char>(bytes.data(), bytes.size()))),
      std::invalid_argument);
}

/// The headline fidelity criterion: archive_study + read_study must be
/// bit-identical to run_study for the same scenario.
TEST(StudyArchiveTest, ArchivedStudyIsBitIdenticalToInMemoryRun) {
  const netgen::Scenario s = small_scenario();
  ThreadPool pool(2);
  const core::StudyData direct = core::run_study(s, pool);

  const std::string dir = temp_dir("sarch_fidelity");
  const ArchiveStats stats = archive_study(s, dir, pool);
  EXPECT_FALSE(stats.already_complete);
  EXPECT_EQ(stats.snapshots_total, s.snapshots.size());
  EXPECT_EQ(stats.months_total, s.months.size());
  EXPECT_EQ(stats.snapshots_reused, 0u);
  EXPECT_EQ(stats.months_reused, 0u);

  expect_same_study(read_study(dir), direct);
}

TEST(StudyArchiveTest, WriteStudyRoundTrips) {
  const netgen::Scenario s = small_scenario(11);
  ThreadPool pool(2);
  const core::StudyData direct = core::run_study(s, pool);
  const std::string dir = temp_dir("sarch_write");
  write_study(direct, dir);
  expect_same_study(read_study(dir), direct);
}

TEST(StudyArchiveTest, RerunOnCompleteArchiveIsNoop) {
  const netgen::Scenario s = small_scenario();
  ThreadPool pool(2);
  const std::string dir = temp_dir("sarch_noop");
  archive_study(s, dir, pool);
  const ArchiveStats again = archive_study(s, dir, pool);
  EXPECT_TRUE(again.already_complete);
  EXPECT_EQ(again.snapshots_reused, s.snapshots.size());
  EXPECT_EQ(again.months_reused, s.months.size());
}

TEST(StudyArchiveTest, EveryMonthBuiltIsSpanned) {
  // `--timing` and `--trace-out` see the honeyfarm months `archive`
  // builds, one `study.month` span each, and none for reused months.
  const netgen::Scenario s = small_scenario();
  ThreadPool pool(2);
  const std::string dir = temp_dir("sarch_month_spans");
  const auto month_spans = [&] {
    obs::reset();
    obs::set_level(obs::Level::kFull);
    archive_study(s, dir, pool);
    obs::set_level(obs::Level::kOff);
    std::vector<std::string> details;
    for (const obs::SpanEvent& e : obs::span_events()) {
      if (std::string(e.name) == "study.month") details.push_back(e.detail);
    }
    std::sort(details.begin(), details.end());
    return details;
  };
  std::vector<std::string> want;
  for (std::size_t m = 0; m < s.months.size(); ++m) want.push_back(std::to_string(m));
  std::sort(want.begin(), want.end());
  EXPECT_EQ(month_spans(), want);
  EXPECT_TRUE(month_spans().empty());
  obs::reset();
}

TEST(StudyArchiveTest, CompletedArchiveOfOtherScenarioIsRefused) {
  ThreadPool pool(2);
  const std::string dir = temp_dir("sarch_mismatch");
  archive_study(small_scenario(7), dir, pool);
  EXPECT_THROW(archive_study(small_scenario(8), dir, pool), std::invalid_argument);
}

/// Kill-and-resume: truncate the entry log mid-campaign, rerun, and the
/// final archive must be byte-identical in content to an uninterrupted
/// one while reusing the surviving snapshots/months.
TEST(StudyArchiveTest, ResumeAfterTornLogReusesFinishedWork) {
  const netgen::Scenario s = small_scenario();
  ThreadPool pool(2);
  const std::string clean_dir = temp_dir("sarch_clean");
  archive_study(s, clean_dir, pool);

  const std::string crash_dir = temp_dir("sarch_crash");
  archive_study(s, crash_dir, pool);
  // Simulate the crash: drop the manifest, tear the log at 60%.
  fs::remove(crash_dir + "/" + kManifestName);
  const std::string log = crash_dir + "/" + kEntryLogName;
  fs::resize_file(log, fs::file_size(log) * 6 / 10);

  const ArchiveStats resumed = archive_study(s, crash_dir, pool);
  EXPECT_FALSE(resumed.already_complete);
  EXPECT_GT(resumed.snapshots_reused + resumed.months_reused, 0u)
      << "resume should keep the surviving prefix";
  EXPECT_LT(resumed.snapshots_reused + resumed.months_reused,
            resumed.snapshots_total + resumed.months_total)
      << "the tear should have cost some work";

  expect_same_study(read_study(crash_dir), read_study(clean_dir));
}

TEST(StudyArchiveTest, TornMonthResumedOnFourThreadsMatchesSerialRun) {
  // Months are built as pool tasks but appended in index order, so a
  // resume at any thread count writes the serial run's bytes.
  const netgen::Scenario s = small_scenario();
  ThreadPool serial(1);
  const std::string clean_dir = temp_dir("sarch_month_clean");
  archive_study(s, clean_dir, serial);

  const std::string torn_dir = temp_dir("sarch_month_torn");
  fs::copy(clean_dir, torn_dir);
  tear_log_at(torn_dir, "month/7");

  ThreadPool pool(4);
  const ArchiveStats resumed = archive_study(s, torn_dir, pool);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.snapshots_reused, s.snapshots.size());
  EXPECT_EQ(resumed.months_reused, 7u);
  expect_same_files(torn_dir, clean_dir);
}

TEST(StudyArchiveTest, FailedMonthReachesCallerAfterEarlierMonthsAreAppended) {
  // Month 9 cannot be built (zero coverage). The failure surfaces once
  // the outstanding tasks finish; months 0-8 are already in the log, and
  // nothing after them is.
  netgen::Scenario s = small_scenario();
  s.months[9].coverage = 0.0;
  ThreadPool pool(4);
  const std::string dir = temp_dir("sarch_month_failure");
  EXPECT_THROW(archive_study(s, dir, pool), std::invalid_argument);
  EXPECT_FALSE(fs::exists(dir + "/" + kManifestName));
  const ArchiveWriter w(dir);
  for (std::size_t m = 0; m < s.months.size(); ++m) {
    EXPECT_EQ(w.has_entry("month/" + std::to_string(m)), m < 9) << "month " << m;
  }
}

TEST(StudyArchiveTest, IncompatibleIncompleteArchiveIsRestarted) {
  ThreadPool pool(2);
  const std::string dir = temp_dir("sarch_restart");
  archive_study(small_scenario(7), dir, pool);
  fs::remove(dir + "/" + kManifestName);  // now incomplete...
  // ...and a different scenario arrives: the stale log must be discarded.
  const ArchiveStats stats = archive_study(small_scenario(8), dir, pool);
  EXPECT_EQ(stats.snapshots_reused, 0u);
  EXPECT_EQ(stats.months_reused, 0u);
  const StudyReader reader(dir);
  EXPECT_EQ(reader.scenario().population.seed, 8u);
}

TEST(StudyArchiveTest, StudyReaderServesZeroCopyViewsMatchingMaterialized) {
  const netgen::Scenario s = small_scenario();
  ThreadPool pool(2);
  const std::string dir = temp_dir("sarch_reader");
  archive_study(s, dir, pool);

  const StudyReader reader(dir);
  EXPECT_EQ(reader.snapshot_count(), s.snapshots.size());
  EXPECT_EQ(reader.month_count(), s.months.size());
  EXPECT_EQ(reader.half_log_nv(), 5.0);
  EXPECT_EQ(reader.scenario_hash(), scenario_fingerprint(s));

  const core::StudyData direct = core::run_study(s, pool);
  for (std::size_t k = 0; k < reader.snapshot_count(); ++k) {
    const gbl::MatrixView view = reader.matrix(k);
    const gbl::DcsrMatrix& want = direct.snapshots[k].matrix;
    EXPECT_EQ(view.nnz(), want.nnz());
    EXPECT_EQ(view.reduce_sum(), want.reduce_sum());
    EXPECT_TRUE(view.reduce_rows() == want.reduce_rows()) << "snapshot " << k;
    EXPECT_TRUE(view.materialize() == want);
    // The span accessors are the SparseVec, without the copy.
    const gbl::SparseVec& sp = direct.snapshots[k].source_packets;
    const auto src = reader.sources(k);
    const auto ids = src.ids;
    const auto counts = src.counts;
    ASSERT_EQ(ids.size(), sp.indices().size());
    EXPECT_TRUE(std::equal(ids.begin(), ids.end(), sp.indices().begin()));
    EXPECT_TRUE(std::equal(counts.begin(), counts.end(), sp.values().begin()));
    EXPECT_TRUE(reader.source_packets(k) == sp);
    EXPECT_EQ(assoc_bytes(reader.snapshot(k).sources),
              assoc_bytes(direct.snapshots[k].sources));
  }
  for (std::size_t m = 0; m < reader.month_count(); ++m) {
    EXPECT_EQ(reader.month(m).total_sources(), direct.months[m].total_sources());
  }
}

TEST(StudyArchiveTest, StudyReaderRefusesIncompleteCatalog) {
  const netgen::Scenario s = small_scenario();
  ThreadPool pool(2);
  const std::string dir = temp_dir("sarch_partial");
  archive_study(s, dir, pool);
  // Rebuild the archive minus one required entry, manifest included —
  // every checksum is valid, only the catalog is short.
  ArchiveWriter w(dir);
  std::vector<std::pair<std::string, std::vector<std::byte>>> kept;
  for (const EntryInfo& e : w.entries()) {
    if (e.name == "snapshot/2/matrix") continue;
    kept.emplace_back(e.name, w.read_entry(e.name));
  }
  w.reset();
  for (const auto& [name, payload] : kept) {
    w.add_entry(name, std::string_view(reinterpret_cast<const char*>(payload.data()),
                                       payload.size()));
  }
  w.finalize(scenario_fingerprint(s));
  EXPECT_THROW(StudyReader reader(dir), std::invalid_argument);
}

}  // namespace
}  // namespace obscorr::archive
