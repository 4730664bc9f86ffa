/// The `--from` load (`StudyReader::analysis_study`) decodes its entries as
/// pool tasks: it must return what the serial per-entry reads return at
/// every pool size, inside a pool task too, and fail with the first
/// failed entry in read order. The correlation analyses over the golden
/// archive, raw and force-compressed with the page cache off, must match
/// the per-source oracle.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "../core/correlation_oracle.hpp"
#include "archive/compact.hpp"
#include "archive/page_cache.hpp"
#include "archive/reader.hpp"
#include "archive/study_archive.hpp"
#include "archive/writer.hpp"
#include "common/thread_pool.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace obscorr::archive {
namespace {

#ifndef OBSCORR_TEST_DATA_DIR
#error "OBSCORR_TEST_DATA_DIR must point at tests/data"
#endif

const std::string kGolden = std::string(OBSCORR_TEST_DATA_DIR) + "/golden_study";

/// A force-compressed copy of the golden archive, made once per process
/// and removed at exit. ctest runs each case as its own process, possibly
/// at the same time, so the directory name carries the process id: a
/// shared one would be rewritten under another process's reads.
const std::string& compacted_golden() {
  struct Copy {
    std::string dir =
        ::testing::TempDir() + "/analysis_load_compacted." + std::to_string(::getpid());
    Copy() {
      std::filesystem::remove_all(dir);
      std::filesystem::copy(kGolden, dir);
      (void)compact_archive(dir, {.compress_all = true});
    }
    ~Copy() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  };
  static const Copy copy;
  return copy.dir;
}

/// Restores the default page-cache budget when the test ends.
struct CacheBudget {
  explicit CacheBudget(std::optional<std::uint64_t> bytes) { set_cache_bytes(bytes); }
  ~CacheBudget() { set_cache_bytes(std::nullopt); }
};

void expect_same_study(const core::StudyData& got, const StudyReader& reader,
                       const std::string& what) {
  ASSERT_EQ(got.snapshots.size(), reader.snapshot_count()) << what;
  for (std::size_t k = 0; k < got.snapshots.size(); ++k) {
    const core::SnapshotData want = reader.snapshot(k, /*with_matrix=*/false);
    const core::SnapshotData& snap = got.snapshots[k];
    EXPECT_EQ(snap.spec.start_label, want.spec.start_label) << what << " snapshot " << k;
    EXPECT_EQ(snap.spec.month, want.spec.month) << what << " snapshot " << k;
    EXPECT_EQ(snap.spec.salt, want.spec.salt) << what << " snapshot " << k;
    EXPECT_EQ(snap.month_index, want.month_index) << what << " snapshot " << k;
    EXPECT_EQ(snap.valid_packets, want.valid_packets) << what << " snapshot " << k;
    EXPECT_EQ(snap.discarded_packets, want.discarded_packets) << what << " snapshot " << k;
    EXPECT_EQ(snap.duration_sec, want.duration_sec) << what << " snapshot " << k;
    EXPECT_EQ(snap.source_packets, want.source_packets) << what << " snapshot " << k;
    EXPECT_EQ(snap.sources, want.sources) << what << " snapshot " << k;
    EXPECT_EQ(snap.matrix.nnz(), 0u) << what << " snapshot " << k;
  }
  ASSERT_EQ(got.months.size(), reader.month_count()) << what;
  for (std::size_t m = 0; m < got.months.size(); ++m) {
    const honeyfarm::MonthlyObservation want = reader.month(m);
    EXPECT_EQ(got.months[m].month, want.month) << what << " month " << m;
    EXPECT_EQ(got.months[m].population_sources, want.population_sources) << what << " month " << m;
    EXPECT_EQ(got.months[m].ephemeral_sources, want.ephemeral_sources) << what << " month " << m;
    EXPECT_EQ(got.months[m].sources, want.sources) << what << " month " << m;
  }
  EXPECT_EQ(got.population, nullptr) << what;
}

TEST(ParallelLoadTest, EntriesMatchTheSerialReadsAtEveryPoolSize) {
  for (const std::optional<std::uint64_t> budget : {std::optional<std::uint64_t>{},
                                                     std::optional<std::uint64_t>{0}}) {
    const CacheBudget cache(budget);
    for (const std::string& dir : {kGolden, compacted_golden()}) {
      const StudyReader reader(dir);
      for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
        ThreadPool pool(threads);
        const std::string what = dir + ", " + std::to_string(threads) + " threads, cache " +
                                 (budget ? "off" : "on");
        expect_same_study(reader.analysis_study(pool), reader, what);
      }
    }
  }
}

TEST(ParallelLoadTest, LoadsInsideAPoolTask) {
  // The daemon's `report` loads from a pool task on its own pool: the
  // load's parallel_for runs its own unstarted chunks on the waiting
  // task and sleeps only on chunks other workers already run, so it
  // finishes on a one-worker pool too.
  const StudyReader reader(compacted_golden());
  for (const std::size_t threads : {1u, 2u}) {
    std::optional<core::StudyData> loaded;
    {
      ThreadPool pool(threads);
      pool.submit([&] { loaded = reader.analysis_study(pool); });
    }  // the destructor runs the task before it joins
    ASSERT_TRUE(loaded.has_value());
    expect_same_study(*loaded, reader, "in a task, " + std::to_string(threads) + " threads");
  }
}

TEST(ParallelLoadTest, RecordsOneStudyLoadSpanWithTheEntryCount) {
  const StudyReader reader(kGolden);
  ThreadPool pool(3);
  obs::reset();
  obs::set_level(obs::Level::kFull);
  (void)reader.analysis_study(pool);
  obs::set_level(obs::Level::kOff);
  std::vector<std::string> details;
  for (const auto& ev : obs::span_events()) {
    if (std::string_view(ev.name) == "study.load") details.push_back(ev.detail);
  }
  const std::size_t entries = 2 * reader.snapshot_count() + reader.month_count();
  EXPECT_EQ(details, std::vector<std::string>{std::to_string(entries)});
}

TEST(ParallelLoadTest, FirstFailedEntryInReadOrderIsRethrown) {
  // Two entries that pass their checksums but not their decoders: the
  // assoc array of snapshot 1 (read before every month) and month 3. At
  // any pool size the load must fail with the assoc array's message.
  const std::string dir = ::testing::TempDir() + "/analysis_load_bad_entries";
  std::filesystem::remove_all(dir);
  {
    const ArchiveReader golden(kGolden);
    ArchiveWriter writer(dir);
    writer.reset();
    for (const EntryInfo& e : golden.entries()) {
      const auto bytes = golden.payload(e.name).bytes;
      std::string payload(reinterpret_cast<const char*>(bytes.data()), bytes.size());
      if (e.name == "snapshot/1/assoc") payload = "not an assoc array";
      if (e.name == "month/3") payload.resize(3);
      writer.add_entry(e.name, payload);
    }
    writer.finalize(golden.scenario_hash());
  }
  const StudyReader reader(dir);
  std::string serial_message;
  try {
    (void)reader.snapshot(1, /*with_matrix=*/false);
    ADD_FAILURE() << "snapshot 1's assoc array decoded";
  } catch (const std::invalid_argument& e) {
    serial_message = e.what();
  }
  EXPECT_THROW((void)reader.month(3), std::invalid_argument);
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    try {
      (void)reader.analysis_study(pool);
      ADD_FAILURE() << "the load succeeded at " << threads << " threads";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), serial_message) << threads << " threads";
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(GoldenCorrelationOracleTest, RawAndCompactedMatchThePerSourceOracle) {
  const CacheBudget cache(0);
  for (const std::string& dir : {kGolden, compacted_golden()}) {
    const StudyReader reader(dir);
    for (const std::size_t threads : {1u, 4u}) {
      ThreadPool pool(threads);
      const core::StudyData study = reader.analysis_study(pool);
      for (const std::uint64_t min_sources : {0u, 20u, 100u}) {
        core::oracle::expect_matches_oracle(
            study.snapshots, study.months, study.half_log_nv(), min_sources, pool,
            dir + ", " + std::to_string(threads) + " threads, min_sources " +
                std::to_string(min_sources));
      }
    }
  }
}

}  // namespace
}  // namespace obscorr::archive
