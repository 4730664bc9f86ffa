/// The database over views of archived months answers as the D4M fold
/// over the materialized months does, for every source of the golden
/// archive: raw, where the views read the reader's mapping, and force-
/// compacted with the page cache off, where the views alone own the
/// decoded pages.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "archive/compact.hpp"
#include "archive/page_cache.hpp"
#include "archive/study_archive.hpp"
#include "fold_oracle.hpp"
#include "honeyfarm/database.hpp"

#ifndef OBSCORR_TEST_DATA_DIR
#error "OBSCORR_TEST_DATA_DIR must point at tests/data"
#endif

namespace obscorr::honeyfarm {
namespace {

const std::string kGolden = OBSCORR_TEST_DATA_DIR "/golden_study";

std::unique_ptr<Database> database_of(const archive::StudyReader& reader) {
  return std::make_unique<Database>(reader.month_count(),
                                    [&reader](std::size_t m) { return reader.month_view(m); });
}

/// Absent keys: a documentation address, a proper prefix of a real key,
/// and the empty key.
std::vector<std::string> probes(const std::vector<MonthlyObservation>& months) {
  const std::string& real = months.front().sources.row_keys().front();
  return {"203.0.113.7", real.substr(0, real.size() - 1), ""};
}

TEST(DatabaseArchiveTest, RawGoldenStudyMatchesFoldOracle) {
  const archive::StudyReader reader(kGolden);
  const std::vector<MonthlyObservation> months = reader.months();
  ASSERT_EQ(months.size(), 15u);
  const auto db = database_of(reader);
  expect_matches_oracle(*db, months, probes(months));
}

TEST(DatabaseArchiveTest, CompactedGoldenStudyMatchesFoldOracle) {
  const std::string dir =
      ::testing::TempDir() + "/database_compacted." + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::copy(kGolden, dir);
  archive::CompactOptions opts;
  opts.compress_all = true;
  archive::compact_archive(dir, opts);
  archive::set_cache_bytes(0);

  std::vector<MonthlyObservation> months;
  std::unique_ptr<Database> db;
  {
    const archive::StudyReader reader(dir);
    const archive::ArchiveReader entries(dir);
    for (std::size_t m = 0; m < reader.month_count(); ++m) {
      const std::string name = "month/" + std::to_string(m);
      for (const archive::EntryInfo& e : entries.entries()) {
        if (e.name == name) {
          ASSERT_NE(e.flags & archive::kEntryFlagCompressed, 0u) << name;
        }
      }
    }
    months = reader.months();
    db = database_of(reader);
  }
  // The reader is gone and the cache kept nothing: the views' pages are
  // all that is left of the months.
  expect_matches_oracle(*db, months, probes(months));
  archive::set_cache_bytes(std::nullopt);
  db.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace obscorr::honeyfarm
