/// aggregate_quantities over a MatrixView against the composition it
/// replaced, kept here as the reference: the four per-entity reductions
/// and their maxima, the column pair built by a sort of (column, value)
/// pairs that shares no code with the column fold. Every field must agree
/// bit for bit — on hand-made edge cases, on a random matrix large enough
/// for a multi-pass radix sort, on every snapshot of the golden archive
/// (raw and force-compacted), and on captured live windows.

#include "gbl/quantities.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "archive/compact.hpp"
#include "archive/live_archive.hpp"
#include "archive/study_archive.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "core/parallel_capture.hpp"
#include "core/study.hpp"
#include "netgen/population.hpp"
#include "netgen/traffic.hpp"
#include "telescope/telescope.hpp"

namespace obscorr::gbl {
namespace {

/// 1ᵀ·A and 1ᵀ·|A|₀ by a stable sort of (column, value) pairs, each
/// column folded left to right from its first value.
std::pair<SparseVec, SparseVec> reference_columns(const DcsrMatrix& m) {
  std::vector<std::pair<Index, Value>> pairs;
  m.for_each([&](Index, Index c, Value v) { pairs.emplace_back(c, v); });
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Index> idx;
  std::vector<Value> sums, counts;
  for (const auto& [c, v] : pairs) {
    if (idx.empty() || idx.back() != c) {
      idx.push_back(c);
      sums.push_back(v);
      counts.push_back(1.0);
    } else {
      sums.back() += v;
      counts.back() += 1.0;
    }
  }
  return {SparseVec(idx, std::move(sums)), SparseVec(idx, std::move(counts))};
}

/// The Table II aggregates as the maxima of the four reductions.
AggregateQuantities reference(const DcsrMatrix& m) {
  const SparseVec src_packets = m.reduce_rows();
  const SparseVec src_fanout = m.reduce_rows_pattern();
  const auto [dst_packets, dst_fanin] = reference_columns(m);
  AggregateQuantities q;
  q.valid_packets = m.reduce_sum();
  q.unique_links = m.nnz();
  q.max_link_packets = m.reduce_max();
  q.unique_sources = src_packets.nnz();
  q.max_source_packets = src_packets.reduce_max();
  q.max_source_fanout = src_fanout.reduce_max();
  q.unique_destinations = dst_packets.nnz();
  q.max_destination_packets = dst_packets.reduce_max();
  q.max_destination_fanin = dst_fanin.reduce_max();
  return q;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_identical(const AggregateQuantities& got, const AggregateQuantities& want,
                      const std::string& what) {
  EXPECT_EQ(bits(got.valid_packets), bits(want.valid_packets)) << what;
  EXPECT_EQ(got.unique_links, want.unique_links) << what;
  EXPECT_EQ(bits(got.max_link_packets), bits(want.max_link_packets)) << what;
  EXPECT_EQ(got.unique_sources, want.unique_sources) << what;
  EXPECT_EQ(bits(got.max_source_packets), bits(want.max_source_packets)) << what;
  EXPECT_EQ(bits(got.max_source_fanout), bits(want.max_source_fanout)) << what;
  EXPECT_EQ(got.unique_destinations, want.unique_destinations) << what;
  EXPECT_EQ(bits(got.max_destination_packets), bits(want.max_destination_packets)) << what;
  EXPECT_EQ(bits(got.max_destination_fanin), bits(want.max_destination_fanin)) << what;
}

void expect_same_vec(const SparseVec& got, const SparseVec& want, const std::string& what) {
  ASSERT_EQ(got.nnz(), want.nnz()) << what;
  EXPECT_TRUE(std::ranges::equal(got.indices(), want.indices())) << what;
  for (std::size_t i = 0; i < got.nnz(); ++i) {
    ASSERT_EQ(bits(got.values()[i]), bits(want.values()[i])) << what << " entry " << i;
  }
}

/// The view kernel, the DcsrMatrix overload and the column reductions of
/// `m` against the reference.
void expect_matches_reference(const DcsrMatrix& m, const std::string& what) {
  const AggregateQuantities want = reference(m);
  expect_identical(aggregate_quantities(MatrixView::over(m)), want, what + " (view)");
  expect_identical(aggregate_quantities(m), want, what + " (matrix)");
  const auto [dst_packets, dst_fanin] = reference_columns(m);
  expect_same_vec(m.reduce_cols(), dst_packets, what + " reduce_cols");
  expect_same_vec(m.reduce_cols_pattern(), dst_fanin, what + " reduce_cols_pattern");
}

TEST(QuantitiesViewTest, Fig2ExampleMatchesReference) {
  expect_matches_reference(
      DcsrMatrix::from_tuples({{1, 10, 3.0}, {1, 11, 1.0}, {2, 10, 2.0}, {3, 12, 1.0}}), "fig2");
}

TEST(QuantitiesViewTest, DegenerateShapesMatchReference) {
  expect_matches_reference(DcsrMatrix{}, "empty");
  expect_identical(aggregate_quantities(MatrixView{}), reference(DcsrMatrix{}), "empty view");
  expect_matches_reference(
      DcsrMatrix::from_tuples({{9, 4, 2.0}, {9, 70, 5.0}, {9, 71, 1.0}, {9, 900, 3.0}}),
      "one row");
  expect_matches_reference(
      DcsrMatrix::from_tuples({{1, 7, 2.0}, {40, 7, 6.0}, {41, 7, 1.0}, {5000, 7, 3.0}}),
      "one column");
  expect_matches_reference(DcsrMatrix::from_tuples({{3, 3, 1.0}}), "one entry");
}

TEST(QuantitiesViewTest, NegativeCountsMatchReference) {
  // Every row and column sums below zero somewhere, so the maxima keep
  // their 0.0 floor; another column sums to exactly zero.
  expect_matches_reference(DcsrMatrix::from_tuples({{1, 1, -3.0},
                                                    {1, 2, -1.0},
                                                    {2, 1, -2.0},
                                                    {2, 3, 4.0},
                                                    {3, 3, -4.0},
                                                    {3, 5, -7.0}}),
                           "negative counts");
  expect_matches_reference(DcsrMatrix::from_tuples({{1, 1, -3.0}, {2, 2, -1.0}}),
                           "all negative");
}

TEST(QuantitiesViewTest, ExtremeIndicesMatchReference) {
  constexpr Index kMax = 0xFFFFFFFFu;
  expect_matches_reference(DcsrMatrix::from_tuples({{0, 0, 1.0},
                                                    {0, kMax, 2.0},
                                                    {kMax, 0, 3.0},
                                                    {kMax, kMax, 4.0},
                                                    {7, kMax, 5.0},
                                                    {8, 0, 6.0}}),
                           "columns 0 and 2^32-1");
}

TEST(QuantitiesViewTest, LargeRandomMatrixMatchesReference) {
  // Past 2^17 entries the packed positions span more than one radix
  // digit, so the sort runs several passes. Half the columns share a
  // narrow range (long runs to fold), half spread over all 32 bits.
  Rng rng(0x7AB1E2);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 300000; ++i) {
    const Index row = static_cast<Index>(rng.uniform_u64(1u << 20));
    const Index col = (i % 2 == 0) ? static_cast<Index>(rng.uniform_u64(4096)) : rng.next_u32();
    tuples.push_back({row, col, static_cast<Value>(1 + rng.uniform_u64(1000))});
  }
  const DcsrMatrix m = DcsrMatrix::from_tuples(std::move(tuples));
  ASSERT_GT(m.nnz(), std::size_t{1} << 17);
  expect_matches_reference(m, "random");
}

/// Every snapshot's stored view against the reference over its
/// materialized copy, and every live window's when the archive has some.
void expect_archive_matches(const std::string& dir, const std::string& what) {
  const archive::StudyReader reader(dir);
  for (std::size_t k = 0; k < reader.snapshot_count(); ++k) {
    const MatrixView view = reader.matrix(k);
    expect_identical(aggregate_quantities(view), reference(view.materialize()),
                     what + " snapshot " + std::to_string(k));
  }
  for (std::size_t w = 0; w < reader.window_count(); ++w) {
    const MatrixView view = reader.window_matrix(w);
    expect_identical(aggregate_quantities(view), reference(view.materialize()),
                     what + " window " + std::to_string(w));
  }
}

std::string golden_copy(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "/" + name + "." + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::copy(OBSCORR_TEST_DATA_DIR "/golden_study", dir);
  return dir;
}

void force_compact(const std::string& dir) {
  archive::CompactOptions opts;
  opts.keep_recent = 0;
  opts.compress_all = true;
  archive::compact_archive(dir, opts);
}

TEST(QuantitiesViewTest, GoldenSnapshotsMatchReferenceRawAndCompacted) {
  expect_archive_matches(OBSCORR_TEST_DATA_DIR "/golden_study", "raw");
  const std::string compacted = golden_copy("quantities_golden_compacted");
  force_compact(compacted);
  expect_archive_matches(compacted, "compacted");
  std::filesystem::remove_all(compacted);
}

TEST(QuantitiesViewTest, LiveWindowsMatchReferenceRawAndCompacted) {
  // Live windows as the daemon captures them: the scenario's telescope,
  // one month per window, and a budget past one generation shard for one.
  const std::string dir = golden_copy("quantities_live_windows");
  {
    ThreadPool pool(2);
    const netgen::Scenario scenario = archive::StudyReader(dir).scenario();
    const netgen::Population population(scenario.population);
    const netgen::TrafficGenerator generator(population, scenario.traffic);
    telescope::Telescope scope(core::scope_config_for(scenario), pool);
    archive::LiveArchive live(dir);
    for (std::size_t w = 0; w < 4; ++w) {
      archive::LiveWindowMeta meta;
      meta.window = w;
      meta.month_index = static_cast<std::int32_t>(w);
      meta.salt = 0x11E50000ull + w;
      meta.valid_packets = w == 3 ? 100000 : 8192;
      const DcsrMatrix m = core::capture_window(scope, generator, meta.month_index,
                                                meta.valid_packets, meta.salt, pool);
      live.append_window(meta, m, m.reduce_rows());
    }
  }
  ASSERT_EQ(archive::StudyReader(dir).window_count(), 4u);
  expect_archive_matches(dir, "live raw");
  force_compact(dir);
  expect_archive_matches(dir, "live compacted");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace obscorr::gbl
