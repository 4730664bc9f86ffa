/// Tiered retention: `compact_archive` rewrites old windows compressed
/// behind an atomic generation bump. The guarantees under test — reads
/// stay byte-identical on raw, compressed, and mixed archives; the 3x
/// ratio holds on the committed golden archive; StudyReader::refresh()
/// follows a generation change (the mixed post-compact, pre-crash case);
/// live ingest continues on a compacted archive; and the corruption
/// contract extends to OBSAENT2 frames — every single-byte flip of a
/// compacted log or v2 manifest is rejected at open, and recovery drops
/// crafted hostile compressed frames.

#include "archive/compact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "archive/checksum.hpp"
#include "archive/codec.hpp"
#include "archive/live_archive.hpp"
#include "archive/reader.hpp"
#include "archive/study_archive.hpp"
#include "archive/writer.hpp"
#include "common/thread_pool.hpp"
#include "gbl/dcsr.hpp"
#include "netgen/scenario.hpp"

namespace obscorr::archive {
namespace {

namespace fs = std::filesystem;

#ifndef OBSCORR_TEST_DATA_DIR
#error "OBSCORR_TEST_DATA_DIR must point at tests/data"
#endif

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::string golden_copy(const std::string& name) {
  const std::string dir = temp_dir(name);
  fs::copy(std::string(OBSCORR_TEST_DATA_DIR) + "/golden_study", dir,
           fs::copy_options::recursive);
  return dir;
}

std::map<std::string, std::vector<std::byte>> all_payloads(const std::string& dir) {
  const ArchiveReader r(dir);
  std::map<std::string, std::vector<std::byte>> out;
  for (const EntryInfo& e : r.entries()) {
    // The view owns the decoded page: with the page cache off, nothing
    // else keeps a compressed entry's bytes alive.
    const PayloadView p = r.payload(e.name);
    out.emplace(e.name, std::vector<std::byte>(p.bytes.begin(), p.bytes.end()));
  }
  return out;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(is.is_open()) << path;
  std::vector<char> data(static_cast<std::size_t>(is.tellg()));
  is.seekg(0);
  is.read(data.data(), static_cast<std::streamsize>(data.size()));
  return data;
}

void dump(const std::string& path, const std::vector<char>& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// Deterministic synthetic live window (mirrors live_archive_test).
gbl::DcsrMatrix window_matrix(std::size_t w) {
  std::vector<gbl::Tuple> tuples;
  for (std::uint32_t i = 0; i < 8; ++i) {
    tuples.push_back({static_cast<gbl::Index>(w * 100 + i), i, double(i + 1)});
    tuples.push_back({static_cast<gbl::Index>(w * 100 + i), i + 8, 2.0});
  }
  return gbl::DcsrMatrix::from_tuples(std::move(tuples));
}

void append_windows(const std::string& dir, std::size_t from, std::size_t to) {
  LiveArchive live(dir);
  for (std::size_t w = from; w < to; ++w) {
    LiveWindowMeta meta;
    meta.window = w;
    meta.salt = 0xCAFE0000ull + w;
    meta.valid_packets = 24;
    const gbl::DcsrMatrix m = window_matrix(w);
    live.append_window(meta, m, m.reduce_rows());
  }
}

TEST(CompactTest, GoldenArchiveCompressesThreeXAndReadsByteIdentical) {
  const std::string dir = golden_copy("compact_golden");
  const auto before = all_payloads(dir);
  const std::uint64_t hash_before = ArchiveReader(dir).scenario_hash();

  const CompactStats stats = compact_archive(dir, {.compress_all = true});
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.entries_total, before.size());
  EXPECT_GE(stats.entries_compressed, 30u);
  EXPECT_LT(stats.stored_bytes_after, stats.stored_bytes_before);
  EXPECT_GE(stats.ratio(), 3.0) << "golden archive must compact at least 3x";

  // The generation rolled: old log deleted, new one live.
  EXPECT_FALSE(fs::exists(dir + "/" + std::string(kEntryLogName)));
  EXPECT_TRUE(fs::exists(dir + "/" + log_file_name(1)));

  // Every entry decodes to the exact pre-compact bytes.
  const ArchiveReader r(dir);
  EXPECT_EQ(r.generation(), 1u);
  EXPECT_EQ(r.scenario_hash(), hash_before);
  ASSERT_EQ(r.entries().size(), before.size());
  for (const EntryInfo& e : r.entries()) {
    const auto it = before.find(e.name);
    ASSERT_NE(it, before.end()) << e.name;
    const PayloadView p = r.payload(e.name);
    ASSERT_EQ(p.size(), it->second.size()) << e.name;
    EXPECT_EQ(std::memcmp(p.data(), it->second.data(), p.size()), 0) << e.name;
    if ((e.flags & kEntryFlagCompressed) != 0) {
      EXPECT_LT(e.size, e.raw_size) << e.name;
    } else {
      EXPECT_EQ(e.size, e.raw_size) << e.name;
    }
  }
  // read_study on the compacted archive materializes the same study.
  const core::StudyData study = read_study(dir);
  EXPECT_EQ(study.scenario.population.log2_nv, 12u);
}

TEST(CompactTest, CompactIsIdempotentAcrossGenerations) {
  const std::string dir = golden_copy("compact_twice");
  const auto before = all_payloads(dir);
  const CompactStats first = compact_archive(dir, {.compress_all = true});
  const CompactStats second = compact_archive(dir, {.compress_all = true});
  EXPECT_EQ(second.generation, 2u);
  // Second pass copies the stored containers through verbatim.
  EXPECT_EQ(second.stored_bytes_after, first.stored_bytes_after);
  EXPECT_EQ(second.entries_compressed, first.entries_compressed);
  EXPECT_TRUE(fs::exists(dir + "/" + log_file_name(2)));
  EXPECT_FALSE(fs::exists(dir + "/" + log_file_name(1)));
  EXPECT_EQ(all_payloads(dir), before);
}

TEST(CompactTest, KeepRecentLeavesHotWindowsRawAndReadsMatch) {
  const std::string dir = temp_dir("compact_tiered");
  ThreadPool pool(2);
  archive_study(netgen::Scenario::paper(/*log2_nv=*/10, /*seed=*/7), dir, pool);
  append_windows(dir, 0, 6);

  StudyReader pre(dir);
  std::vector<gbl::SparseVec> want_windows;
  for (std::size_t w = 0; w < 6; ++w) {
    want_windows.push_back(pre.window_source_packets(w));
  }
  const gbl::SparseVec want_snapshot = pre.source_packets(0);

  const CompactStats stats = compact_archive(dir, {.keep_recent = 2});
  EXPECT_GT(stats.entries_compressed, 0u);

  // Windows 4 and 5 are inside the keep_recent tail: still raw for
  // zero-copy mmap reads. Windows 0..3 are cold: compressed.
  const ArchiveReader r(dir);
  for (const EntryInfo& e : r.entries()) {
    if (e.name.rfind("window/4/", 0) == 0 || e.name.rfind("window/5/", 0) == 0) {
      EXPECT_EQ(e.flags & kEntryFlagCompressed, 0u) << e.name;
    }
  }
  bool cold_window_compressed = false;
  for (const EntryInfo& e : r.entries()) {
    if (e.name == "window/0/matrix" || e.name == "window/0/sources") {
      cold_window_compressed |= (e.flags & kEntryFlagCompressed) != 0;
    }
  }
  EXPECT_TRUE(cold_window_compressed);

  // The mixed raw/compressed archive serves identical data on every path.
  StudyReader post(dir);
  ASSERT_EQ(post.window_count(), 6u);
  for (std::size_t w = 0; w < 6; ++w) {
    EXPECT_TRUE(post.window_source_packets(w) == want_windows[w]) << "window " << w;
    EXPECT_EQ(post.window_matrix(w).nnz(), window_matrix(w).nnz()) << "window " << w;
  }
  EXPECT_TRUE(post.source_packets(0) == want_snapshot);
}

/// Compact a fresh copy of `src` on a pool of `threads` (from inside one
/// of its tasks when `in_task`) and return the bytes of the log and the
/// manifest it published.
std::vector<std::vector<char>> compact_copy(const std::string& src, const std::string& name,
                                            const CompactOptions& opts, std::size_t threads,
                                            bool in_task) {
  const std::string dir = temp_dir(name);
  fs::copy(src, dir, fs::copy_options::recursive);
  std::exception_ptr error;
  {
    ThreadPool pool(threads);
    if (in_task) {
      pool.submit([&] {
        try {
          compact_archive(dir, opts, pool);
        } catch (...) {
          error = std::current_exception();
        }
      });
    } else {
      compact_archive(dir, opts, pool);
    }
  }  // the destructor runs the submitted task before it joins
  if (error) std::rethrow_exception(error);
  const std::uint32_t generation = ArchiveReader(dir).generation();
  EXPECT_EQ(generation, 1u) << name;
  std::vector<std::vector<char>> files = {slurp(dir + "/" + log_file_name(generation)),
                                          slurp(dir + "/" + kManifestName)};
  fs::remove_all(dir);
  return files;
}

/// Entries are encoded as pool tasks but appended in catalogue order, so
/// the log and the manifest are the same bytes at every pool size, and
/// when the compaction itself runs inside a task of its pool: the golden
/// archive forced whole, and a live archive whose newest two windows
/// stay raw.
TEST(CompactTest, EveryPoolSizeWritesTheSameLogAndManifest) {
  const std::string live = temp_dir("compact_pools_live");
  {
    ThreadPool pool(2);
    archive_study(netgen::Scenario::paper(/*log2_nv=*/10, /*seed=*/7), live, pool);
  }
  append_windows(live, 0, 6);
  const std::string golden = std::string(OBSCORR_TEST_DATA_DIR) + "/golden_study";
  for (const auto& [src, opts] : {std::pair{golden, CompactOptions{.compress_all = true}},
                                  std::pair{live, CompactOptions{.keep_recent = 2}}}) {
    const auto want = compact_copy(src, "compact_pools_1", opts, 1, false);
    for (const std::size_t threads : {2u, 4u}) {
      EXPECT_EQ(compact_copy(src, "compact_pools_n", opts, threads, false), want)
          << src << " on " << threads << " threads";
    }
    EXPECT_EQ(compact_copy(src, "compact_pools_task", opts, 2, true), want)
        << src << " inside a pool task";
  }
  fs::remove_all(live);
}

/// Satellite regression: a reader that was open across a compaction must
/// absorb the new generation on refresh() — the prefix-identity check is
/// version-aware, so a mixed raw/compressed rewrite is a clean reattach,
/// not a refresh failure. Spans handed out before the compaction stay
/// valid (the superseded mapping is retired, not unmapped).
TEST(CompactTest, RefreshFollowsCompactionGenerationChange) {
  const std::string dir = temp_dir("compact_refresh");
  ThreadPool pool(2);
  archive_study(netgen::Scenario::paper(/*log2_nv=*/10, /*seed=*/7), dir, pool);
  append_windows(dir, 0, 3);

  StudyReader reader(dir);
  ASSERT_EQ(reader.window_count(), 3u);
  const StudyReader::SourcesRef held = reader.sources(0);  // span into gen-0 mmap
  const gbl::SparseVec want = reader.source_packets(0);
  const gbl::SparseVec want_w0 = reader.window_source_packets(0);

  compact_archive(dir, {.keep_recent = 1});
  reader.refresh();

  // Queries now serve from the compacted generation, bit-identically.
  EXPECT_TRUE(reader.source_packets(0) == want);
  EXPECT_TRUE(reader.window_source_packets(0) == want_w0);

  // The pre-compaction span still reads the old mapping safely.
  ASSERT_EQ(held.ids.size(), want.indices().size());
  EXPECT_TRUE(std::equal(held.ids.begin(), held.ids.end(), want.indices().begin()));

  // New windows published after the compaction are picked up too.
  append_windows(dir, 3, 5);
  EXPECT_EQ(reader.refresh(), 2u);
  EXPECT_EQ(reader.window_count(), 5u);
  EXPECT_TRUE(reader.window_source_packets(4) == window_matrix(4).reduce_rows());
}

TEST(CompactTest, LiveIngestContinuesOnCompactedArchive) {
  const std::string dir = temp_dir("compact_live");
  ThreadPool pool(2);
  archive_study(netgen::Scenario::paper(/*log2_nv=*/10, /*seed=*/7), dir, pool);
  append_windows(dir, 0, 2);
  compact_archive(dir, {.compress_all = true});

  // The live writer appends to the generation-1 log; the raw tail
  // contract (no compression on the append path) is unchanged.
  append_windows(dir, 2, 4);
  StudyReader reader(dir);
  ASSERT_EQ(reader.window_count(), 4u);
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_TRUE(reader.window_source_packets(w) == window_matrix(w).reduce_rows())
        << "window " << w;
  }
  const ArchiveReader r(dir);
  for (const EntryInfo& e : r.entries()) {
    if (e.name.rfind("window/3/", 0) == 0) {
      EXPECT_EQ(e.flags & kEntryFlagCompressed, 0u) << e.name;
    }
  }
}

/// A tiny archive with one genuinely compressed entry, small enough to
/// sweep every byte of its OBSAENT2 log and v2 manifest.
std::string tiny_compressed_archive(const std::string& name) {
  const std::string dir = temp_dir(name);
  // A sorted source-reduction payload that the codec compresses well.
  std::string payload;
  const std::uint64_t nnz = 64;
  payload.append(reinterpret_cast<const char*>(&nnz), 8);
  for (std::uint32_t i = 0; i < nnz; ++i) {
    const std::uint32_t id = 3 + i * 7;
    payload.append(reinterpret_cast<const char*>(&id), 4);
  }
  for (std::uint32_t i = 0; i < nnz; ++i) {
    const double v = double(1 + i % 9);
    payload.append(reinterpret_cast<const char*>(&v), 8);
  }
  const auto stored = codec::compress_entry(
      "snapshot/0/sources",
      std::span<const std::byte>(reinterpret_cast<const std::byte*>(payload.data()),
                                 payload.size()));
  EXPECT_TRUE(stored.has_value());
  ArchiveWriter w(dir);
  w.add_entry("scenario", "not a real scenario");
  w.add_entry_compressed("snapshot/0/sources", *stored, payload.size());
  w.finalize(0xC0DEC);
  return dir;
}

/// Satellite: the single-byte-flip corruption guarantee extends to
/// OBSAENT2 frames and the v2 manifest — every flip of either file is
/// rejected at open with std::invalid_argument. ASan/UBSan CI runs prove
/// no mutated stream reads out of bounds.
TEST(CompactTest, EverySingleByteFlipInCompressedArchiveIsDetected) {
  const std::string dir = tiny_compressed_archive("compact_flip");
  {
    const ArchiveReader ok(dir);
    ASSERT_EQ(ok.entries().size(), 2u);
    ASSERT_NE(ok.entries()[1].flags & kEntryFlagCompressed, 0u);
  }
  for (const char* file : {kEntryLogName, kManifestName}) {
    const std::string path = dir + "/" + std::string(file);
    const std::vector<char> clean = slurp(path);
    ASSERT_FALSE(clean.empty());
    for (std::size_t i = 0; i < clean.size(); ++i) {
      std::vector<char> bad = clean;
      bad[i] = static_cast<char>(bad[i] ^ 0x01);
      dump(path, bad);
      EXPECT_THROW(ArchiveReader r(dir), std::invalid_argument)
          << file << " byte " << i << " flip not detected";
    }
    dump(path, clean);
  }
  const ArchiveReader restored(dir);
  EXPECT_EQ(restored.payload("snapshot/0/sources").size(), 8 + 64 * 4 + 64 * 8);
}

TEST(CompactTest, TornCompressedFrameIsTruncatedOnRecovery) {
  const std::string dir = tiny_compressed_archive("compact_torn");
  fs::remove(dir + "/" + std::string(kManifestName));
  const std::string log = dir + "/" + std::string(kEntryLogName);
  fs::resize_file(log, fs::file_size(log) - 5);
  ArchiveWriter resumed(dir);
  ASSERT_EQ(resumed.entries().size(), 1u);  // the ENT2 frame was torn away
  EXPECT_TRUE(resumed.has_entry("scenario"));
  EXPECT_FALSE(resumed.has_entry("snapshot/0/sources"));
}

TEST(CompactTest, RecoveryDropsHostileCompressedFrames) {
  // A crafted OBSAENT2 frame whose header and payload CRCs are both
  // valid but whose payload is not a codec container (bad magic, or a
  // header shorter than the fixed container header): recovery must drop
  // it — it can classify the frame without running a decode — never
  // crash or admit an entry whose decoded size is unknowable.
  for (const std::string& evil_payload :
       {std::string("definitely not a codec container, but CRC-valid bytes"),
        std::string(8, '\x7f')}) {
    const std::string dir =
        temp_dir("compact_hostile_" + std::to_string(evil_payload.size()));
    {
      ArchiveWriter w(dir);
      w.add_entry("alpha", "kept entry");
    }
    const std::string log = dir + "/" + std::string(kEntryLogName);
    std::vector<char> data = slurp(log);
    const std::string name = "snapshot/0/matrix";
    std::string frame = "OBSAENT2";
    const auto put_u32 = [&frame](std::uint32_t v) {
      frame.append(reinterpret_cast<const char*>(&v), 4);
    };
    const auto put_u64 = [&frame](std::uint64_t v) {
      frame.append(reinterpret_cast<const char*>(&v), 8);
    };
    put_u32(static_cast<std::uint32_t>(name.size()));
    put_u32(0);  // reserved
    put_u64(evil_payload.size());
    put_u32(crc32c(std::string_view(evil_payload)));
    put_u32(crc32c(frame + name));
    frame += name;
    while (frame.size() % 8 != 0) frame.push_back('\0');
    frame += evil_payload;
    while (frame.size() % 8 != 0) frame.push_back('\0');
    data.insert(data.end(), frame.begin(), frame.end());
    dump(log, data);

    ArchiveWriter resumed(dir);
    ASSERT_EQ(resumed.entries().size(), 1u);
    EXPECT_TRUE(resumed.has_entry("alpha"));
    EXPECT_FALSE(resumed.has_entry(name));
  }
}

TEST(CompactTest, CompactRejectsMissingArchive) {
  EXPECT_THROW(compact_archive("/nonexistent/dir", {}), std::invalid_argument);
}

}  // namespace
}  // namespace obscorr::archive
