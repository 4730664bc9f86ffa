/// Archive framing layer: writer/reader round-trips, crash recovery of a
/// torn entry log, atomic-commit semantics (no manifest, no archive) and
/// the corruption guarantee — flipping any single byte of the manifest or
/// the entry log must be rejected at open with std::invalid_argument,
/// never a crash and never silently wrong payload bytes.

#include "archive/reader.hpp"
#include "archive/writer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "archive/checksum.hpp"
#include "archive/mapped_file.hpp"

namespace obscorr::archive {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
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

std::string payload_text(const PayloadView& p) {
  return std::string(reinterpret_cast<const char*>(p.data()), p.size());
}

TEST(ArchiveTest, Crc32cKnownVectors) {
  // RFC 3720 B.4 test vectors for CRC32C (Castagnoli).
  EXPECT_EQ(crc32c(std::string_view("")), 0u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc32c(std::string_view(zeros)), 0x8A9136AAu);
  std::string ff(32, '\xff');
  EXPECT_EQ(crc32c(std::string_view(ff)), 0x62A8AB43u);
  EXPECT_EQ(crc32c(std::string_view("123456789")), 0xE3069283u);
}

TEST(ArchiveTest, Crc32cCombineMatchesOnePass) {
  std::mt19937_64 rng(20261019);
  std::string bytes((1u << 20) + 4099 + 17, '\0');
  for (char& c : bytes) c = static_cast<char>(rng());
  const std::string_view all(bytes);
  const std::uint32_t whole = crc32c(all);
  for (const std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
                                  std::size_t{9}, std::size_t{4095}, std::size_t{4099},
                                  std::size_t{(1u << 20) + 3}, all.size()}) {
    const std::string_view a = all.substr(0, split);
    const std::string_view b = all.substr(split);
    EXPECT_EQ(crc32c_combine(crc32c(a), crc32c(b), b.size()), whole) << "split " << split;
    // And as the writer chains it: a running CRC continued over b.
    EXPECT_EQ(crc32c_combine(crc32c(a), crc32c(b), b.size()), crc32c(b, crc32c(a)))
        << "split " << split;
  }
}

TEST(ArchiveTest, RoundTripMultipleEntries) {
  const std::string dir = temp_dir("arch_roundtrip");
  {
    ArchiveWriter w(dir);
    w.add_entry("alpha", "first payload");
    w.add_entry("beta", std::string("\x00\x01\x02\xff", 4));
    w.add_entry("gamma", "");  // empty payloads are legal
    w.finalize(/*scenario_hash=*/0xFEEDBEEFu);
  }
  const ArchiveReader r(dir);
  EXPECT_EQ(r.scenario_hash(), 0xFEEDBEEFu);
  ASSERT_EQ(r.entries().size(), 3u);
  EXPECT_TRUE(r.has("alpha"));
  EXPECT_FALSE(r.has("delta"));
  EXPECT_EQ(payload_text(r.payload("alpha")), "first payload");
  EXPECT_EQ(payload_text(r.payload("beta")), std::string("\x00\x01\x02\xff", 4));
  EXPECT_EQ(r.payload("gamma").size(), 0u);
  EXPECT_THROW(r.payload("delta"), std::invalid_argument);
  // Payload starts are 8-aligned: the zero-copy contract.
  for (const EntryInfo& e : r.entries()) EXPECT_EQ(e.offset % 8, 0u) << e.name;
}

TEST(ArchiveTest, ReaderRejectsDirectoryWithoutManifest) {
  const std::string dir = temp_dir("arch_nomanifest");
  ArchiveWriter w(dir);
  w.add_entry("alpha", "payload");
  // No finalize: the archive was never committed.
  EXPECT_THROW(ArchiveReader r(dir), std::invalid_argument);
  EXPECT_THROW(ArchiveReader r2("/nonexistent/path"), std::invalid_argument);
}

TEST(ArchiveTest, DuplicateEntryRejected) {
  const std::string dir = temp_dir("arch_dup");
  ArchiveWriter w(dir);
  w.add_entry("alpha", "one");
  EXPECT_THROW(w.add_entry("alpha", "two"), std::invalid_argument);
  EXPECT_THROW(w.add_entry("", "anonymous"), std::invalid_argument);
}

TEST(ArchiveTest, WriterRecoversCompletedEntries) {
  const std::string dir = temp_dir("arch_recover");
  {
    ArchiveWriter w(dir);
    w.add_entry("alpha", "first");
    w.add_entry("beta", "second");
    // Killed before finalize: no manifest.
  }
  ArchiveWriter resumed(dir);
  ASSERT_EQ(resumed.entries().size(), 2u);
  EXPECT_TRUE(resumed.has_entry("alpha"));
  const auto payload = resumed.read_entry("beta");
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(payload.data()), payload.size()),
            "second");
  resumed.add_entry("gamma", "third");
  resumed.finalize(1);
  const ArchiveReader r(dir);
  EXPECT_EQ(r.entries().size(), 3u);
  EXPECT_EQ(payload_text(r.payload("alpha")), "first");
}

TEST(ArchiveTest, TornTailIsTruncatedAndRewritten) {
  const std::string dir = temp_dir("arch_torn");
  {
    ArchiveWriter w(dir);
    w.add_entry("alpha", "kept entry");
    w.add_entry("beta", "this frame will be torn");
  }
  // Simulate a crash mid-append: cut the log inside the second frame.
  const std::string log = dir + "/" + std::string(kEntryLogName);
  auto data = slurp(log);
  fs::resize_file(log, data.size() - 7);

  ArchiveWriter resumed(dir);
  ASSERT_EQ(resumed.entries().size(), 1u);  // beta was torn away
  EXPECT_TRUE(resumed.has_entry("alpha"));
  EXPECT_FALSE(resumed.has_entry("beta"));
  resumed.add_entry("beta", "rewritten after the crash");
  resumed.finalize(7);

  const ArchiveReader r(dir);
  EXPECT_EQ(payload_text(r.payload("alpha")), "kept entry");
  EXPECT_EQ(payload_text(r.payload("beta")), "rewritten after the crash");
}

TEST(ArchiveTest, HostilePayloadSizeInRecoverIsRejected) {
  const std::string dir = temp_dir("arch_hostile_size");
  {
    ArchiveWriter w(dir);
    w.add_entry("alpha", "kept entry");
  }
  // Append a crafted frame whose header declares a payload size chosen so
  // that `payload_at + payload_size` wraps to 0. The header CRC is not a
  // secret — an attacker computes a valid one — so recover() must reject
  // the frame on overflow-safe bounds, not read far out of the buffer.
  const std::string log = dir + "/" + std::string(kEntryLogName);
  auto data = slurp(log);
  const std::string name = "evil";
  // Frame header is 32 bytes; the payload starts at the 8-padded offset
  // past the header and name.
  const std::uint64_t payload_at = (data.size() + 32 + name.size() + 7) / 8 * 8;
  const std::uint64_t huge = ~payload_at + 1;  // payload_at + huge == 0 mod 2^64
  std::string frame = "OBSAENT1";
  const auto put_u32 = [&frame](std::uint32_t v) {
    frame.append(reinterpret_cast<const char*>(&v), 4);
  };
  const auto put_u64 = [&frame](std::uint64_t v) {
    frame.append(reinterpret_cast<const char*>(&v), 8);
  };
  put_u32(static_cast<std::uint32_t>(name.size()));
  put_u32(0);     // reserved
  put_u64(huge);  // payload size
  put_u32(0);     // payload CRC (must never be reached)
  put_u32(crc32c(frame + name));  // valid header CRC over prefix + name
  frame += name;
  while (frame.size() % 8 != 0) frame.push_back('\0');
  data.insert(data.end(), frame.begin(), frame.end());
  dump(log, data);

  ArchiveWriter resumed(dir);
  ASSERT_EQ(resumed.entries().size(), 1u);
  EXPECT_TRUE(resumed.has_entry("alpha"));
  EXPECT_FALSE(resumed.has_entry("evil"));
}

TEST(ArchiveTest, ResetDropsRecoveredState) {
  const std::string dir = temp_dir("arch_reset");
  {
    ArchiveWriter w(dir);
    w.add_entry("alpha", "stale");
  }
  ArchiveWriter w(dir);
  ASSERT_TRUE(w.has_entry("alpha"));
  w.reset();
  EXPECT_FALSE(w.has_entry("alpha"));
  w.add_entry("alpha", "fresh");
  w.finalize(2);
  const ArchiveReader r(dir);
  EXPECT_EQ(payload_text(r.payload("alpha")), "fresh");
}

/// The acceptance criterion: every single-byte flip in the manifest or
/// the entry log is rejected at open. Small payloads keep the sweep over
/// every byte of both files affordable.
TEST(ArchiveTest, EverySingleByteFlipIsDetected) {
  const std::string dir = temp_dir("arch_flip");
  {
    ArchiveWriter w(dir);
    w.add_entry("snapshot/0/matrix", "some matrix bytes here");
    w.add_entry("month/0", "honeyfarm month payload");
    w.finalize(0x1234);
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
  ArchiveReader ok(dir);  // restored archive opens again
  EXPECT_EQ(payload_text(ok.payload("month/0")), "honeyfarm month payload");
}

TEST(ArchiveTest, ManifestCommitIsAtomic) {
  const std::string dir = temp_dir("arch_atomic");
  ArchiveWriter w(dir);
  w.add_entry("alpha", "payload");
  w.finalize(3);
  // No .tmp file survives a successful commit.
  EXPECT_FALSE(fs::exists(dir + "/" + std::string(kManifestName) + ".tmp"));
  EXPECT_TRUE(fs::exists(dir + "/" + std::string(kManifestName)));
}

TEST(ArchiveTest, HeapFallbackMatchesMmap) {
  const std::string dir = temp_dir("arch_nommap");
  {
    ArchiveWriter w(dir);
    w.add_entry("alpha", "identical payload either way");
    w.finalize(9);
  }
  // The heap path is what a failed mmap falls back to, and the only
  // path of the matrix-file reader: the same bytes, one copy.
  const std::string log = dir + "/" + log_file_name(0);
  const MappedFile mapped = MappedFile::open(log);
  const MappedFile heap = MappedFile::open(log, /*allow_mmap=*/false);
  EXPECT_TRUE(mapped.mapped());
  EXPECT_FALSE(heap.mapped());
  ASSERT_EQ(heap.size(), mapped.size());
  EXPECT_TRUE(std::equal(heap.bytes().begin(), heap.bytes().end(), mapped.bytes().begin()));
}

}  // namespace
}  // namespace obscorr::archive
