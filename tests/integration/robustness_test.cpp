/// Robustness sweep: every parser and deserializer in the library fed
/// seeded random garbage, random truncations of valid artifacts, and
/// hostile near-valid inputs. The contract under test: malformed input
/// either parses (returning a valid object) or throws
/// std::invalid_argument — never crashes, never corrupts, never loops.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "archive/matrix_file.hpp"
#include "common/cli.hpp"
#include "common/ipv4.hpp"
#include "common/prng.hpp"
#include "common/timeline.hpp"
#include "gbl/dcsr.hpp"
#include "gbl/matrix_view.hpp"
#include "telescope/trace.hpp"

namespace obscorr {
namespace {

std::string random_bytes(Rng& rng, std::size_t max_len) {
  const std::size_t n = rng.uniform_u64(max_len + 1);
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.uniform_u64(256));
  return s;
}

std::string random_printable(Rng& rng, std::size_t max_len) {
  const std::size_t n = rng.uniform_u64(max_len + 1);
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(' ' + rng.uniform_u64(95));
  return s;
}

/// Write `bytes` to `path` and read them back through the matrix-file
/// reader that the `--matrix` commands use.
gbl::DcsrMatrix read_matrix_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return archive::read_matrix_file(path).materialize();
}

std::string matrix_bytes(const gbl::DcsrMatrix& m) {
  std::string bytes;
  gbl::append_matrix_v2(bytes, m);
  return bytes;
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// A temp file of this test and seed alone: ctest runs the seeds as
  /// parallel processes, so a shared name would collide.
  std::string own_path(const std::string& stem) const {
    return ::testing::TempDir() + "/fuzz_" + stem + "_" + std::to_string(GetParam());
  }
};

TEST_P(FuzzTest, Ipv4ParseNeverCrashes) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const auto result = Ipv4::parse(random_printable(rng, 24));
    if (result.has_value()) {
      // Anything accepted must round-trip.
      EXPECT_EQ(Ipv4::parse(result->to_string()), result);
    }
  }
}

TEST_P(FuzzTest, YearMonthParseNeverCrashes) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const auto result = YearMonth::parse(random_printable(rng, 10));
    if (result.has_value()) {
      EXPECT_EQ(YearMonth::parse(result->to_string()), result);
    }
  }
}

TEST_P(FuzzTest, MatrixReaderThrowsOnGarbage) {
  Rng rng(GetParam());
  const std::string path = own_path("matrix_garbage.gbl");
  for (int i = 0; i < 300; ++i) {
    EXPECT_THROW(read_matrix_bytes(path, random_bytes(rng, 300)), std::invalid_argument);
  }
  std::remove(path.c_str());
}

TEST_P(FuzzTest, MatrixReaderSurvivesRandomTruncationsOfValidFile) {
  Rng rng(GetParam());
  std::vector<gbl::Tuple> tuples;
  for (int i = 0; i < 200; ++i) tuples.push_back({rng.next_u32(), rng.next_u32(), 1.0});
  const std::string bytes = matrix_bytes(gbl::DcsrMatrix::from_tuples(std::move(tuples)));
  const std::string path = own_path("matrix_truncated.gbl");
  for (int i = 0; i < 100; ++i) {
    const std::size_t cut = rng.uniform_u64(bytes.size());  // strictly shorter
    EXPECT_THROW(read_matrix_bytes(path, bytes.substr(0, cut)), std::invalid_argument)
        << "cut=" << cut;
  }
  std::remove(path.c_str());
}

TEST_P(FuzzTest, TraceReplayThrowsOnGarbageFiles) {
  Rng rng(GetParam());
  const std::string path = own_path("trace.trc");
  for (int i = 0; i < 50; ++i) {
    std::ofstream(path, std::ios::binary) << random_bytes(rng, 200);
    EXPECT_THROW(telescope::replay_trace(path, [](std::span<const Packet>) {}),
                 std::invalid_argument);
  }
  std::remove(path.c_str());
}

TEST_P(FuzzTest, CliParserThrowsOrParses) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    std::vector<std::string> args;
    const std::size_t n = rng.uniform_u64(6);
    for (std::size_t k = 0; k < n; ++k) args.push_back(random_printable(rng, 12));
    try {
      const CliArgs parsed = CliArgs::parse(args);
      EXPECT_LE(parsed.positional().size(), args.size());
    } catch (const std::invalid_argument&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(1, 2, 3));

TEST(RobustnessTest, MatrixHeaderFieldCorruption) {
  // Flip each byte of the header of a valid matrix file; the reader must
  // throw std::invalid_argument or produce a structurally valid matrix,
  // never crash. Counts are checked against the file's size before
  // anything is allocated, so no corrupted count reaches an allocator.
  Rng rng(9);
  std::vector<gbl::Tuple> tuples;
  for (int i = 0; i < 50; ++i) tuples.push_back({rng.next_u32(), rng.next_u32(), 1.0});
  const gbl::DcsrMatrix m = gbl::DcsrMatrix::from_tuples(std::move(tuples));
  const std::string bytes = matrix_bytes(m);
  const std::string path = ::testing::TempDir() + "/robustness_matrix_header.gbl";
  for (std::size_t pos = 0; pos < 24 && pos < bytes.size(); ++pos) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0xFF);
    try {
      const gbl::DcsrMatrix parsed = read_matrix_bytes(path, corrupted);
      EXPECT_LE(parsed.nnz(), m.nnz());
    } catch (const std::invalid_argument&) {
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obscorr
