/// Robustness sweep: every parser and deserializer in the library fed
/// seeded random garbage, random truncations of valid artifacts, and
/// hostile near-valid inputs. The contract under test: malformed input
/// either parses (returning a valid object) or throws
/// std::invalid_argument — never crashes, never corrupts, never loops.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/cli.hpp"
#include "common/ipv4.hpp"
#include "common/prng.hpp"
#include "common/timeline.hpp"
#include "crypt/anon_table.hpp"
#include "gbl/matrix_io.hpp"
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

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

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
  for (int i = 0; i < 300; ++i) {
    std::stringstream ss(random_bytes(rng, 300));
    EXPECT_THROW(gbl::read_matrix(ss), std::invalid_argument);
  }
}

TEST_P(FuzzTest, MatrixReaderSurvivesRandomTruncationsOfValidFile) {
  Rng rng(GetParam());
  std::vector<gbl::Tuple> tuples;
  for (int i = 0; i < 200; ++i) tuples.push_back({rng.next_u32(), rng.next_u32(), 1.0});
  const gbl::DcsrMatrix m = gbl::DcsrMatrix::from_tuples(std::move(tuples));
  std::stringstream full;
  gbl::write_matrix(full, m);
  const std::string bytes = full.str();
  for (int i = 0; i < 100; ++i) {
    const std::size_t cut = rng.uniform_u64(bytes.size());  // strictly shorter
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(gbl::read_matrix(truncated), std::invalid_argument) << "cut=" << cut;
  }
}

TEST_P(FuzzTest, AnonTableReaderThrowsOnGarbage) {
  Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    std::stringstream ss(random_bytes(rng, 200));
    EXPECT_THROW(crypt::AnonymizationTable::read(ss), std::invalid_argument);
  }
}

TEST_P(FuzzTest, TraceReplayThrowsOnGarbageFiles) {
  Rng rng(GetParam());
  const std::string path = ::testing::TempDir() + "/fuzz_trace.trc";
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
  // throw or produce a structurally valid matrix, never crash.
  Rng rng(9);
  std::vector<gbl::Tuple> tuples;
  for (int i = 0; i < 50; ++i) tuples.push_back({rng.next_u32(), rng.next_u32(), 1.0});
  const gbl::DcsrMatrix m = gbl::DcsrMatrix::from_tuples(std::move(tuples));
  std::stringstream full;
  gbl::write_matrix(full, m);
  std::string bytes = full.str();
  for (std::size_t pos = 0; pos < 24 && pos < bytes.size(); ++pos) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0xFF);
    std::stringstream ss(corrupted);
    try {
      const gbl::DcsrMatrix parsed = gbl::read_matrix(ss);
      EXPECT_LE(parsed.nnz(), m.nnz());
    } catch (const std::invalid_argument&) {
    } catch (const std::length_error&) {
      // a corrupted count can exceed vector limits before validation
    } catch (const std::bad_alloc&) {
      // or request an unserviceable allocation; both are clean failures
    }
  }
}

}  // namespace
}  // namespace obscorr
