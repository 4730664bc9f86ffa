/// Binary serialization of associative arrays: exact round-trips (odd
/// keys and every double survive; the archive format must not be lossy)
/// and rejection of malformed streams.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "assoc_oracle.hpp"

namespace obscorr::d4m {
namespace {

using oracle::build;
using oracle::Triple;

std::string serialized(const AssocArray& a) {
  std::string out;
  a.write_binary(out);
  return out;
}

AssocArray parse(const std::string& bytes) {
  return AssocArray::read_binary(std::as_bytes(std::span<const char>(bytes.data(), bytes.size())));
}

void expect_round_trip(const AssocArray& a) {
  const std::string bytes = serialized(a);
  const AssocArray back = parse(bytes);
  EXPECT_TRUE(back == a);
  // Canonical: re-serializing reproduces the exact bytes.
  EXPECT_EQ(serialized(back), bytes);
  // write_binary appends, leaving what the buffer already held in front
  // (an archive month's header).
  std::string framed("head\0er", 7);
  a.write_binary(framed);
  EXPECT_EQ(framed, std::string("head\0er", 7) + bytes);
}

TEST(AssocBinaryTest, EmptyArrayRoundTrips) { expect_round_trip(AssocArray()); }

TEST(AssocBinaryTest, SimpleArrayRoundTrips) {
  expect_round_trip(build({{"10.0.0.1", "packets", 12.0},
                           {"10.0.0.2", "packets", 1.0},
                           {"10.0.0.2", "intent|scan", 1.0}}));
}

TEST(AssocBinaryTest, EmptyStringKeysSurvive) {
  // Text formats cannot represent these; the binary format must.
  expect_round_trip(build({{"", "", 1.0}, {"", "col", 2.0}, {"row", "", 3.0}}));
}

TEST(AssocBinaryTest, NonAsciiAndControlKeyBytesSurvive) {
  const std::string high("\xff\xfe\x80", 3);
  const std::string tabs("a\tb\nc", 5);
  const std::string nul(std::string("x") + '\0' + "y");
  expect_round_trip(
      build({{high, "c1", 1.0}, {tabs, "c2", 2.0}, {nul, high, 3.0}, {"r", tabs, 4.0}}));
}

TEST(AssocBinaryTest, ValuesRoundTripBitForBit) {
  const double tiny = std::nextafter(0.0, 1.0);      // smallest subnormal
  const double precise = 0.1 + 0.2;                  // not representable exactly
  const double huge = std::numeric_limits<double>::max();
  const AssocArray a =
      build({{"a", "c", tiny}, {"b", "c", precise}, {"d", "c", huge}, {"e", "c", -0.0}});
  // Triples compare their values bit for bit.
  EXPECT_EQ(oracle::triples(parse(serialized(a))), oracle::triples(a));
}

TEST(AssocBinaryTest, RandomArraysRoundTrip) {
  std::mt19937_64 rng(20260806);
  std::uniform_int_distribution<int> key_len(0, 12);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> size(0, 40);
  std::uniform_real_distribution<double> value(-1e6, 1e6);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Triple> triples(static_cast<std::size_t>(size(rng)));
    for (Triple& t : triples) {
      for (int i = key_len(rng); i > 0; --i) t.row.push_back(static_cast<char>(byte(rng)));
      for (int i = key_len(rng); i > 0; --i) t.col.push_back(static_cast<char>(byte(rng)));
      t.val = value(rng);
    }
    expect_round_trip(build(std::move(triples)));
  }
}

TEST(AssocBinaryTest, MalformedStreamsRejected) {
  const std::string good = serialized(
      build({{"alpha", "c1", 1.0}, {"beta", "c1", 2.0}, {"beta", "c2", 3.0}}));

  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("OBSD4MA"), std::invalid_argument);
  {
    std::string bad = good;
    bad[7] = 'X';  // wrong magic
    EXPECT_THROW(parse(bad), std::invalid_argument);
  }
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW(parse(good.substr(0, len)), std::invalid_argument)
        << "truncation to " << len << " accepted";
  }
  {
    std::string bad = good;
    // Hostile row-key count right after the magic: must be rejected
    // before any allocation of that size is attempted.
    const std::uint64_t huge = 1ULL << 60;
    std::memcpy(bad.data() + 8, &huge, 8);
    EXPECT_THROW(parse(bad), std::invalid_argument);
  }
}

TEST(AssocBinaryTest, NonCanonicalStreamsRejected) {
  // Build a valid stream, then break each canonical-form invariant by
  // patching bytes. Layout: magic(8), row key count u64, then per key
  // u32 len + bytes...  keys "alpha" (5) and "beta" (4).
  const std::string good = serialized(
      build({{"alpha", "c1", 1.0}, {"beta", "c1", 2.0}, {"beta", "c2", 3.0}}));
  {
    std::string bad = good;
    // Swap the sorted row keys' first bytes so "alpha" > "beta" fails
    // the strictly-increasing key check.
    const std::size_t alpha_at = 8 + 8 + 4;
    ASSERT_EQ(bad.substr(alpha_at, 5), "alpha");
    bad[alpha_at] = 'z';
    EXPECT_THROW(parse(bad), std::invalid_argument);
  }
  {
    std::string bad = good;
    // "beta\0" sorts after "beta": the key order is no longer increasing.
    const std::size_t alpha_at = 8 + 8 + 4;
    bad.replace(alpha_at, 5, "beta\0" /*len stays 5*/, 5);
    EXPECT_THROW(parse(bad), std::invalid_argument);
  }
  {
    // Middle row offset past nnz while front()==0 and back()==nnz still
    // hold: must be rejected before it drives an out-of-bounds read of
    // col_idx. The column indices [0,1,2] stay strictly increasing, so
    // without the offset <= nnz bound no other invariant trips first and
    // the scan reads past the col_idx vector (caught by ASan).
    std::string bad =
        serialized(build({{"alpha", "c1", 1.0}, {"beta", "c2", 2.0}, {"beta", "c3", 3.0}}));
    // row_ptr lives after magic, both key sections, and nnz.
    const std::size_t row_keys = 8 + (4 + 5) + (4 + 4);            // count, "alpha", "beta"
    const std::size_t col_keys = 8 + (4 + 2) + (4 + 2) + (4 + 2);  // count, "c1".."c3"
    const std::size_t row_ptr_at = 8 + row_keys + col_keys + 8;
    const std::uint64_t big = 1'000'000;
    std::memcpy(bad.data() + row_ptr_at + 8, &big, 8);
    EXPECT_THROW(parse(bad), std::invalid_argument);
  }
}

}  // namespace
}  // namespace obscorr::d4m
