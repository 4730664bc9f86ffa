#include "d4m/gbl_bridge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "assoc_oracle.hpp"
#include "common/ipv4.hpp"
#include "common/prng.hpp"
#include "gbl/sparse_vec.hpp"

namespace obscorr::d4m {
namespace {

std::string bytes(const AssocArray& a) {
  std::string out;
  a.write_binary(out);
  return out;
}

/// The triple formulation of a one-column array over addresses.
AssocArray reference(std::span<const std::uint32_t> addresses, std::span<const double> values,
                     const std::string& col_key) {
  std::vector<oracle::Triple> triples;
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    triples.push_back({Ipv4(addresses[i]).to_string(), col_key, values[i]});
  }
  return oracle::build(std::move(triples));
}

TEST(GblBridgeTest, SparseVecToAssocUsesDottedQuadKeys) {
  // 16843009 == 1.1.1.1 (the paper's example).
  const gbl::SparseVec v({16843009u, 33686018u}, {3.0, 7.0});
  const AssocArray a = from_addresses(v.indices(), v.values(), "packets");
  EXPECT_EQ(oracle::at(a, "1.1.1.1", "packets"), 3.0);
  EXPECT_EQ(oracle::at(a, "2.2.2.2", "packets"), 7.0);
  EXPECT_EQ(a.nnz(), 2u);
}

TEST(GblBridgeTest, MatchesFromTriplesOnRandomVector) {
  Rng rng(5);
  std::vector<gbl::Index> idx;
  std::vector<gbl::Value> val;
  std::uint32_t cur = 0;
  for (int i = 0; i < 1000; ++i) {
    cur += 1 + static_cast<std::uint32_t>(rng.uniform_u64(1 << 20));
    idx.push_back(cur);
    val.push_back(static_cast<double>(1 + rng.uniform_u64(1000)));
  }
  const gbl::SparseVec v(idx, val);
  EXPECT_EQ(bytes(from_addresses(v.indices(), v.values(), "packets")),
            bytes(reference(idx, val, "packets")));
}

TEST(GblBridgeTest, EmptyVectorGivesEmptyAssoc) {
  const gbl::SparseVec v;
  const AssocArray a = from_addresses(v.indices(), v.values(), "packets");
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(bytes(a), bytes(AssocArray{}));
}

TEST(GblBridgeTest, StringOrderDiffersFromNumericOrder) {
  // "10.0.0.2" sorts before "9.0.0.1" lexically although 10.* > 9.*
  // numerically; the rows follow the string order.
  const std::vector<gbl::Index> idx{Ipv4(9, 0, 0, 1).value(), Ipv4(10, 0, 0, 2).value()};
  const std::vector<gbl::Value> val{1.0, 2.0};
  const gbl::SparseVec v(idx, val);
  const AssocArray a = from_addresses(v.indices(), v.values(), "c");
  EXPECT_EQ(a.row_keys()[0], "10.0.0.2");
  EXPECT_EQ(a.row_keys()[1], "9.0.0.1");
  EXPECT_EQ(bytes(a), bytes(reference(idx, val, "c")));
}

/// `ip_rank(x) < ip_rank(y)` exactly when `x`'s dotted quad sorts
/// before `y`'s, and each rank maps back to its address and parses from
/// its dotted quad.
void expect_rank_matches_text(Ipv4 x, Ipv4 y) {
  EXPECT_EQ(rank_ip(ip_rank(x)).to_string(), x.to_string());
  EXPECT_EQ(rank_ip(ip_rank(y)).to_string(), y.to_string());
  EXPECT_EQ(parse_rank(x.to_string()), ip_rank(x)) << x.to_string();
  EXPECT_EQ(ip_rank(x) < ip_rank(y), x.to_string() < y.to_string())
      << x.to_string() << " vs " << y.to_string();
  EXPECT_EQ(ip_rank(x) == ip_rank(y), x == y) << x.to_string() << " vs " << y.to_string();
}

TEST(TextKeyTest, OrderAndTextMatchTheDottedQuadOnEdgeCases) {
  const std::pair<Ipv4, Ipv4> pairs[] = {
      {Ipv4(0, 0, 0, 0), Ipv4(255, 255, 255, 255)},
      {Ipv4(1, 2, 3, 4), Ipv4(1, 2, 3, 40)},
      {Ipv4(1, 10, 0, 0), Ipv4(1, 2, 0, 0)},
      {Ipv4(9, 0, 0, 1), Ipv4(10, 0, 0, 2)},
      {Ipv4(1, 2, 3, 4), Ipv4(1, 2, 3, 4)},
      {Ipv4(99, 0, 0, 0), Ipv4(255, 0, 0, 0)},
      {Ipv4(1, 0, 0, 0), Ipv4(100, 0, 0, 0)},
  };
  for (const auto& [x, y] : pairs) {
    expect_rank_matches_text(x, y);
    expect_rank_matches_text(y, x);
  }
  EXPECT_EQ(rank_ip(ip_rank(Ipv4(255, 255, 255, 255))).to_string(), "255.255.255.255");
  EXPECT_EQ(rank_ip(ip_rank(Ipv4(0, 0, 0, 0))).to_string(), "0.0.0.0");
  // "0" ranks first and "99" last among the octet texts.
  EXPECT_EQ(ip_rank(Ipv4(0, 0, 0, 0)), 0u);
  EXPECT_EQ(ip_rank(Ipv4(99, 99, 99, 99)), 0xFFFFFFFFu);
}

TEST(TextKeyTest, OrderAndTextMatchTheDottedQuadOnRandomAddresses) {
  Rng rng(20261018);
  std::vector<Ipv4> ips;
  for (int i = 0; i < 100000; ++i) ips.emplace_back(rng.next_u32());
  for (std::size_t i = 1; i < ips.size(); ++i) expect_rank_matches_text(ips[i - 1], ips[i]);

  std::vector<std::string> by_text;
  for (const Ipv4 ip : ips) by_text.push_back(ip.to_string());
  std::sort(by_text.begin(), by_text.end());
  std::vector<std::uint32_t> ranks;
  for (const Ipv4 ip : ips) ranks.push_back(ip_rank(ip));
  std::sort(ranks.begin(), ranks.end());
  std::vector<std::string> by_rank;
  for (const std::uint32_t rank : ranks) by_rank.push_back(rank_ip(rank).to_string());
  EXPECT_EQ(by_rank, by_text);
}

TEST(TextKeyTest, EveryOctetRanksAsItsText) {
  // The rank is a bijection on u32 whose order is the text order.
  std::vector<std::string> texts;
  for (unsigned octet = 0; octet < 256; ++octet) texts.push_back(std::to_string(octet));
  std::sort(texts.begin(), texts.end());
  for (std::size_t r = 0; r < texts.size(); ++r) {
    const auto octet = static_cast<std::uint8_t>(std::stoi(texts[r]));
    EXPECT_EQ(ip_rank(Ipv4(octet, 0, 0, 0)), r << 24) << texts[r];
    EXPECT_EQ(ip_rank(Ipv4(0, 0, 0, octet)), r) << texts[r];
    EXPECT_EQ(rank_ip(static_cast<std::uint32_t>(r)), Ipv4(0, 0, 0, octet)) << texts[r];
  }
}

TEST(TextKeyTest, ParserAcceptsOnlyCanonicalDottedQuads) {
  for (const char* text : {"1.2.3.04", "01.2.3.4", "256.1.1.1", "1.2.3", "1.2.3.4.", "1..2.3", "",
                           " 1.2.3.4", "1.2.3.4 ", "+1.2.3.4", "-1.2.3.4", "1.2.3.4/32",
                           "1.2.3.00", "0x1.2.3.4", "1.2.3.4\n", "1.2.3.2555"}) {
    EXPECT_FALSE(parse_rank(text).has_value()) << '"' << text << '"';
  }
  EXPECT_FALSE(parse_rank(std::string_view("1.2.3.4\0", 8)).has_value());
  EXPECT_EQ(parse_rank("0.0.0.0"), 0u);
  EXPECT_EQ(parse_rank("255.255.255.255"), ip_rank(Ipv4(255, 255, 255, 255)));
  EXPECT_EQ(parse_rank("1.2.3.4"), ip_rank(Ipv4(1, 2, 3, 4)));
}

TEST(FromAddressesTest, MatchesFromTriplesOnShuffledInput) {
  Rng rng(77);
  std::vector<std::uint32_t> addresses;
  for (int i = 0; i < 20000; ++i) addresses.push_back(rng.next_u32());
  // A dense block too, so neighbouring addresses share long prefixes.
  for (std::uint32_t a = 0x01020300; a < 0x01020400; ++a) addresses.push_back(a);
  std::sort(addresses.begin(), addresses.end());
  addresses.erase(std::unique(addresses.begin(), addresses.end()), addresses.end());
  std::shuffle(addresses.begin(), addresses.end(), std::mt19937_64(3));
  std::vector<double> values;
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    values.push_back(static_cast<double>(rng.uniform_u64(1000)) - 0.5);
  }
  EXPECT_EQ(bytes(from_addresses(addresses, values, "packets")),
            bytes(reference(addresses, values, "packets")));
  EXPECT_EQ(bytes(from_addresses({}, {}, "packets")), bytes(AssocArray{}));
}

TEST(FromAddressesTest, RejectsRepeatedAddressAndLengthMismatch) {
  const std::vector<std::uint32_t> repeated{Ipv4(1, 2, 3, 4).value(), Ipv4(5, 6, 7, 8).value(),
                                            Ipv4(1, 2, 3, 4).value()};
  const std::vector<double> values{1.0, 2.0, 3.0};
  EXPECT_THROW(from_addresses(repeated, values, "packets"), std::invalid_argument);
  EXPECT_THROW(from_addresses(std::span(repeated).first(2), values, "packets"),
               std::invalid_argument);
}

}  // namespace
}  // namespace obscorr::d4m
