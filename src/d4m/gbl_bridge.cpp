#include "d4m/gbl_bridge.hpp"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace obscorr::d4m {

namespace {

/// kRankOctet[r]: the octet whose decimal text has rank r among "0" …
/// "255" in byte order. The loops enumerate the texts in that order: each
/// text before its extensions by one more digit, those by increasing
/// digit. kOctetRank inverts it.
constexpr std::array<std::uint8_t, 256> kRankOctet = [] {
  std::array<std::uint8_t, 256> octet{};
  std::size_t rank = 0;
  for (unsigned a = 0; a <= 9; ++a) {
    octet[rank++] = static_cast<std::uint8_t>(a);
    if (a == 0) continue;  // no leading zeros
    for (unsigned b = 0; b <= 9; ++b) {
      octet[rank++] = static_cast<std::uint8_t>(10 * a + b);
      for (unsigned c = 0; c <= 9 && 100 * a + 10 * b + c <= 255; ++c) {
        octet[rank++] = static_cast<std::uint8_t>(100 * a + 10 * b + c);
      }
    }
  }
  return octet;
}();

constexpr std::array<std::uint8_t, 256> kOctetRank = [] {
  std::array<std::uint8_t, 256> rank{};
  for (std::size_t r = 0; r < kRankOctet.size(); ++r) {
    rank[kRankOctet[r]] = static_cast<std::uint8_t>(r);
  }
  return rank;
}();

static_assert(kRankOctet[0] == 0 && kRankOctet[1] == 1 && kRankOctet[2] == 10 &&
              kRankOctet[3] == 100 && kRankOctet[255] == 99);

}  // namespace

std::uint32_t ip_rank(Ipv4 ip) {
  std::uint32_t rank = 0;
  for (int i = 0; i < 4; ++i) rank = rank << 8 | kOctetRank[ip.octet(i)];
  return rank;
}

Ipv4 rank_ip(std::uint32_t rank) {
  return Ipv4(kRankOctet[rank >> 24], kRankOctet[rank >> 16 & 0xFF], kRankOctet[rank >> 8 & 0xFF],
              kRankOctet[rank & 0xFF]);
}

std::optional<std::uint32_t> parse_rank(std::string_view text) {
  // Ipv4::parse accepts exactly the canonical texts: four decimal octets
  // in 0-255 without leading zeros, sign or spaces, three dots between.
  const std::optional<Ipv4> ip = Ipv4::parse(text);
  if (!ip) return std::nullopt;
  return ip_rank(*ip);
}

AssocArray from_addresses(std::span<const std::uint32_t> addresses,
                          std::span<const double> values, std::string col_key) {
  OBSCORR_REQUIRE(addresses.size() == values.size(),
                  "from_addresses: address/value arrays must have equal length");
  if (addresses.empty()) return AssocArray{};
  std::vector<std::pair<std::uint32_t, double>> rows(addresses.size());
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    rows[i] = {ip_rank(Ipv4(addresses[i])), values[i]};
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::string> row_keys(rows.size());
  std::vector<std::uint64_t> row_ptr(rows.size() + 1);
  std::vector<double> val(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    row_keys[r] = rank_ip(rows[r].first).to_string();
    OBSCORR_REQUIRE(r == 0 || rows[r - 1].first != rows[r].first,
                    "from_addresses: repeated address " + row_keys[r]);
    row_ptr[r + 1] = r + 1;
    val[r] = rows[r].second;
  }
  return AssocArray::from_csr(std::move(row_keys), {std::move(col_key)}, std::move(row_ptr),
                              std::vector<std::uint32_t>(rows.size(), 0), std::move(val));
}

}  // namespace obscorr::d4m
