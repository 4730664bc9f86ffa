#include "d4m/gbl_bridge.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace obscorr::d4m {

IpKey text_key(Ipv4 ip) {
  char text[16] = {};  // "255.255.255.255" is 15 bytes, so at least one NUL
  std::size_t len = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned octet = ip.octet(i);
    if (i) text[len++] = '.';
    if (octet >= 100) text[len++] = static_cast<char>('0' + octet / 100);
    if (octet >= 10) text[len++] = static_cast<char>('0' + octet / 10 % 10);
    text[len++] = static_cast<char>('0' + octet % 10);
  }
  IpKey key{};
  for (std::size_t b = 0; b < sizeof text; ++b) {
    key[b / 8] = key[b / 8] << 8 | static_cast<unsigned char>(text[b]);
  }
  return key;
}

std::string key_text(const IpKey& key) {
  char text[16];
  for (std::size_t b = 0; b < sizeof text; ++b) {
    text[b] = static_cast<char>(key[b / 8] >> (56 - 8 * (b % 8)));
  }
  return std::string(text, std::find(text, text + sizeof text, '\0'));
}

AssocArray from_addresses(std::span<const std::uint32_t> addresses,
                          std::span<const double> values, std::string col_key) {
  OBSCORR_REQUIRE(addresses.size() == values.size(),
                  "from_addresses: address/value arrays must have equal length");
  if (addresses.empty()) return AssocArray{};
  std::vector<std::pair<IpKey, double>> rows(addresses.size());
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    rows[i] = {text_key(Ipv4(addresses[i])), values[i]};
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::string> row_keys(rows.size());
  std::vector<std::uint64_t> row_ptr(rows.size() + 1);
  std::vector<double> val(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    OBSCORR_REQUIRE(r == 0 || rows[r - 1].first != rows[r].first,
                    "from_addresses: repeated address " + key_text(rows[r].first));
    row_keys[r] = key_text(rows[r].first);
    row_ptr[r + 1] = r + 1;
    val[r] = rows[r].second;
  }
  return AssocArray::from_csr(std::move(row_keys), {std::move(col_key)}, std::move(row_ptr),
                              std::vector<std::uint32_t>(rows.size(), 0), std::move(val));
}

}  // namespace obscorr::d4m
