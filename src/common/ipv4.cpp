#include "common/ipv4.hpp"

#include <charconv>
#include <cstddef>

#include "common/error.hpp"

namespace obscorr {

std::string Ipv4::to_string() const {
  char text[15];  // "255.255.255.255"
  std::size_t len = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned value = octet(i);
    if (i) text[len++] = '.';
    if (value >= 100) text[len++] = static_cast<char>('0' + value / 100);
    if (value >= 10) text[len++] = static_cast<char>('0' + value / 10 % 10);
    text[len++] = static_cast<char>('0' + value % 10);
  }
  return std::string(text, len);
}

std::optional<Ipv4> Ipv4::parse(std::string_view text) {
  std::uint32_t value = 0;
  const char* p = text.data();
  const char* end = text.data() + text.size();
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      if (p == end || *p != '.') return std::nullopt;
      ++p;
    }
    unsigned octet = 0;
    auto [next, ec] = std::from_chars(p, end, octet);
    if (ec != std::errc{} || next == p || octet > 255) return std::nullopt;
    // Reject leading zeros like "01" (ambiguous octal forms).
    if (next - p > 1 && *p == '0') return std::nullopt;
    value = (value << 8) | octet;
    p = next;
  }
  if (p != end) return std::nullopt;
  return Ipv4(value);
}

Ipv4Prefix::Ipv4Prefix(Ipv4 base, int length) : base_(base), length_(length) {
  OBSCORR_REQUIRE(length >= 0 && length <= 32, "prefix length must be in [0,32]");
  if (length < 32) {
    const std::uint32_t mask = length == 0 ? 0U : ~0U << (32 - length);
    base_ = Ipv4(base.value() & mask);
  }
}

Ipv4 Ipv4Prefix::at(std::uint64_t i) const {
  OBSCORR_REQUIRE(i < size(), "prefix address index out of range");
  return Ipv4(base_.value() + static_cast<std::uint32_t>(i));
}

std::string Ipv4Prefix::to_string() const {
  return base_.to_string() + "/" + std::to_string(length_);
}

std::optional<Ipv4Prefix> Ipv4Prefix::parse(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto base = Ipv4::parse(text.substr(0, slash));
  if (!base) return std::nullopt;
  int length = -1;
  const auto len_text = text.substr(slash + 1);
  auto [next, ec] = std::from_chars(len_text.data(), len_text.data() + len_text.size(), length);
  if (ec != std::errc{} || next != len_text.data() + len_text.size()) return std::nullopt;
  if (length < 0 || length > 32) return std::nullopt;
  return Ipv4Prefix(*base, length);
}

}  // namespace obscorr
