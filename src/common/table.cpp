#include "common/table.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

#include "common/error.hpp"

namespace obscorr {

void TextTable::set_header(std::vector<std::string> header) {
  OBSCORR_REQUIRE(rows_.empty(), "set_header must precede add_row");
  header_ = std::move(header);
}

void TextTable::add_row(std::vector<std::string> row) {
  OBSCORR_REQUIRE(header_.empty() || row.size() == header_.size(),
                  "row width must match header width");
  rows_.push_back(std::move(row));
}

namespace {

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!(std::isdigit(static_cast<unsigned char>(c)) || c == '.' || c == '-' || c == '+' ||
          c == 'e' || c == 'E' || c == '%' || c == ',')) {
      return false;
    }
  }
  return true;
}

}  // namespace

void TextTable::print(std::ostream& os) const {
  const std::size_t cols = header_.empty() ? (rows_.empty() ? 0 : rows_[0].size()) : header_.size();
  if (cols == 0) return;
  std::vector<std::size_t> width(cols, 0);
  for (std::size_t c = 0; c < cols; ++c) {
    if (c < header_.size()) width[c] = header_[c].size();
    for (const auto& row : rows_) {
      if (c < row.size()) width[c] = std::max(width[c], row[c].size());
    }
  }
  if (!title_.empty()) os << "== " << title_ << " ==\n";
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      const std::size_t pad = width[c] - cell.size();
      if (c) os << "  ";
      if (looks_numeric(cell)) {
        os << std::string(pad, ' ') << cell;
      } else {
        os << cell << std::string(pad, ' ');
      }
    }
    os << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < cols; ++c) total += width[c] + (c ? 2 : 0);
    os << std::string(total, '-') << '\n';
  }
  for (const auto& row : rows_) emit(row);
}

void TextTable::print_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      const bool quote = row[c].find(',') != std::string::npos;
      if (quote) os << '"';
      os << row[c];
      if (quote) os << '"';
    }
    os << '\n';
  };
  if (!header_.empty()) emit(header_);
  for (const auto& row : rows_) emit(row);
}

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmt_sci(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*e", precision, v);
  return buf;
}

std::string fmt_percent(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string fmt_count(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string fmt_count_double(double v) {
  if (v >= 0.0 && v < 0x1p64) return fmt_count(static_cast<std::uint64_t>(v));
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace obscorr
