#pragma once
/// \file table.hpp
/// Plain-text table rendering for the experiment benches: every
/// table/figure harness prints its rows through `TextTable` so output is
/// column-aligned and diffable, plus CSV emission for downstream plotting.

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace obscorr {

/// Column-aligned text table with an optional title and header row.
class TextTable {
 public:
  explicit TextTable(std::string title = {}) : title_(std::move(title)) {}

  /// Set the header row; resets column count expectations.
  void set_header(std::vector<std::string> header);

  /// Append a data row; must match the header width when a header is set.
  void add_row(std::vector<std::string> row);

  std::size_t row_count() const { return rows_.size(); }

  /// Render with aligned columns (numbers right-aligned heuristically).
  void print(std::ostream& os) const;

  /// Render as CSV (no title, header first when present).
  void print_csv(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision float formatting helpers used by the bench harnesses.
std::string fmt_double(double v, int precision = 4);
std::string fmt_sci(double v, int precision = 3);
std::string fmt_percent(double fraction, int precision = 1);
/// Thousands-separated integer, e.g. 2,752,690 (Table I style).
std::string fmt_count(std::uint64_t v);
/// A count held in a double (a matrix value): digit-grouped and truncated
/// when a u64 holds it, as every count the pipeline stores does. A
/// crafted file can hold any double (its layout is checked, not its
/// values), so a negative, NaN or too large value prints in its shortest
/// round-trip form (`-7`, `nan`, `1e+20`) instead of through an
/// undefined cast.
std::string fmt_count_double(double v);

}  // namespace obscorr
