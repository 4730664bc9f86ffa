#include "honeyfarm/database.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "obs/span.hpp"

namespace obscorr::honeyfarm {

namespace {

/// Merge the months' sorted row keys: `visit(key, months)` once per
/// distinct key, in key order, with the number of months holding it.
template <typename Visit>
void merge_keys(std::span<const MonthView> months, Visit visit) {
  // A min-heap of (key, month) cursors, one per month with keys left.
  // Keys are unique within a month, so the entries popped with one key
  // are the months holding it.
  using Cursor = std::pair<std::string_view, std::size_t>;
  std::priority_queue<Cursor, std::vector<Cursor>, std::greater<>> heap;
  std::vector<std::size_t> next(months.size(), 1);
  for (std::size_t m = 0; m < months.size(); ++m) {
    const auto keys = months[m].sources.row_keys();
    if (!keys.empty()) heap.emplace(keys.front(), m);
  }
  while (!heap.empty()) {
    const std::string_view key = heap.top().first;
    int seen = 0;
    while (!heap.empty() && heap.top().first == key) {
      const std::size_t m = heap.top().second;
      heap.pop();
      ++seen;
      const auto keys = months[m].sources.row_keys();
      if (next[m] < keys.size()) heap.emplace(keys[next[m]++], m);
    }
    visit(key, seen);
  }
}

}  // namespace

Database::Database(std::size_t month_count, const std::function<MonthView(std::size_t)>& month) {
  const obs::Span span("honeyfarm.database", [&] { return std::to_string(month_count); });
  OBSCORR_REQUIRE(month_count > 0, "Database: need at least one month");
  months_.reserve(month_count);
  for (std::size_t m = 0; m < month_count; ++m) {
    months_.push_back(month(m));
    OBSCORR_REQUIRE(m == 0 || months_[m].month.months_since(months_[m - 1].month) == 1,
                    "Database: months must be consecutive");
  }
  merge_keys(months_, [this](std::string_view, int) { ++distinct_sources_; });
}

Database::Database(std::vector<MonthlyObservation> months)
    : Database(months.size(), [&months](std::size_t m) {
        auto bytes = std::make_shared<std::string>();
        months[m].sources.write_binary(*bytes);
        months[m].sources = d4m::AssocArray();  // the encoding replaces it
        const auto view = std::as_bytes(std::span<const char>(bytes->data(), bytes->size()));
        return MonthView{months[m].month, d4m::AssocView::from_bytes(view, std::move(bytes))};
      }) {}

std::optional<SourceProfile> Database::lookup(const std::string& ip) const {
  SourceProfile profile;
  profile.ip = ip;
  bool has_contacts = false;
  for (const MonthView& month : months_) {
    const auto row = month.sources.row(ip);
    if (row.empty()) continue;
    ++profile.months_seen;
    if (!profile.first_seen) profile.first_seen = month.month;
    profile.last_seen = month.month;
    // The max fold's union-max: the first contacts cell, then
    // std::max(peak, cell) in month order.
    for (const auto& [col, val] : row) {
      if (col != "contacts") continue;
      profile.peak_contacts = has_contacts ? std::max(profile.peak_contacts, val) : val;
      has_contacts = true;
    }
    if (!profile.classification.empty()) continue;
    // A facet's label is its first column, in key order, holding a
    // positive value; intent is re-read while classification is unset.
    const auto label = [&row](std::string_view prefix) -> std::optional<std::string_view> {
      for (const auto& [col, val] : row) {
        if (col.starts_with(prefix) && val > 0.0) return col.substr(prefix.size());
      }
      return std::nullopt;
    };
    if (const auto cls = label("classification|")) profile.classification = *cls;
    if (const auto intent = label("intent|")) profile.intent = *intent;
  }
  if (profile.months_seen == 0) return std::nullopt;
  return profile;
}

}  // namespace obscorr::honeyfarm
