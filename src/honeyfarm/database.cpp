#include "honeyfarm/database.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <queue>
#include <span>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "d4m/gbl_bridge.hpp"
#include "obs/span.hpp"

namespace obscorr::honeyfarm {

namespace {

/// The number of distinct rank keys over the months: one merge of their
/// sorted rank spans, cut by the ranks' top byte (the first octet's rank)
/// into 256 slices that `pool` workers merge independently. Within a
/// slice a min-heap holds one (rank << 32 | run) cursor per month with
/// keys left; ranks are unique within a month, so the cursors popped with
/// one rank are the months holding it.
std::size_t count_distinct(std::span<const MonthView> months, ThreadPool& pool) {
  constexpr std::size_t kSlices = 256;
  std::vector<std::size_t> distinct(kSlices, 0);
  parallel_claim(pool, kSlices, [&](std::size_t slice) {
    std::vector<std::span<const std::uint32_t>> runs;
    for (const MonthView& month : months) {
      const auto run = std::ranges::equal_range(month.sources.row_ranks(), slice, {},
                                                [](std::uint32_t rank) { return rank >> 24; });
      if (!run.empty()) runs.emplace_back(run.begin(), run.end());
    }
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
    std::vector<std::size_t> next(runs.size(), 0);
    const auto advance = [&](std::size_t r) {
      if (next[r] < runs[r].size()) heap.push(std::uint64_t{runs[r][next[r]++]} << 32 | r);
    };
    for (std::size_t r = 0; r < runs.size(); ++r) advance(r);
    while (!heap.empty()) {
      const std::uint64_t rank = heap.top() >> 32;
      ++distinct[slice];
      while (!heap.empty() && heap.top() >> 32 == rank) {
        const auto r = static_cast<std::size_t>(heap.top() & 0xFFFFFFFF);
        heap.pop();
        advance(r);
      }
    }
  });
  return std::accumulate(distinct.begin(), distinct.end(), std::size_t{0});
}

}  // namespace

Database::Database(std::size_t month_count, const std::function<MonthView(std::size_t)>& month,
                   ThreadPool& pool) {
  const obs::Span span("honeyfarm.database", [&] { return std::to_string(month_count); });
  OBSCORR_REQUIRE(month_count > 0, "Database: need at least one month");
  months_.resize(month_count);
  // Months differ in size, so workers claim them one at a time; each
  // view lands in its own slot.
  parallel_claim(pool, month_count, [&](std::size_t m) { months_[m] = month(m); });
  for (std::size_t m = 0; m < month_count; ++m) {
    const d4m::AssocView& sources = months_[m].sources;
    OBSCORR_REQUIRE(sources.row_ranks().size() == sources.row_keys().size(),
                    "Database: month views must be keyed by address");
    OBSCORR_REQUIRE(m == 0 || months_[m].month.months_since(months_[m - 1].month) == 1,
                    "Database: months must be consecutive");
  }
  distinct_sources_ = count_distinct(months_, pool);
}

Database::Database(std::vector<MonthlyObservation> months, ThreadPool& pool)
    : Database(
          months.size(),
          [&months](std::size_t m) {
            auto bytes = std::make_shared<std::string>();
            months[m].sources.write_binary(*bytes);
            months[m].sources = d4m::AssocArray();  // the encoding replaces it
            const auto view = std::as_bytes(std::span<const char>(bytes->data(), bytes->size()));
            return MonthView{months[m].month,
                             d4m::AssocView::from_ip_bytes(view, std::move(bytes))};
          },
          pool) {}

std::optional<SourceProfile> Database::lookup(const std::string& ip) const {
  // Every row key is a canonical dotted quad, so no other text is seen.
  const std::optional<std::uint32_t> rank = d4m::parse_rank(ip);
  if (!rank) return std::nullopt;
  SourceProfile profile;
  profile.ip = ip;
  bool has_contacts = false;
  for (const MonthView& month : months_) {
    const auto ranks = month.sources.row_ranks();
    const auto it = std::lower_bound(ranks.begin(), ranks.end(), *rank);
    if (it == ranks.end() || *it != *rank) continue;
    const auto row = month.sources.row(static_cast<std::size_t>(it - ranks.begin()));
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
