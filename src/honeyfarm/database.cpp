#include "honeyfarm/database.hpp"

#include <string_view>

#include "common/error.hpp"

namespace obscorr::honeyfarm {

Database::Database(std::vector<MonthlyObservation> months) : months_(std::move(months)) {
  OBSCORR_REQUIRE(!months_.empty(), "Database: need at least one month");
  for (std::size_t m = 1; m < months_.size(); ++m) {
    OBSCORR_REQUIRE(months_[m].month.months_since(months_[m - 1].month) == 1,
                    "Database: months must be consecutive");
  }
  // months_seen: fold of |A_m "seen" column|0 under plus.
  // peak_contacts: fold of the contacts column under max.
  const std::vector<std::string> contacts_col{"contacts"};
  for (const MonthlyObservation& obs : months_) {
    const d4m::AssocArray seen =
        obs.sources.logical().row_sum().logical();  // ip -> ("sum", 1)
    months_seen_ = d4m::AssocArray::ewise_add(months_seen_, seen);
    peak_contacts_ = d4m::AssocArray::ewise_max(peak_contacts_,
                                                obs.sources.select_cols(contacts_col));
  }
}

std::size_t Database::distinct_sources() const { return months_seen_.row_keys().size(); }

std::optional<SourceProfile> Database::lookup(const std::string& ip) const {
  if (!months_seen_.has_row(ip)) return std::nullopt;
  SourceProfile profile;
  profile.ip = ip;
  profile.months_seen = static_cast<int>(months_seen_.at(ip, "sum"));
  profile.peak_contacts = peak_contacts_.at(ip, "contacts");
  for (const MonthlyObservation& obs : months_) {
    const auto row = obs.sources.row(ip);
    if (row.empty()) continue;
    if (!profile.first_seen) profile.first_seen = obs.month;
    profile.last_seen = obs.month;
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
  return profile;
}

std::vector<std::string> Database::persistent_sources(int min_months) const {
  OBSCORR_REQUIRE(min_months >= 1, "persistent_sources: min_months must be >= 1");
  std::vector<std::string> out;
  for (const std::string& key : months_seen_.row_keys()) {
    if (months_seen_.at(key, "sum") >= static_cast<double>(min_months)) out.push_back(key);
  }
  return out;
}

}  // namespace obscorr::honeyfarm
