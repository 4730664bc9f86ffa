#pragma once
/// \file fold_oracle.hpp
/// The test oracle for honeyfarm::Database: the paper's D4M formulation
/// of the same answers, over in-memory months, in the triple-formulation
/// algebra of tests/d4m/assoc_oracle.hpp. Months seen is the plus fold
/// of |A_m|₀·1 and peak contacts the max fold of the contacts column,
/// both over the union of cells, in month order. Each facet label is the
/// first column of the month's whole `select_cols_prefix` sub-array (key
/// order) holding a positive value for the source, searched while the
/// classification is still unset.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "../d4m/assoc_oracle.hpp"
#include "honeyfarm/database.hpp"
#include "honeyfarm/honeyfarm.hpp"

namespace obscorr::honeyfarm {

class FoldOracle {
 public:
  /// `months` must outlive the oracle.
  explicit FoldOracle(const std::vector<MonthlyObservation>& months) : months_(months) {
    using namespace d4m::oracle;
    const std::vector<std::string> contacts_col{"contacts"};
    for (const MonthlyObservation& obs : months_) {
      months_seen_ = ewise_add(months_seen_,
                               logical(row_sum(logical(obs.sources))));  // ip -> ("sum", 1)
      peak_contacts_ = ewise_max(peak_contacts_, select_cols(obs.sources, contacts_col));
      cls_.push_back(select_cols_prefix(obs.sources, "classification|"));
      intent_.push_back(select_cols_prefix(obs.sources, "intent|"));
    }
  }

  /// ip -> ("sum", months holding the ip).
  const d4m::AssocArray& months_seen() const { return months_seen_; }

  /// ip -> ("contacts", peak monthly contacts).
  const d4m::AssocArray& peak_contacts() const { return peak_contacts_; }

  std::size_t distinct_sources() const { return months_seen_.row_keys().size(); }

  /// The sources seen in at least `min_months` months, in key order: the
  /// "persistent scanner" population (drifting-beam members).
  std::vector<std::string> persistent_sources(int min_months) const {
    std::vector<std::string> out;
    for (const std::string& key : months_seen_.row_keys()) {
      if (d4m::oracle::at(months_seen_, key, "sum") >= static_cast<double>(min_months)) {
        out.push_back(key);
      }
    }
    return out;
  }

  std::optional<SourceProfile> lookup(const std::string& ip) const {
    using d4m::oracle::at;
    using d4m::oracle::has_row;
    if (!has_row(months_seen_, ip)) return std::nullopt;
    SourceProfile profile;
    profile.ip = ip;
    profile.months_seen = static_cast<int>(at(months_seen_, ip, "sum"));
    profile.peak_contacts = at(peak_contacts_, ip, "contacts");
    for (std::size_t m = 0; m < months_.size(); ++m) {
      const d4m::AssocArray& month = months_[m].sources;
      if (!has_row(month, ip)) continue;
      if (!profile.first_seen) profile.first_seen = months_[m].month;
      profile.last_seen = months_[m].month;
      if (!profile.classification.empty()) continue;
      for (const std::string& col : cls_[m].col_keys()) {
        if (at(month, ip, col) > 0.0) {
          profile.classification = col.substr(std::string("classification|").size());
          break;
        }
      }
      for (const std::string& col : intent_[m].col_keys()) {
        if (at(month, ip, col) > 0.0) {
          profile.intent = col.substr(std::string("intent|").size());
          break;
        }
      }
    }
    return profile;
  }

 private:
  const std::vector<MonthlyObservation>& months_;
  d4m::AssocArray months_seen_;
  d4m::AssocArray peak_contacts_;
  std::vector<d4m::AssocArray> cls_;
  std::vector<d4m::AssocArray> intent_;
};

inline void expect_same_profile(const std::optional<SourceProfile>& got,
                                const std::optional<SourceProfile>& want, const std::string& ip) {
  ASSERT_EQ(got.has_value(), want.has_value()) << ip;
  if (!got) return;
  EXPECT_EQ(got->ip, want->ip) << ip;
  EXPECT_EQ(got->months_seen, want->months_seen) << ip;
  EXPECT_EQ(got->first_seen, want->first_seen) << ip;
  EXPECT_EQ(got->last_seen, want->last_seen) << ip;
  EXPECT_EQ(got->classification, want->classification) << ip;
  EXPECT_EQ(got->intent, want->intent) << ip;
  // Bit for bit: the same values in the same max order, NaN included.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got->peak_contacts),
            std::bit_cast<std::uint64_t>(want->peak_contacts))
      << ip << ": " << got->peak_contacts << " vs " << want->peak_contacts;
}

/// `db` answers exactly as the fold over `months` does: every source's
/// profile (its months seen included), the extra `probes` (absent keys)
/// and the distinct count.
inline void expect_matches_oracle(const Database& db, const std::vector<MonthlyObservation>& months,
                                  const std::vector<std::string>& probes = {}) {
  const FoldOracle oracle(months);
  ASSERT_EQ(db.month_count(), months.size());
  EXPECT_EQ(db.distinct_sources(), oracle.distinct_sources());
  for (const std::string& ip : oracle.months_seen().row_keys()) {
    expect_same_profile(db.lookup(ip), oracle.lookup(ip), ip);
  }
  for (const std::string& ip : probes) expect_same_profile(db.lookup(ip), oracle.lookup(ip), ip);
}

}  // namespace obscorr::honeyfarm
