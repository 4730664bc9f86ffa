#pragma once
/// \file database.hpp
/// The outpost's query service: what the honeyfarm actually sells is a
/// lookup API over its accumulated monthly catalogs ("have you seen this
/// IP? what is it? how noisy?"). `Database` answers per-source queries
/// from validated, address-keyed views of the monthly associative arrays
/// (d4m::AssocView::from_ip_bytes, straight over the archived entries),
/// which carry their rows' u32 rank keys (d4m/gbl_bridge.hpp): a lookup
/// parses the query once, binary-searches each month's ranks and reads
/// that one row by index, and the distinct-source count is one merge over
/// the months' sorted rank spans. The month views are built as pool
/// tasks.
///
/// The paper's D4M formulation of the same answers, months seen as the
/// plus fold of |A_m|₀·1 and peak activity as the max fold of the
/// contacts column, is the test oracle (tests/honeyfarm/fold_oracle.hpp,
/// over the triple-formulation algebra of tests/d4m/assoc_oracle.hpp),
/// not the query path: src/d4m holds the arrays and their views, not
/// the algebra.

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "d4m/assoc.hpp"
#include "honeyfarm/honeyfarm.hpp"

namespace obscorr::honeyfarm {

/// The answer to a source lookup.
struct SourceProfile {
  std::string ip;
  int months_seen = 0;                 ///< number of catalog months containing it
  std::optional<YearMonth> first_seen;
  std::optional<YearMonth> last_seen;
  std::string classification;          ///< "malicious" / "benign" / "unknown"
  std::string intent;                  ///< e.g. "scan"; empty for ephemerals
  /// Max monthly contact count over the months whose row holds a
  /// `contacts` cell, taken in month order; 0 when none does.
  double peak_contacts = 0.0;
};

/// One catalog month as the database reads it: its label and an
/// address-keyed view of its associative array (`from_ip_bytes`; see
/// archive::StudyReader::month_view).
struct MonthView {
  YearMonth month;
  d4m::AssocView sources;
};

/// Monthly catalogs with O(log) per-month lookups.
class Database {
 public:
  /// Build over `month_count` chronological months: `month(m)` gives
  /// month m's view, called from `pool` tasks that claim months one at a
  /// time, so it must be safe to call concurrently for distinct months.
  /// Every month is built; then the exception of the first failed month
  /// is rethrown. Throws std::invalid_argument when a view is not keyed
  /// by address or the months are not consecutive. A view that does not
  /// own its bytes (a raw archive entry viewed in the reader's mapping)
  /// needs them to outlive the database. Records one `honeyfarm.database`
  /// span, whose detail is the month count. Safe inside a `pool` task.
  Database(std::size_t month_count, const std::function<MonthView(std::size_t)>& month,
           ThreadPool& pool = ThreadPool::global());

  /// Build over in-memory months: each is encoded with write_binary and
  /// viewed in those bytes, so fresh and archived months share one query
  /// path. A row key that is not a canonical dotted quad throws.
  explicit Database(std::vector<MonthlyObservation> months,
                    ThreadPool& pool = ThreadPool::global());

  std::size_t month_count() const { return months_.size(); }

  /// Distinct sources across the whole span.
  std::size_t distinct_sources() const { return distinct_sources_; }

  /// Full profile for one source; nullopt when never seen, as for any
  /// `ip` that is not a canonical dotted quad.
  std::optional<SourceProfile> lookup(const std::string& ip) const;

 private:
  std::vector<MonthView> months_;
  std::size_t distinct_sources_ = 0;
};

}  // namespace obscorr::honeyfarm
