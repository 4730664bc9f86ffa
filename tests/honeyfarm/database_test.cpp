#include "honeyfarm/database.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "fold_oracle.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace obscorr::honeyfarm {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    netgen::PopulationConfig pc;
    pc.population = 4096;
    pc.log2_nv = 14;
    pc.seed = 42;
    population_ = new netgen::Population(pc);
    netgen::VisibilityModel vis;
    vis.log2_nv = 14;
    const Honeyfarm farm(*population_, vis, 7);
    months_ = new std::vector<MonthlyObservation>();
    for (int m = 0; m < 6; ++m) {
      months_->push_back(farm.observe_month(
          {YearMonth(2020, 2).plus_months(m), 1.0, /*ephemeral=*/0.05}, m));
    }
    db_ = new Database(*months_);
    oracle_ = new FoldOracle(*months_);
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete db_;
    delete months_;
    delete population_;
    oracle_ = nullptr;
    db_ = nullptr;
    months_ = nullptr;
    population_ = nullptr;
  }
  static netgen::Population* population_;
  static std::vector<MonthlyObservation>* months_;
  static Database* db_;
  static FoldOracle* oracle_;
};

netgen::Population* DatabaseTest::population_ = nullptr;
std::vector<MonthlyObservation>* DatabaseTest::months_ = nullptr;
Database* DatabaseTest::db_ = nullptr;
FoldOracle* DatabaseTest::oracle_ = nullptr;

TEST_F(DatabaseTest, BasicCounts) {
  EXPECT_EQ(db_->month_count(), 6u);
  EXPECT_GT(db_->distinct_sources(), 100u);
}

TEST_F(DatabaseTest, LookupUnknownSourceIsEmpty) {
  EXPECT_FALSE(db_->lookup("203.0.113.99").has_value());
}

TEST_F(DatabaseTest, MonthsSeenMatchesManualCount) {
  // Cross-check a sample of the fold oracle's rows for consistency.
  const auto keys = oracle_->months_seen().row_keys();
  ASSERT_GT(keys.size(), 10u);
  for (std::size_t i = 0; i < keys.size(); i += keys.size() / 10) {
    const auto profile = db_->lookup(keys[i]);
    ASSERT_TRUE(profile.has_value()) << keys[i];
    EXPECT_GE(profile->months_seen, 1);
    EXPECT_LE(profile->months_seen, 6);
    ASSERT_TRUE(profile->first_seen.has_value());
    ASSERT_TRUE(profile->last_seen.has_value());
    EXPECT_LE(profile->first_seen->months_since(*profile->last_seen), 0);
    // A source cannot be seen in more months than its first..last span.
    EXPECT_LE(profile->months_seen,
              profile->last_seen->months_since(*profile->first_seen) + 1);
  }
}

TEST_F(DatabaseTest, ProfileFacetsForPopulationSources) {
  // The brightest persistent source must have full enrichment.
  const auto persistent = oracle_->persistent_sources(4);
  ASSERT_FALSE(persistent.empty());
  const auto profile = db_->lookup(persistent.front());
  ASSERT_TRUE(profile.has_value());
  EXPECT_FALSE(profile->classification.empty());
  EXPECT_GE(profile->peak_contacts, 1.0);
}

TEST_F(DatabaseTest, PersistentSourcesShrinkWithThreshold) {
  // The persistent populations of the oracle's months-seen array: each
  // member's lookup is seen in at least the threshold's months.
  const auto p1 = oracle_->persistent_sources(1);
  const auto p3 = oracle_->persistent_sources(3);
  const auto p6 = oracle_->persistent_sources(6);
  EXPECT_GT(p1.size(), p3.size());
  EXPECT_GT(p3.size(), p6.size());
  EXPECT_EQ(p1.size(), db_->distinct_sources());
  for (const std::string& ip : p3) {
    const auto profile = db_->lookup(ip);
    ASSERT_TRUE(profile.has_value()) << ip;
    EXPECT_GE(profile->months_seen, 3) << ip;
    EXPECT_EQ(profile->months_seen == 6,
              std::binary_search(p6.begin(), p6.end(), ip)) << ip;
  }
}

TEST_F(DatabaseTest, PeakContactsIsMaxAcrossMonths) {
  const auto persistent = oracle_->persistent_sources(5);
  ASSERT_FALSE(persistent.empty());
  const std::string& ip = persistent.front();
  const double peak = db_->lookup(ip)->peak_contacts;
  EXPECT_EQ(peak, d4m::oracle::at(oracle_->peak_contacts(), ip, "contacts"));
  EXPECT_GE(peak, 1.0);
  // Peak must be attained in some month and never exceeded.
  netgen::VisibilityModel vis;
  vis.log2_nv = 14;
  const Honeyfarm farm(*population_, vis, 7);
  double best = 0.0;
  for (int m = 0; m < 6; ++m) {
    const auto obs =
        farm.observe_month({YearMonth(2020, 2).plus_months(m), 1.0, 0.05}, m);
    best = std::max(best, d4m::oracle::at(obs.sources, ip, "contacts"));
  }
  EXPECT_EQ(peak, best);
}

TEST_F(DatabaseTest, EphemeralSourcesAppearOnce) {
  // One-month noise sources should have months_seen == 1.
  int ephemeral_checked = 0;
  for (const std::string& ip : oracle_->months_seen().row_keys()) {
    const auto parsed = Ipv4::parse(ip);
    ASSERT_TRUE(parsed.has_value());
    if (population_->owns_ip(*parsed)) continue;
    const auto profile = db_->lookup(ip);
    ASSERT_TRUE(profile.has_value());
    EXPECT_EQ(profile->months_seen, 1) << ip;
    EXPECT_EQ(profile->classification, "unknown") << ip;
    if (++ephemeral_checked > 50) break;
  }
  EXPECT_GT(ephemeral_checked, 10);
}

TEST_F(DatabaseTest, LookupMatchesSelectColsPrefixScan) {
  expect_matches_oracle(*db_, *months_, {"203.0.113.99", ""});
}

TEST_F(DatabaseTest, PoolSizeDoesNotChangeTheAnswers) {
  const auto keys = oracle_->months_seen().row_keys();
  const auto expect_same_answers = [&](const Database& db) {
    EXPECT_EQ(db.distinct_sources(), db_->distinct_sources());
    for (std::size_t i = 0; i < keys.size(); i += 7) {
      expect_same_profile(db.lookup(keys[i]), db_->lookup(keys[i]), keys[i]);
    }
  };
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThreadPool pool(threads);
    expect_same_answers(Database(*months_, pool));
    // A build from inside the pool's own tasks, as a daemon request's.
    parallel_for(pool, 0, 2, [&](std::size_t, std::size_t) {
      expect_same_answers(Database(*months_, pool));
    });
  }
}

TEST_F(DatabaseTest, NonCanonicalQueriesFindNothing) {
  const std::string& real = oracle_->months_seen().row_keys().front();
  ASSERT_TRUE(db_->lookup(real).has_value());
  // Other spellings of a catalogued address, and texts no address has.
  for (const std::string& probe :
       {std::string(), std::string("10.0.0."), "0" + real, real + " ", " " + real, "+" + real,
        real + ".", real.substr(0, real.rfind('.')), std::string("203.0.113.7")}) {
    EXPECT_FALSE(db_->lookup(probe).has_value()) << '"' << probe << '"';
  }
}

/// A month from hand-written exploded-schema triples.
MonthlyObservation synthetic_month(int offset, std::vector<d4m::oracle::Triple> triples) {
  MonthlyObservation obs;
  obs.month = YearMonth(2020, 2).plus_months(offset);
  obs.sources = d4m::oracle::build(std::move(triples));
  return obs;
}

TEST_F(DatabaseTest, LookupFollowsProfileRulesOnSyntheticMonths) {
  std::vector<MonthlyObservation> months;
  months.push_back(synthetic_month(0, {
      // Labels at or below zero are not labels: unknown is the first
      // positive classification.
      {"10.0.0.1", "classification|benign", 0.0},
      {"10.0.0.1", "classification|malicious", -1.0},
      {"10.0.0.1", "classification|unknown", 1.0},
      {"10.0.0.1", "intent|scan", 1.0},
      {"10.0.0.1", "contacts", 5.0},
      // No classification yet; its intent is re-read next months.
      {"10.0.0.2", "intent|worm", 1.0},
      {"10.0.0.2", "contacts", 2.0},
      // Never a positive classification.
      {"10.0.0.4", "classification|benign", -2.0},
      {"10.0.0.4", "contacts", 1.0},
  }));
  months.push_back(synthetic_month(1, {
      {"10.0.0.2", "intent|backscatter", 0.0},
      {"10.0.0.2", "contacts", 3.0},
      // No intent at all.
      {"10.0.0.3", "classification|benign", 1.0},
      {"10.0.0.3", "protocol|tcp", 1.0},
      {"10.0.0.3", "contacts", 4.0},
  }));
  months.push_back(synthetic_month(2, {
      // The classification appears only in this later month, with a new
      // intent read in the same month.
      {"10.0.0.2", "classification|malicious", 1.0},
      {"10.0.0.2", "intent|scan", 1.0},
      {"10.0.0.2", "contacts", 1.0},
      // Once classified, later months do not touch the facets.
      {"10.0.0.1", "classification|benign", 1.0},
      {"10.0.0.1", "intent|worm", 1.0},
      {"10.0.0.1", "contacts", 9.0},
      {"10.0.0.4", "classification|unknown", 0.0},
      {"10.0.0.4", "contacts", 1.0},
      // A row key that extends another one textually.
      {"10.0.0.10", "classification|benign", 1.0},
      {"10.0.0.10", "contacts", 1.0},
  }));
  const Database db(months);
  expect_matches_oracle(db, months, {"10.0.0.", "10.0.0.5", ""});

  const auto first = db.lookup("10.0.0.1");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->classification, "unknown");
  EXPECT_EQ(first->intent, "scan");
  EXPECT_EQ(first->months_seen, 2);
  EXPECT_EQ(first->peak_contacts, 9.0);

  const auto late = db.lookup("10.0.0.2");
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(late->classification, "malicious");
  EXPECT_EQ(late->intent, "scan");
  EXPECT_EQ(late->months_seen, 3);
  EXPECT_EQ(late->first_seen, YearMonth(2020, 2));
  EXPECT_EQ(late->last_seen, YearMonth(2020, 4));
  EXPECT_EQ(late->peak_contacts, 3.0);

  const auto no_intent = db.lookup("10.0.0.3");
  ASSERT_TRUE(no_intent.has_value());
  EXPECT_EQ(no_intent->classification, "benign");
  EXPECT_EQ(no_intent->intent, "");

  const auto unlabelled = db.lookup("10.0.0.4");
  ASSERT_TRUE(unlabelled.has_value());
  EXPECT_EQ(unlabelled->classification, "");
  EXPECT_EQ(unlabelled->intent, "");
  EXPECT_EQ(unlabelled->months_seen, 2);

  const auto extended = db.lookup("10.0.0.10");
  ASSERT_TRUE(extended.has_value());
  EXPECT_EQ(extended->months_seen, 1);
  EXPECT_EQ(extended->classification, "benign");
  EXPECT_FALSE(db.lookup("10.0.0.").has_value());
}

TEST(DatabaseEdgeTest, MatchesFoldOracleOnEdgeMonths) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<MonthlyObservation> months;
  months.push_back(synthetic_month(0, {
      // Only stored zeros: still a row, so still seen.
      {"10.0.0.1", "classification|benign", 0.0},
      {"10.0.0.1", "contacts", 0.0},
      // Negative contacts.
      {"10.0.0.2", "classification|malicious", 1.0},
      {"10.0.0.2", "contacts", -7.0},
      // No contacts cell this month.
      {"10.0.0.3", "intent|scan", 1.0},
  }));
  // A month with no contacts column at all.
  months.push_back(synthetic_month(1, {
      {"10.0.0.2", "intent|worm", 1.0},
      {"10.0.0.3", "classification|unknown", 1.0},
      {"10.0.0.4", "protocol|tcp", 0.0},
  }));
  // An empty month.
  months.push_back(synthetic_month(2, {}));
  months.push_back(synthetic_month(3, {
      {"10.0.0.2", "contacts", -3.0},
      {"10.0.0.3", "contacts", nan},
      {"10.0.0.1", "contacts", 0.0},
  }));
  months.push_back(synthetic_month(4, {
      {"10.0.0.3", "contacts", 2.0},
      // Seen only in the last month.
      {"9.9.9.9", "classification|benign", 1.0},
      {"9.9.9.9", "contacts", 4.0},
  }));
  const Database db(months);
  expect_matches_oracle(db, months, {"10.0.0.", "10.0.0.5", "203.0.113.7", ""});

  const auto zeros = db.lookup("10.0.0.1");
  ASSERT_TRUE(zeros.has_value());
  EXPECT_EQ(zeros->months_seen, 2);
  EXPECT_EQ(zeros->classification, "");
  EXPECT_EQ(zeros->peak_contacts, 0.0);

  const auto negative = db.lookup("10.0.0.2");
  ASSERT_TRUE(negative.has_value());
  EXPECT_EQ(negative->peak_contacts, -3.0);  // not floored at zero

  // std::max(NaN, 2) keeps the NaN, as the max fold does.
  EXPECT_TRUE(std::isnan(db.lookup("10.0.0.3")->peak_contacts));
  EXPECT_EQ(db.lookup("10.0.0.4")->peak_contacts, 0.0);  // no contacts cell anywhere

  const auto late = db.lookup("9.9.9.9");
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(late->first_seen, YearMonth(2020, 6));
  EXPECT_EQ(late->months_seen, 1);
  EXPECT_EQ(db.distinct_sources(), 5u);  // 10.0.0.1-4 and the late 9.9.9.9
}

TEST(DatabaseSpanTest, OneSpanPerBuild) {
  std::vector<MonthlyObservation> months;
  for (int m = 0; m < 3; ++m) {
    months.push_back(synthetic_month(m, {{"10.0.0.1", "contacts", 1.0 + m}}));
  }
  obs::reset();
  obs::set_level(obs::Level::kFull);
  const Database db(months);
  (void)db.lookup("10.0.0.1");
  (void)db.lookup("10.0.0.2");
  obs::set_level(obs::Level::kOff);
  std::vector<std::string> details;
  for (const obs::SpanEvent& e : obs::span_events()) {
    if (std::string_view(e.name) == "honeyfarm.database") details.push_back(e.detail);
  }
  obs::reset();
  EXPECT_EQ(details, std::vector<std::string>{"3"});
}

TEST(DatabaseValidationTest, RethrowsTheFirstFailedMonth) {
  const auto month = [](std::size_t m) -> MonthView {
    if (m == 2 || m == 4) throw std::invalid_argument("month " + std::to_string(m));
    return MonthView{YearMonth(2020, 2).plus_months(static_cast<int>(m)), d4m::AssocView()};
  };
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    try {
      const Database db(6, month, pool);
      ADD_FAILURE() << "failed months were accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "month 2") << "threads " << threads;
    }
  }
}

TEST(DatabaseValidationTest, RejectsMonthsNotKeyedByCanonicalAddresses) {
  std::vector<MonthlyObservation> months;
  months.push_back(synthetic_month(0, {{"10.0.0.1", "contacts", 1.0}}));
  months.push_back(synthetic_month(1, {{"1.2.3.04", "contacts", 1.0}, {"10.0.0.1", "c", 1.0}}));
  try {
    const Database db(months);
    ADD_FAILURE() << "a month with a non-canonical row key was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "read_binary: row key is not a canonical dotted quad");
  }
  // A view that is not keyed by address carries no ranks to search.
  std::string plain;
  months[0].sources.write_binary(plain);
  const auto bytes = std::as_bytes(std::span<const char>(plain.data(), plain.size()));
  EXPECT_THROW(Database(1,
                        [&](std::size_t) {
                          return MonthView{months[0].month, d4m::AssocView::from_bytes(bytes)};
                        }),
               std::invalid_argument);
}

TEST(DatabaseValidationTest, RejectsEmptyAndGappyMonths) {
  EXPECT_THROW(Database({}), std::invalid_argument);
  netgen::PopulationConfig pc;
  pc.population = 256;
  pc.log2_nv = 12;
  const netgen::Population pop(pc);
  netgen::VisibilityModel vis;
  vis.log2_nv = 12;
  const Honeyfarm farm(pop, vis, 1);
  std::vector<MonthlyObservation> gappy;
  gappy.push_back(farm.observe_month({YearMonth(2020, 2), 1.0, 0.0}, 0));
  gappy.push_back(farm.observe_month({YearMonth(2020, 4), 1.0, 0.0}, 2));  // gap!
  EXPECT_THROW(Database(std::move(gappy)), std::invalid_argument);
}

}  // namespace
}  // namespace obscorr::honeyfarm
