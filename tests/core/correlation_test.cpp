#include "core/correlation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>

#include "common/binning.hpp"
#include "correlation_oracle.hpp"

namespace obscorr::core {
namespace {

class CorrelationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pool_ = new ThreadPool(2);
    study_ = new StudyData(run_study(netgen::Scenario::paper(/*log2_nv=*/16, /*seed=*/42), *pool_));
  }
  static void TearDownTestSuite() {
    delete study_;
    delete pool_;
    study_ = nullptr;
    pool_ = nullptr;
  }
  static StudyData* study_;
  static ThreadPool* pool_;
};

StudyData* CorrelationTest::study_ = nullptr;
ThreadPool* CorrelationTest::pool_ = nullptr;

TEST_F(CorrelationTest, BinSourcesPartitionTheSnapshot) {
  const SnapshotData& snap = study_->snapshots[0];
  std::size_t total = 0;
  const int max_bin = log2_bin(static_cast<std::uint64_t>(snap.source_packets.reduce_max()));
  for (int b = 0; b <= max_bin; ++b) {
    const auto keys = oracle::bin_sources(snap, b);
    total += keys.size();
    for (const std::string& key : keys) {
      const double d = d4m::oracle::at(snap.sources, key, "packets");
      EXPECT_EQ(log2_bin(static_cast<std::uint64_t>(d)), b) << key;
    }
  }
  EXPECT_EQ(total, snap.sources.row_keys().size());
}

TEST_F(CorrelationTest, PeakCorrelationFractionsAreValid) {
  const auto bins = peak_correlation_all(*study_);
  ASSERT_GT(bins.size(), 5u);
  std::uint64_t total_sources = 0;
  for (const auto& b : bins) {
    EXPECT_LE(b.matched, b.caida_sources);
    EXPECT_GE(b.fraction, 0.0);
    EXPECT_LE(b.fraction, 1.0);
    EXPECT_GE(b.model, 0.0);
    EXPECT_LE(b.model, 1.0);
    total_sources += b.caida_sources;
  }
  std::uint64_t expected = 0;
  for (const auto& s : study_->snapshots) expected += s.sources.row_keys().size();
  EXPECT_EQ(total_sources, expected);
}

TEST_F(CorrelationTest, BrightSourcesNearlyAlwaysSeen) {
  // Paper Fig. 4: above sqrt(N_V) (bin 8 at 2^16) the overlap ~ 1.
  const auto bins = peak_correlation_all(*study_);
  const int threshold_bin = 8;
  for (const auto& b : bins) {
    if (b.bin >= threshold_bin && b.caida_sources >= 20) {
      EXPECT_GT(b.fraction, 0.9) << "bin " << b.bin;
    }
  }
}

TEST_F(CorrelationTest, DimSourceOverlapTracksLogLaw) {
  const auto bins = peak_correlation_all(*study_);
  for (const auto& b : bins) {
    if (b.bin >= 1 && b.bin <= 6 && b.caida_sources >= 200) {
      EXPECT_NEAR(b.fraction, b.model, 0.12) << "bin " << b.bin;
    }
  }
  // And monotone increase with brightness over the well-populated range.
  for (std::size_t i = 2; i < bins.size() && bins[i].caida_sources >= 100; ++i) {
    EXPECT_GE(bins[i].fraction, bins[i - 1].fraction - 0.05) << "bin " << bins[i].bin;
  }
}

TEST_F(CorrelationTest, ModelColumnIsPaperFormula) {
  const auto bins = peak_correlation_all(*study_);
  const double half_log_nv = study_->half_log_nv();
  for (const auto& b : bins) {
    EXPECT_NEAR(b.model, std::min(1.0, (b.bin + 0.5) / half_log_nv), 1e-12);
  }
}

TEST_F(CorrelationTest, TemporalCurvePeaksNearCoevalMonth) {
  const auto curve = temporal_correlation(study_->snapshots[0], *study_, /*bin=*/5, 20);
  ASSERT_TRUE(curve.has_value());
  ASSERT_EQ(curve->series.dt.size(), study_->months.size());
  // Find the dt=0 sample and check it is the maximum.
  double at_zero = -1.0, best = -1.0;
  for (std::size_t i = 0; i < curve->series.dt.size(); ++i) {
    if (curve->series.dt[i] == 0.0) at_zero = curve->series.fraction[i];
    best = std::max(best, curve->series.fraction[i]);
  }
  EXPECT_GE(at_zero, best - 0.05);
  EXPECT_GT(at_zero, 0.3);
}

TEST_F(CorrelationTest, TemporalCurveDecaysToBackgroundNotZero) {
  const auto curve = temporal_correlation(study_->snapshots[0], *study_, /*bin=*/4, 20);
  ASSERT_TRUE(curve.has_value());
  double at_zero = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < curve->series.dt.size(); ++i) {
    if (curve->series.dt[i] == 0.0) at_zero = curve->series.fraction[i];
    if (curve->series.dt[i] >= 8.0) tail = std::max(tail, curve->series.fraction[i]);
  }
  EXPECT_LT(tail, at_zero * 0.85);  // real decay
  EXPECT_GT(tail, 0.0);             // but a floor remains
}

TEST_F(CorrelationTest, ModifiedCauchyFitsBestOnTemporalCurves) {
  // The paper's Fig. 5 ordering: modified Cauchy <= Cauchy and Gaussian.
  int wins = 0, curves = 0;
  for (int bin = 2; bin <= 6; ++bin) {
    const auto curve = temporal_correlation(study_->snapshots[0], *study_, bin, 30);
    if (!curve) continue;
    ++curves;
    if (curve->modified_cauchy.residual <= curve->cauchy.residual + 1e-9 &&
        curve->modified_cauchy.residual <= curve->gaussian.residual + 1e-9) {
      ++wins;
    }
  }
  ASSERT_GT(curves, 2);
  EXPECT_EQ(wins, curves);  // the 3-parameter family dominates by construction
}

TEST_F(CorrelationTest, SmallBinsAreRejected) {
  const auto curve = temporal_correlation(study_->snapshots[0], *study_, /*bin=*/30, 20);
  EXPECT_FALSE(curve.has_value());
}

TEST_F(CorrelationTest, FitGridCoversSnapshotsAndBins) {
  const auto grid = fit_grid(*study_, 30);
  ASSERT_GT(grid.size(), 20u);
  std::set<std::size_t> snapshots_seen;
  for (const auto& cell : grid) {
    snapshots_seen.insert(cell.snapshot);
    EXPECT_GE(cell.curve.bin_sources, 30u);
    EXPECT_GT(cell.curve.modified_cauchy.model.alpha, 0.0);
    EXPECT_GT(cell.curve.modified_cauchy.model.beta, 0.0);
  }
  EXPECT_EQ(snapshots_seen.size(), study_->snapshots.size());
}

TEST_F(CorrelationTest, FitAlphaInPaperRange) {
  // Fig. 7: alpha scatters around ~1 (the paper shows ~0.2..1.6).
  const auto grid = fit_grid(*study_, 100);
  ASSERT_GT(grid.size(), 10u);
  double sum = 0.0;
  for (const auto& cell : grid) {
    EXPECT_GT(cell.curve.modified_cauchy.model.alpha, 0.1);
    EXPECT_LT(cell.curve.modified_cauchy.model.alpha, 2.5);
    sum += cell.curve.modified_cauchy.model.alpha;
  }
  const double mean = sum / static_cast<double>(grid.size());
  EXPECT_GT(mean, 0.4);
  EXPECT_LT(mean, 1.5);
}

TEST_F(CorrelationTest, OneMonthDropInPaperRange) {
  // Fig. 8: drops between ~10% and ~50%, peaking at mid brightness.
  const auto grid = fit_grid(*study_, 100);
  double max_drop = 0.0;
  for (const auto& cell : grid) {
    const double drop = cell.curve.modified_cauchy.model.one_month_drop();
    // Near-flat curves (a bright bin whose few sources never churn) can
    // fit arbitrarily large beta, so only the upper bound is universal.
    EXPECT_LT(drop, 0.6);
    max_drop = std::max(max_drop, drop);
  }
  EXPECT_GT(max_drop, 0.15);  // the churny mid-brightness bins are there
}

TEST_F(CorrelationTest, CountsAndFitsMatchThePerSourceOracle) {
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    for (const std::uint64_t min_sources : {0u, 20u, 100u}) {
      oracle::expect_matches_oracle(study_->snapshots, study_->months, study_->half_log_nv(),
                                    min_sources, pool,
                                    std::to_string(threads) + " threads, min_sources " +
                                        std::to_string(min_sources));
    }
  }
}

TEST_F(CorrelationTest, PeakCorrelationRequiresValidHalfLogNv) {
  EXPECT_THROW(
      peak_correlation(study_->snapshots[0], study_->months[4], 0.0),
      std::invalid_argument);
}

/// A one-column "packets" snapshot over `keys` (any order) with the given
/// counts, plus an unrelated column on every third row; its source
/// reduction carries the same counts, so fit_grid enumerates its bins.
SnapshotData synthetic_snapshot(const std::vector<std::string>& keys,
                                const std::vector<double>& packets, int month_index) {
  std::vector<d4m::oracle::Triple> triples;
  std::vector<gbl::Index> ids;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    triples.push_back({keys[i], "packets", packets[i]});
    if (i % 3 == 0) triples.push_back({keys[i], "aa_other", 7.0});
    ids.push_back(static_cast<gbl::Index>(i));
  }
  SnapshotData snap;
  snap.month_index = month_index;
  snap.sources = d4m::oracle::build(std::move(triples));
  snap.source_packets = gbl::SparseVec(std::move(ids), packets);
  return snap;
}

honeyfarm::MonthlyObservation synthetic_month(const std::vector<std::string>& keys) {
  std::vector<d4m::oracle::Triple> triples;
  for (const std::string& key : keys) triples.push_back({key, "classification|malicious", 1.0});
  honeyfarm::MonthlyObservation month;
  month.sources = d4m::oracle::build(std::move(triples));
  return month;
}

TEST(CorrelationOracleTest, GallopingMergeMatchesLookupsOnRandomKeySets) {
  // Key sets from a few to thousands of keys, dense and sparse against
  // each other, with overlaps from none to all: every count, series and
  // fit must equal the per-source lookups.
  std::mt19937_64 rng(20260907);
  std::vector<std::string> universe;
  for (int i = 0; i < 6000; ++i) {
    universe.push_back(std::to_string(rng() % 256) + "." + std::to_string(rng() % 256) + "." +
                       std::to_string(rng() % 256) + "." + std::to_string(rng() % 256));
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()), universe.end());
  const auto subset = [&](double p) {
    std::vector<std::string> keys;
    std::bernoulli_distribution keep(p);
    for (const std::string& key : universe) {
      if (keep(rng)) keys.push_back(key);
    }
    return keys;
  };
  ThreadPool pool(4);
  for (const double snapshot_share : {0.001, 0.05, 0.5, 1.0}) {
    std::vector<SnapshotData> snapshots;
    for (int k = 0; k < 3; ++k) {
      const std::vector<std::string> keys = subset(snapshot_share);
      std::vector<double> packets;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        // Log-uniform counts over bins 0-11, some below 1 (untracked).
        packets.push_back(i % 17 == 0 ? 0.5 : std::floor(std::exp2(static_cast<double>(rng() % 1200) / 100.0)));
      }
      snapshots.push_back(synthetic_snapshot(keys, packets, k + 1));
    }
    std::vector<honeyfarm::MonthlyObservation> months;
    for (const double month_share : {0.0, 0.002, 0.3, 0.9, 1.0}) {
      months.push_back(synthetic_month(subset(month_share)));
    }
    oracle::expect_matches_oracle(snapshots, months, 6.0, 0, pool,
                                  "snapshot share " + std::to_string(snapshot_share));
  }
}

TEST(CorrelationOracleTest, EdgeKeySetsMatchLookups) {
  // Month keys entirely below, entirely above, interleaved with and
  // equal to the snapshot's; an empty month and an empty snapshot; and a
  // snapshot whose assoc array has no "packets" column at all.
  const std::vector<std::string> snap_keys = {"5.0.0.1", "5.0.0.3", "5.0.0.5", "5.0.0.7"};
  const SnapshotData snap = synthetic_snapshot(snap_keys, {1.0, 2.0, 3.0, 900.0}, 2);
  std::vector<honeyfarm::MonthlyObservation> months = {
      synthetic_month({"1.0.0.1", "1.0.0.2"}),
      synthetic_month({"9.0.0.1", "9.9.9.9"}),
      synthetic_month({"5.0.0.0", "5.0.0.2", "5.0.0.4", "5.0.0.6", "5.0.0.8"}),
      synthetic_month(snap_keys),
      synthetic_month({}),
      synthetic_month({"5.0.0.7"}),
  };
  ThreadPool pool(2);
  const std::vector<SnapshotData> one = {snap};
  oracle::expect_matches_oracle(one, months, 6.0, 0, pool, "edges");
  oracle::expect_matches_oracle(one, months, 6.0, 1, pool, "edges, min 1");
  const std::vector<SnapshotData> empty = {synthetic_snapshot({}, {}, 0)};
  oracle::expect_matches_oracle(empty, months, 6.0, 0, pool, "empty snapshot");

  SnapshotData no_packets = snap;
  no_packets.sources = d4m::oracle::build({{"5.0.0.1", "bytes", 10.0}});
  const std::vector<SnapshotData> unpacketed = {no_packets};
  oracle::expect_matches_oracle(unpacketed, months, 6.0, 0, pool, "no packets column");
}

}  // namespace
}  // namespace obscorr::core
