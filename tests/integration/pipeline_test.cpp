/// End-to-end integration tests: the full paper pipeline — generator ->
/// telescope capture -> CryptoPAN -> hierarchical GraphBLAS matrices ->
/// Table II reductions -> D4M conversion -> honeyfarm correlation ->
/// statistical fits — exercised together, with cross-module invariants
/// that no single-module test can see.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <span>

#include "../d4m/assoc_oracle.hpp"
#include "core/correlation.hpp"
#include "core/degree_analysis.hpp"
#include "core/parallel_capture.hpp"
#include "core/study.hpp"
#include "gbl/quantities.hpp"
#include "netgen/traffic.hpp"
#include "telescope/quadrants.hpp"
#include "telescope/telescope.hpp"

namespace obscorr {
namespace {

std::string binary(const d4m::AssocArray& a) {
  std::string out;
  a.write_binary(out);
  return out;
}

TEST(PipelineTest, GroundTruthFlowsThroughToAnalysis) {
  // The telescope's per-source packet counts, after deanonymization, must
  // agree exactly with an unanonymized reference capture of the same
  // generated stream — anonymization must be analytically lossless.
  const auto scenario = netgen::Scenario::paper(14, 7);
  ThreadPool pool(2);
  const netgen::Population population(scenario.population);
  const netgen::TrafficGenerator generator(population, scenario.traffic);

  telescope::TelescopeConfig cfg;
  cfg.darkspace = scenario.traffic.darkspace;
  cfg.legit_prefixes = {scenario.traffic.legit_prefix};
  telescope::Telescope scope(cfg, pool);

  std::map<std::uint32_t, double> reference;  // raw src -> packets
  generator.stream_window_batched(0, scenario.nv(), 1, [&](std::span<const Packet> batch) {
    for (const Packet& p : batch) {
      if (scope.capture(p)) reference[p.src.value()] += 1.0;
    }
  });
  const gbl::DcsrMatrix matrix = scope.finish_window();
  const gbl::SparseVec anon_sources = matrix.reduce_rows();

  ASSERT_EQ(anon_sources.nnz(), reference.size());
  const auto ids = anon_sources.indices();
  const auto counts = anon_sources.values();
  for (std::size_t i = 0; i < anon_sources.nnz(); ++i) {
    const Ipv4 original = scope.deanonymize(Ipv4(ids[i]));
    const auto it = reference.find(original.value());
    ASSERT_NE(it, reference.end()) << original.to_string();
    EXPECT_EQ(counts[i], it->second) << original.to_string();
  }
}

TEST(PipelineTest, AnonymizedMatrixIsPureExtToIntQuadrant) {
  // Fig. 1 property surviving the full pipeline: partition the anonymized
  // snapshot by the anonymized darkspace; everything is ext->int.
  ThreadPool pool(2);
  const auto scenario = netgen::Scenario::paper(14, 11);
  const netgen::Population population(scenario.population);
  const netgen::TrafficGenerator generator(population, scenario.traffic);
  telescope::TelescopeConfig cfg;
  cfg.darkspace = scenario.traffic.darkspace;
  cfg.legit_prefixes = {scenario.traffic.legit_prefix};
  telescope::Telescope scope(cfg, pool);
  generator.stream_window_batched(0, scenario.nv(), 1,
                                  [&](std::span<const Packet> b) { scope.capture_block(b); });
  const gbl::DcsrMatrix matrix = scope.finish_window();

  const auto q = telescope::partition_quadrants(matrix, scope.anonymized_darkspace());
  EXPECT_EQ(q.external_to_internal.nnz(), matrix.nnz());
  EXPECT_EQ(q.internal_to_external.nnz(), 0u);
  EXPECT_EQ(q.internal_to_internal.nnz(), 0u);
  EXPECT_EQ(q.external_to_external.nnz(), 0u);
}

TEST(PipelineTest, TableTwoQuantitiesOnRealSnapshot) {
  ThreadPool pool(2);
  const auto study = core::run_telescope_only(netgen::Scenario::paper(14, 42), pool);
  const auto q = gbl::aggregate_quantities(study.snapshots[0].matrix);
  EXPECT_EQ(q.valid_packets, std::exp2(14.0));
  EXPECT_GE(q.unique_links, q.unique_sources);
  EXPECT_GE(static_cast<double>(q.unique_links), q.max_source_fanout);
  EXPECT_GE(q.max_source_packets, q.max_link_packets);
  EXPECT_LE(q.max_source_fanout, static_cast<double>(q.unique_destinations));
  EXPECT_GT(q.unique_destinations, 0u);
}

TEST(PipelineTest, SnapshotSourcesMatchTripleFormulation) {
  // Each snapshot's deanonymized source array equals the triple
  // formulation: recapture the window through a fresh telescope, take
  // every source's dotted quad from its dictionary, and build the array
  // with the oracle's `build`. Compared as write_binary bytes, at 1 and 4
  // threads.
  const auto scenario = netgen::Scenario::paper(14, 42);
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const auto study = core::run_telescope_only(scenario, pool);
    const netgen::TrafficGenerator generator(*study.population, scenario.traffic);
    for (const core::SnapshotData& snap : study.snapshots) {
      telescope::Telescope scope(core::scope_config_for(scenario), pool);
      const gbl::DcsrMatrix matrix = core::capture_window(scope, generator, snap.month_index,
                                                          scenario.nv(), snap.spec.salt, pool);
      ASSERT_EQ(matrix, snap.matrix) << snap.spec.start_label;
      std::vector<d4m::oracle::Triple> triples;
      const auto ids = snap.source_packets.indices();
      const auto counts = snap.source_packets.values();
      for (std::size_t i = 0; i < ids.size(); ++i) {
        triples.push_back({scope.deanonymize(Ipv4(ids[i])).to_string(), "packets", counts[i]});
      }
      const d4m::AssocArray reference = d4m::oracle::build(std::move(triples));
      EXPECT_EQ(binary(snap.sources), binary(reference))
          << snap.spec.start_label << " at " << threads << " threads";
    }
  }
}

TEST(PipelineTest, SameMonthOverlapViaD4mAlgebraMatchesKeyIntersection) {
  // Two equivalent formulations of "sources seen by both observatories":
  // assoc-algebra intersection vs sorted key intersection.
  ThreadPool pool(2);
  const auto study = core::run_study(netgen::Scenario::paper(14, 42), pool);
  const core::SnapshotData& snap = study.snapshots[0];
  const auto& month = study.months[static_cast<std::size_t>(snap.month_index)];

  using namespace d4m::oracle;
  const auto keys = shared_keys(snap.sources.row_keys(), month.sources.row_keys());

  // Algebra route: |A_caida|0 row-summed to one "seen" column, then
  // element-wise multiplied with the honeyfarm's "seen" column.
  const d4m::AssocArray caida_seen = logical(row_sum(logical(snap.sources)));
  const d4m::AssocArray gn_seen = logical(row_sum(logical(month.sources)));
  const d4m::AssocArray both = ewise_mult(caida_seen, gn_seen);
  EXPECT_EQ(both.nnz(), keys.size());
  for (const std::string& k : keys) EXPECT_EQ(at(both, k, "sum"), 1.0) << k;
}

TEST(PipelineTest, VisibilityAblationChangesFig4Shape) {
  // Swapping the visibility mechanism must visibly change the Fig. 4
  // curve (that is the point of the ablation): the coverage model
  // saturates far below sqrt(N_V).
  ThreadPool pool(2);
  auto scenario = netgen::Scenario::paper(14, 42);
  const auto log_study = core::run_study(scenario, pool);
  scenario.visibility.kind = netgen::VisibilityKind::kCoverage;
  scenario.visibility.coverage_half = 8.0;
  const auto cov_study = core::run_study(scenario, pool);

  const auto log_bins = core::peak_correlation_all(log_study);
  const auto cov_bins = core::peak_correlation_all(cov_study);
  // At bin 5 (d ~ 32..64, half-way to sqrt(N_V)=2^7): log law ~ 0.75,
  // coverage with half=8 ~ 0.98.
  ASSERT_GT(log_bins.size(), 5u);
  ASSERT_GT(cov_bins.size(), 5u);
  EXPECT_GT(cov_bins[5].fraction, log_bins[5].fraction + 0.1);
}

TEST(PipelineTest, EndToEndFigure5ShapeAtTinyScale) {
  // Even at 2^14 packets the pipeline must recover: peak at dt=0,
  // monotone-ish decay, modified-Cauchy preferred, alpha near 1.
  ThreadPool pool(2);
  const auto study = core::run_study(netgen::Scenario::paper(14, 42), pool);
  const auto curve = core::temporal_correlation(study.snapshots[0], study, /*bin=*/4, 20);
  ASSERT_TRUE(curve.has_value());
  EXPECT_LE(curve->modified_cauchy.residual, curve->gaussian.residual);
  EXPECT_GT(curve->modified_cauchy.model.alpha, 0.1);
  EXPECT_LT(curve->modified_cauchy.model.alpha, 2.5);
}

TEST(PipelineTest, BinaryExportImportPreservesCorrelation) {
  // The trusted-sharing interchange: write the honeyfarm month in the
  // archive's binary form, read it back, and get identical correlation
  // results.
  ThreadPool pool(2);
  const auto study = core::run_study(netgen::Scenario::paper(14, 42), pool);
  const auto& month = study.months[4];
  const std::string encoded = binary(month.sources);
  const d4m::AssocArray restored = d4m::AssocArray::read_binary(
      std::as_bytes(std::span<const char>(encoded.data(), encoded.size())));
  EXPECT_EQ(restored, month.sources);

  honeyfarm::MonthlyObservation month_copy;
  month_copy.month = month.month;
  month_copy.sources = restored;
  const auto before =
      core::peak_correlation(study.snapshots[0], month, study.half_log_nv());
  const auto after =
      core::peak_correlation(study.snapshots[0], month_copy, study.half_log_nv());
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].matched, after[i].matched);
  }
}

}  // namespace
}  // namespace obscorr
