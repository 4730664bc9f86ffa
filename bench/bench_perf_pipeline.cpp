/// End-to-end pipeline throughput: packets/second through
/// generate -> filter -> anonymize -> hierarchical hypersparse matrix,
/// and the downstream reduction + correlation stages — the per-core
/// analogue of the paper's "hundreds of billions of packets in minutes"
/// at datacenter scale.

#include <benchmark/benchmark.h>

#include "core/correlation.hpp"
#include "core/study.hpp"
#include "netgen/traffic.hpp"
#include "telescope/telescope.hpp"

namespace {

using namespace obscorr;

void BM_CaptureWindow(benchmark::State& state) {
  const int log2_nv = static_cast<int>(state.range(0));
  const auto scenario = netgen::Scenario::paper(log2_nv, 42);
  ThreadPool pool(2);
  const netgen::Population population(scenario.population);
  const netgen::TrafficGenerator generator(population, scenario.traffic);
  telescope::TelescopeConfig cfg;
  cfg.darkspace = scenario.traffic.darkspace;
  cfg.legit_prefixes = {scenario.traffic.legit_prefix};
  telescope::Telescope scope(cfg, pool);
  for (auto _ : state) {
    generator.stream_window_batched(0, scenario.nv(), 1,
                                    [&](std::span<const Packet> b) { scope.capture_block(b); });
    benchmark::DoNotOptimize(scope.finish_window());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(scenario.nv()));
}
BENCHMARK(BM_CaptureWindow)->Arg(14)->Arg(16)->Arg(18)->Unit(benchmark::kMillisecond);

void BM_SnapshotReduceAndConvert(benchmark::State& state) {
  // Table II reduction + trusted deanonymization + D4M conversion.
  const auto scenario = netgen::Scenario::paper(16, 42);
  ThreadPool pool(2);
  const auto study = core::run_telescope_only(scenario, pool);
  const auto& matrix = study.snapshots[0].matrix;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matrix.reduce_rows());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(matrix.nnz()));
}
BENCHMARK(BM_SnapshotReduceAndConvert);

void BM_SameMonthCorrelation(benchmark::State& state) {
  const auto scenario = netgen::Scenario::paper(16, 42);
  ThreadPool pool(2);
  const auto study = core::run_study(scenario, pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::peak_correlation_all(study));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(study.snapshots[0].sources.row_keys().size() * 5));
}
BENCHMARK(BM_SameMonthCorrelation)->Unit(benchmark::kMillisecond);

void BM_TemporalFitGrid(benchmark::State& state) {
  const auto scenario = netgen::Scenario::paper(14, 42);
  ThreadPool pool(2);
  const auto study = core::run_study(scenario, pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fit_grid(study, 20));
  }
}
BENCHMARK(BM_TemporalFitGrid)->Unit(benchmark::kMillisecond);

}  // namespace
