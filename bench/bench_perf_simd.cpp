/// Per-kernel SIMD speedups, scalar vs AVX2 side by side. Each benchmark
/// takes the dispatch tier as its argument (0 = scalar, 2 = AVX2) so one
/// binary reports both columns and the ratio is a same-process,
/// same-input comparison. The end-to-end effect of the same kernels is
/// measured by bench_perf_pipeline (BM_CaptureWindow / BM_StudyParallel);
/// this file isolates where the cycles go.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/arena.hpp"
#include "common/prng.hpp"
#include "common/simd.hpp"
#include "gbl/kernels.hpp"
#include "netgen/population.hpp"
#include "netgen/scenario.hpp"
#include "netgen/traffic.hpp"

namespace {

using namespace obscorr;
using gbl::Value;

simd::Tier tier_of(benchmark::State& state) {
  const auto tier = static_cast<simd::Tier>(state.range(0));
  if (tier > simd::detected_tier()) {
    state.SkipWithError("host does not support the requested tier");
  }
  return tier;
}

/// Forces a tier for the duration of one benchmark run.
class TierScope {
 public:
  explicit TierScope(simd::Tier tier) { simd::set_tier(tier); }
  ~TierScope() { simd::set_tier(std::nullopt); }
};

void BM_RadixSortU64(benchmark::State& state) {
  const simd::Tier tier = tier_of(state);
  const TierScope scope(tier);
  Rng rng(42);
  constexpr std::size_t kKeys = 1 << 18;  // one accumulator block's sort
  std::vector<std::uint64_t> base(kKeys);
  for (auto& k : base) k = rng.next();
  std::vector<std::uint64_t> keys;
  for (auto _ : state) {
    state.PauseTiming();
    keys = base;
    state.ResumeTiming();
    gbl::kernels::radix_sort_u64(keys.data(), keys.size(), mem::scratch_arena());
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kKeys));
}
BENCHMARK(BM_RadixSortU64)->Arg(0)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_SumSpan(benchmark::State& state) {
  const simd::Tier tier = tier_of(state);
  const TierScope scope(tier);
  Rng rng(13);
  std::vector<Value> values(1 << 20);
  for (auto& v : values) v = static_cast<Value>(rng.uniform_u64(1 << 20));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gbl::kernels::sum_span(values));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_SumSpan)->Arg(0)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_ShardIngest(benchmark::State& state) {
  const simd::Tier tier = tier_of(state);
  const TierScope scope(tier);
  const auto scenario = netgen::Scenario::paper(18, 42);
  const netgen::Population population(scenario.population);
  const netgen::TrafficGenerator generator(population, scenario.traffic);
  const netgen::WindowPlan plan = generator.plan_window(0);
  netgen::ShardScratch scratch;
  std::uint64_t sink = 0;
  constexpr std::uint64_t kValid = 1 << 16;
  for (auto _ : state) {
    generator.stream_shard_batched(plan, kValid, /*salt=*/1, /*shard=*/0, scratch,
                                   [&](std::span<const Packet> b) { sink += b.size(); });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kValid));
}
BENCHMARK(BM_ShardIngest)->Arg(0)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace
