/// Performance benches for the D4M associative-array substrate: build
/// rate from string triples, element-wise intersection (the correlation
/// primitive), key intersection and column selection — the operations
/// the monthly GreyNoise arrays go through.

#include <benchmark/benchmark.h>

#include "common/ipv4.hpp"
#include "common/prng.hpp"
#include "d4m/assoc.hpp"

namespace {

using namespace obscorr;
using namespace obscorr::d4m;

std::vector<Triple> ip_triples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triple> triples;
  triples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    triples.push_back({Ipv4(rng.next_u32()).to_string(), "packets",
                       static_cast<double>(1 + rng.uniform_u64(1000))});
  }
  return triples;
}

void BM_AssocFromTriples(benchmark::State& state) {
  const auto base = ip_triples(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto copy = base;
    benchmark::DoNotOptimize(AssocArray::from_triples(std::move(copy)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AssocFromTriples)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 18);

void BM_AssocEwiseMult(benchmark::State& state) {
  // Correlation primitive: intersect two source catalogs (~50% overlap).
  const auto n = static_cast<std::size_t>(state.range(0));
  auto ta = ip_triples(n, 2);
  auto tb = ip_triples(n / 2, 3);
  tb.insert(tb.end(), ta.begin(), ta.begin() + static_cast<std::ptrdiff_t>(n / 2));
  const auto a = AssocArray::from_triples(std::move(ta));
  const auto b = AssocArray::from_triples(std::move(tb));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AssocArray::ewise_mult(a, b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(a.nnz() + b.nnz()));
}
BENCHMARK(BM_AssocEwiseMult)->Arg(1 << 12)->Arg(1 << 16);

void BM_KeyIntersection(benchmark::State& state) {
  const auto a = AssocArray::from_triples(ip_triples(static_cast<std::size_t>(state.range(0)), 4));
  const auto b = AssocArray::from_triples(ip_triples(static_cast<std::size_t>(state.range(0)), 5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(intersect_keys(a.row_keys(), b.row_keys()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_KeyIntersection)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 18);

void BM_SelectColsPrefix(benchmark::State& state) {
  Rng rng(6);
  std::vector<Triple> triples;
  const char* facets[] = {"classification|malicious", "classification|benign", "intent|scan",
                          "protocol|tcp", "contacts"};
  for (int i = 0; i < state.range(0); ++i) {
    triples.push_back({Ipv4(rng.next_u32()).to_string(), facets[rng.uniform_u64(5)], 1.0});
  }
  const auto a = AssocArray::from_triples(std::move(triples));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.select_cols_prefix("classification|"));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_SelectColsPrefix)->Arg(1 << 14);

}  // namespace
