/// Performance benches for the GraphBLAS-lite hypersparse substrate —
/// the throughput story behind the paper's pipeline (refs [33][34]:
/// billions of streaming inserts/second at datacenter scale; here the
/// single-node per-core rates). Measures tuple sort+combine, DCSR
/// construction, hierarchical accumulation at the paper's 2^17 block
/// size (scaled), element-wise merges, and Table II reductions.

#include <benchmark/benchmark.h>

#include "common/prng.hpp"
#include "gbl/coo.hpp"
#include "gbl/dcsr.hpp"
#include "gbl/hierarchical.hpp"
#include "gbl/quantities.hpp"

namespace {

using namespace obscorr;
using namespace obscorr::gbl;

std::vector<Tuple> random_packets(std::size_t n, std::uint32_t sources, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tuples.push_back({static_cast<Index>(rng.uniform_u64(sources)),
                      static_cast<Index>(rng.uniform_u64(1 << 16)), 1.0});
  }
  return tuples;
}

void BM_SortCombineSerial(benchmark::State& state) {
  const auto base = random_packets(static_cast<std::size_t>(state.range(0)), 1 << 15, 1);
  for (auto _ : state) {
    auto copy = base;
    benchmark::DoNotOptimize(sort_and_combine(std::move(copy)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortCombineSerial)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_DcsrFromTuples(benchmark::State& state) {
  const auto base = random_packets(static_cast<std::size_t>(state.range(0)), 1 << 15, 2);
  for (auto _ : state) {
    auto copy = base;
    benchmark::DoNotOptimize(DcsrMatrix::from_tuples(std::move(copy)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DcsrFromTuples)->Arg(1 << 14)->Arg(1 << 17);

void BM_HierarchicalStreamingInsert(benchmark::State& state) {
  // The paper's construction: stream packets through 2^block blocks with
  // binary-carry merging. items/s is the headline "inserts per second".
  ThreadPool pool(2);
  const int block_log2 = static_cast<int>(state.range(0));
  const auto packets = random_packets(1 << 18, 1 << 14, 3);
  for (auto _ : state) {
    HierarchicalAccumulator acc(block_log2, pool);
    for (const Tuple& t : packets) acc.add_packet(t.row, t.col);
    benchmark::DoNotOptimize(acc.finish());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 18));
}
BENCHMARK(BM_HierarchicalStreamingInsert)->Arg(12)->Arg(14)->Arg(17);

void BM_HierarchicalBatchedInsert(benchmark::State& state) {
  // The zero-copy ingest path: packed u64 keys streamed in 8K batches.
  ThreadPool pool(2);
  const int block_log2 = static_cast<int>(state.range(0));
  const auto packets = random_packets(1 << 18, 1 << 14, 3);
  std::vector<std::uint64_t> keys;
  keys.reserve(packets.size());
  for (const Tuple& t : packets) keys.push_back(pack_key(t.row, t.col));
  for (auto _ : state) {
    HierarchicalAccumulator acc(block_log2, pool);
    for (std::size_t i = 0; i < keys.size(); i += 8192) {
      acc.add_packets(std::span<const std::uint64_t>(keys).subspan(i, std::min<std::size_t>(8192, keys.size() - i)));
    }
    benchmark::DoNotOptimize(acc.finish());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 18));
}
BENCHMARK(BM_HierarchicalBatchedInsert)->Arg(12)->Arg(14)->Arg(17);

void BM_EwiseAdd(benchmark::State& state) {
  const auto a = DcsrMatrix::from_tuples(random_packets(static_cast<std::size_t>(state.range(0)), 1 << 15, 4));
  const auto b = DcsrMatrix::from_tuples(random_packets(static_cast<std::size_t>(state.range(0)), 1 << 15, 5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DcsrMatrix::ewise_add(a, b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(a.nnz() + b.nnz()));
}
BENCHMARK(BM_EwiseAdd)->Arg(1 << 14)->Arg(1 << 17);

void BM_EwiseAddParallel(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  const auto a = DcsrMatrix::from_tuples(random_packets(static_cast<std::size_t>(state.range(0)), 1 << 15, 4));
  const auto b = DcsrMatrix::from_tuples(random_packets(static_cast<std::size_t>(state.range(0)), 1 << 15, 5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DcsrMatrix::ewise_add(a, b, pool));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(a.nnz() + b.nnz()));
}
BENCHMARK(BM_EwiseAddParallel)->Args({1 << 17, 1})->Args({1 << 17, 2})->Args({1 << 17, 4});

void BM_TableTwoReductions(benchmark::State& state) {
  const auto m = DcsrMatrix::from_tuples(random_packets(static_cast<std::size_t>(state.range(0)), 1 << 15, 6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(aggregate_quantities(m));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m.nnz()));
}
BENCHMARK(BM_TableTwoReductions)->Arg(1 << 14)->Arg(1 << 17);

void BM_MatrixMemoryBytesPerNnz(benchmark::State& state) {
  // Hypersparse footprint: bytes per stored entry stays ~constant even
  // though the index space is 2^32 x 2^32.
  const auto m = DcsrMatrix::from_tuples(random_packets(static_cast<std::size_t>(state.range(0)), 1u << 31, 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.memory_bytes());
  }
  state.counters["bytes_per_nnz"] =
      static_cast<double>(m.memory_bytes()) / static_cast<double>(m.nnz());
}
BENCHMARK(BM_MatrixMemoryBytesPerNnz)->Arg(1 << 12)->Arg(1 << 18);

}  // namespace
