/// Performance benches for the anonymization layer: raw AES-128 blocks,
/// CryptoPAN address anonymization (32 AES calls each), and the
/// telescope's memoized path (the working-set argument for scaling the
/// darkspace with the window).

#include <benchmark/benchmark.h>

#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "crypt/aes128.hpp"
#include "crypt/cryptopan.hpp"
#include "telescope/telescope.hpp"

namespace {

using namespace obscorr;
using namespace obscorr::crypt;

void BM_Aes128Block(benchmark::State& state) {
  Aes128::Key key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  const Aes128 aes(key);
  Aes128::Block block{};
  for (auto _ : state) {
    block = aes.encrypt(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_Aes128Block);

void BM_CryptoPanAnonymize(benchmark::State& state) {
  const CryptoPan pan = CryptoPan::from_seed(42);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pan.anonymize(Ipv4(rng.next_u32())));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CryptoPanAnonymize);

void BM_TelescopeMemoizedAnonymize(benchmark::State& state) {
  // Working set of `range` distinct addresses: after warm-up every call
  // is a hash lookup — the regime the telescope operates in.
  ThreadPool pool(1);
  telescope::Telescope scope(telescope::TelescopeConfig{}, pool);
  const auto distinct = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < distinct; ++i) scope.anonymize(Ipv4(i * 2654435761u));
  Rng rng(2);
  for (auto _ : state) {
    const auto v = static_cast<std::uint32_t>(rng.uniform_u64(distinct)) * 2654435761u;
    benchmark::DoNotOptimize(scope.anonymize(Ipv4(v)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelescopeMemoizedAnonymize)->Arg(1 << 10)->Arg(1 << 16);

}  // namespace
