/// Archive storage engine: codec throughput and the hot-vs-cold query
/// path. Three questions, one binary:
///
///   * encode MB/s per entry kind — what `archive compact` pays once to
///     shrink the cold tier (BM_CodecEncode_*);
///   * decode MB/s per entry kind — what a cache miss pays on every
///     compressed read (BM_CodecDecode_*);
///   * the `report --from` load path end to end: raw mmap baseline vs a
///     force-compressed archive with the page cache cold (budget 0,
///     decode every read) and warm (default budget, decode once) —
///     the acceptance criterion is warm-cache within 5% of raw
///     (BM_AnalysisStudy_*).
///
/// See bench/baselines/README.md for recorded numbers and the
/// compression-ratio table.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "archive/codec.hpp"
#include "archive/compact.hpp"
#include "archive/page_cache.hpp"
#include "archive/reader.hpp"
#include "archive/study_archive.hpp"
#include "common/thread_pool.hpp"
#include "core/study.hpp"

namespace {

using namespace obscorr;

/// One raw campaign archive shared by every benchmark (built once).
const std::string& raw_archive() {
  static const std::string dir = [] {
    const std::string d = "bench_codec_raw.obsar";
    ThreadPool pool(2);
    archive::archive_study(netgen::Scenario::paper(/*log2_nv=*/14, /*seed=*/42), d, pool);
    return d;
  }();
  return dir;
}

/// A force-compressed copy of the raw archive (built once).
const std::string& compressed_archive() {
  static const std::string dir = [] {
    const std::string d = "bench_codec_compressed.obsar";
    std::filesystem::remove_all(d);
    std::filesystem::copy(raw_archive(), d);
    archive::compact_archive(d, {.compress_all = true});
    return d;
  }();
  return dir;
}

/// Raw payload of one representative entry of each compressible kind.
std::vector<std::byte> entry_payload(const std::string& name) {
  const archive::ArchiveReader r(raw_archive());
  const archive::PayloadView p = r.payload(name);
  return {p.bytes.begin(), p.bytes.end()};
}

void bench_encode(benchmark::State& state, const std::string& name) {
  const std::vector<std::byte> payload = entry_payload(name);
  std::size_t stored_size = 0;
  for (auto _ : state) {
    const auto stored = archive::codec::compress_entry(name, payload);
    if (!stored.has_value()) {
      state.SkipWithError("entry did not compress");
      return;
    }
    stored_size = stored->size();
    benchmark::DoNotOptimize(stored->data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(payload.size()));
  state.counters["ratio"] =
      static_cast<double>(payload.size()) / static_cast<double>(stored_size);
}

void bench_decode(benchmark::State& state, const std::string& name) {
  const std::vector<std::byte> payload = entry_payload(name);
  const auto stored = archive::codec::compress_entry(name, payload);
  if (!stored.has_value()) {
    state.SkipWithError("entry did not compress");
    return;
  }
  const std::span<const std::byte> stored_bytes{
      reinterpret_cast<const std::byte*>(stored->data()), stored->size()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(archive::codec::decompress_payload(stored_bytes).data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(payload.size()));
}

// Entry kinds: a DCSR matrix (delta-varint indices + bitpacked counts), a
// Table II source reduction (the `degrees`/`report` hot read), a D4M
// assoc array (front-coded string keys), and a honeyfarm month (the bulk
// of the archive's bytes).
void BM_CodecEncode_Matrix(benchmark::State& s) { bench_encode(s, "snapshot/0/matrix"); }
void BM_CodecEncode_Sources(benchmark::State& s) { bench_encode(s, "snapshot/0/sources"); }
void BM_CodecEncode_Assoc(benchmark::State& s) { bench_encode(s, "snapshot/0/assoc"); }
void BM_CodecEncode_Month(benchmark::State& s) { bench_encode(s, "month/0"); }
BENCHMARK(BM_CodecEncode_Matrix);
BENCHMARK(BM_CodecEncode_Sources);
BENCHMARK(BM_CodecEncode_Assoc);
BENCHMARK(BM_CodecEncode_Month);

void BM_CodecDecode_Matrix(benchmark::State& s) { bench_decode(s, "snapshot/0/matrix"); }
void BM_CodecDecode_Sources(benchmark::State& s) { bench_decode(s, "snapshot/0/sources"); }
void BM_CodecDecode_Assoc(benchmark::State& s) { bench_decode(s, "snapshot/0/assoc"); }
void BM_CodecDecode_Month(benchmark::State& s) { bench_decode(s, "month/0"); }
BENCHMARK(BM_CodecDecode_Matrix);
BENCHMARK(BM_CodecDecode_Sources);
BENCHMARK(BM_CodecDecode_Assoc);
BENCHMARK(BM_CodecDecode_Month);

/// The `report --from` load, minus the fixed open cost: analysis_study()
/// over an already-open reader, which is what the resident service and
/// every per-query CLI read actually pays.
void bench_analysis_study(benchmark::State& state, const std::string& dir,
                          std::optional<std::uint64_t> cache_bytes) {
  archive::set_cache_bytes(cache_bytes);
  const archive::StudyReader reader(dir);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reader.analysis_study().months.size());
  }
  archive::set_cache_bytes(std::nullopt);
}

void BM_AnalysisStudy_RawMmap(benchmark::State& s) {
  bench_analysis_study(s, raw_archive(), std::nullopt);
}
void BM_AnalysisStudy_CompressedCold(benchmark::State& s) {
  // Budget 0: nothing is retained, every compressed read decodes.
  bench_analysis_study(s, compressed_archive(), 0);
}
void BM_AnalysisStudy_CompressedHot(benchmark::State& s) {
  // Default budget: the working set decodes once, then every read hits.
  bench_analysis_study(s, compressed_archive(), std::nullopt);
}
BENCHMARK(BM_AnalysisStudy_RawMmap)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AnalysisStudy_CompressedCold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AnalysisStudy_CompressedHot)->Unit(benchmark::kMillisecond);

}  // namespace
