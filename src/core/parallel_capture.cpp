#include "core/parallel_capture.hpp"

#include <algorithm>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "obs/span.hpp"

namespace obscorr::core {

gbl::DcsrMatrix capture_window(telescope::Telescope& scope,
                               const netgen::TrafficGenerator& generator, int month,
                               std::uint64_t valid_count, std::uint64_t salt, ThreadPool& pool) {
  using netgen::TrafficGenerator;
  const obs::Span span("core.capture_window", [&] { return std::to_string(month); });
  const std::uint64_t shards = TrafficGenerator::shard_count(valid_count);
  const netgen::WindowPlan plan = generator.plan_window(month);
  if (shards <= 1 || pool.thread_count() == 1) {
    // One shard or one worker: stream the plan's shards in order straight
    // into the telescope, skipping the private-capture/merge machinery.
    // A one-shard window is then exactly `stream_window_batched`'s
    // stream, and the telescope's anonymization memo stays warm across
    // windows, which a per-window capture context would discard.
    netgen::ShardScratch scratch;
    for (std::uint64_t s = 0; s < shards; ++s) {
      generator.stream_shard_batched(
          plan, TrafficGenerator::shard_valid_packets(valid_count, s), salt, s, scratch,
          [&](std::span<const Packet> batch) { scope.capture_block(batch); });
    }
    return scope.finish_window();
  }

  // Shared read-only sampling plan; per-run private capture contexts.
  // parallel_for's static split assigns each run a contiguous shard
  // range. Runs are summed in first-shard order below, but any grouping
  // yields the same matrix: shard packet multisets are fixed by (seed,
  // month, salt, shard) and counts aggregate exactly.
  std::mutex collect_mutex;
  std::vector<std::pair<std::size_t, gbl::DcsrMatrix>> runs;
  // parallel_for hands out at most one contiguous chunk per worker.
  runs.reserve(static_cast<std::size_t>(pool.thread_count()));
  parallel_for(pool, 0, static_cast<std::size_t>(shards), [&](std::size_t b, std::size_t e) {
    telescope::ShardCapture capture(scope, pool);
    netgen::ShardScratch scratch;
    for (std::size_t s = b; s < e; ++s) {
      generator.stream_shard_batched(
          plan, TrafficGenerator::shard_valid_packets(valid_count, s), salt, s, scratch,
          [&](std::span<const Packet> batch) { capture.capture_block(batch); });
    }
    gbl::DcsrMatrix matrix = capture.finish();
    std::scoped_lock lock(collect_mutex);
    scope.absorb(std::move(capture));
    runs.emplace_back(b, std::move(matrix));
  });

  std::sort(runs.begin(), runs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  gbl::DcsrMatrix total = std::move(runs.front().second);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    total = gbl::DcsrMatrix::ewise_add(total, runs[i].second, pool);
  }
  return total;
}

double window_duration_sec(std::uint64_t streamed_packets, double mean_packet_rate,
                           std::uint64_t timing_seed) {
  OBSCORR_REQUIRE(mean_packet_rate > 0.0, "window_duration_sec: rate must be positive");
  Rng timing(timing_seed, 0x7173);
  double clock_sec = 0.0;
  for (std::uint64_t i = 0; i < streamed_packets; ++i) {
    clock_sec += timing.exponential(mean_packet_rate);
  }
  return clock_sec;
}

}  // namespace obscorr::core
