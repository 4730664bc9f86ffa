#pragma once
/// \file telemetry.hpp
/// Process-wide pipeline telemetry: a counter/gauge registry with
/// per-thread sharded atomics, merged deterministically at read time.
///
/// Telemetry is off by default and compiles down to one branch on a
/// cached atomic flag at every instrumentation site — hot loops tally
/// into stack locals and flush once per batch behind
/// `counters_enabled()`, so a disabled run does no atomic traffic and
/// allocates nothing. Turning telemetry on never changes pipeline
/// *results*: counters and spans are write-only during execution and the
/// instrumented code paths are byte-identical either way, so the
/// determinism and golden-archive suites hold at any level.
///
/// Counter handles are stable for the life of the process; the idiom at
/// an instrumentation site is a function-local static reference:
///
///   static obs::Counter& packets = obs::counter("netgen.packets_emitted");
///   ...
///   if (obs::counters_enabled()) packets.add(batch_total);
///
/// Counter names form a canonical catalogue (see docs/observability.md);
/// the registry pre-creates every canonical name so a metrics document
/// always carries the full catalogue, zeros included, and a golden test
/// pins the list — renames are deliberate, never accidental.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace obscorr::obs {

/// Telemetry level. kCounters arms the counter/gauge registry only;
/// kFull additionally records span events for trace export.
enum class Level : int { kOff = 0, kCounters = 1, kFull = 2 };

namespace detail {
/// The cached flag every instrumentation site branches on.
extern std::atomic<int> g_level;
/// This thread's shard index (assigned on first use, stable thereafter).
std::size_t shard_slot();
}  // namespace detail

inline bool counters_enabled() {
  return detail::g_level.load(std::memory_order_relaxed) >= static_cast<int>(Level::kCounters);
}
inline bool spans_enabled() {
  return detail::g_level.load(std::memory_order_relaxed) >= static_cast<int>(Level::kFull);
}

void set_level(Level level);
Level level();

/// Zero every counter/gauge and drop all recorded span events. Handles
/// stay valid. Intended between CLI invocations and in tests.
void reset();

/// Number of per-counter shards. Threads are assigned a shard slot on
/// first use; concurrent adds from different threads usually land on
/// different cache lines.
inline constexpr std::size_t kCounterShards = 16;

/// Monotonic u64 counter, sharded per thread. `add` is a relaxed
/// fetch_add on the caller's shard; `value` sums the shards in fixed
/// index order — u64 addition is exact and associative, so the merge is
/// deterministic for any schedule that produced the same increments.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n) {
    shards_[detail::shard_slot()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const;
  void zero();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kCounterShards> shards_{};
};

/// High-water-mark gauge: `record_max` keeps the largest value seen on
/// the caller's shard; `value` is the max over shards (order-free).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void record_max(std::uint64_t v);
  std::uint64_t value() const;
  void zero();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kCounterShards> shards_{};
};

/// Look up (or create) the counter/gauge named `name`. The returned
/// reference is valid for the life of the process. Thread-safe; cache it
/// in a function-local static at hot sites.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);

/// One (name, merged value) sample.
struct MetricSample {
  std::string name;
  std::uint64_t value = 0;
};

/// All counters / gauges, sorted by name (zeros included).
std::vector<MetricSample> counters_snapshot();
std::vector<MetricSample> gauges_snapshot();

/// The canonical metric catalogue (sorted): every counter and gauge name
/// the instrumented pipeline emits. Pre-registered at startup so metrics
/// documents always carry the whole catalogue; pinned by a golden test.
const std::vector<std::string>& canonical_counter_names();
const std::vector<std::string>& canonical_gauge_names();

/// RAII accumulator of elapsed nanoseconds into a counter (e.g. CRC or
/// merge time); no-op when counters are disabled at construction.
class ScopedNsCounter {
 public:
  explicit ScopedNsCounter(Counter& c);
  ~ScopedNsCounter();
  ScopedNsCounter(const ScopedNsCounter&) = delete;
  ScopedNsCounter& operator=(const ScopedNsCounter&) = delete;

 private:
  Counter* counter_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

/// Nanoseconds since the process telemetry epoch (steady clock).
std::uint64_t now_ns();

/// Peak resident set size of the process in bytes (getrusage); 0 when
/// the platform doesn't report it. Recorded as the `mem.peak_rss` gauge.
std::size_t peak_rss_bytes();

}  // namespace obscorr::obs
