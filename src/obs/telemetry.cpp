#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "obs/span.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace obscorr::obs {

namespace detail {
std::atomic<int> g_level{static_cast<int>(Level::kOff)};
}  // namespace detail

namespace {

/// The canonical metric catalogue. One name per fact the instrumented
/// pipeline can report; docs/observability.md documents each. Renaming
/// or adding an entry must update the golden schema test too — that is
/// the point.
constexpr const char* kCanonicalCounters[] = {
    "analysis.anomalies",
    "analysis.event_log_errors",
    "analysis.windows_observed",
    "analysis.windows_sampled",
    "archive.bytes_read",
    "archive.bytes_written",
    "archive.crc_ns",
    "archive.frames_read",
    "archive.frames_written",
    "archive.open_heap",
    "archive.open_mmap",
    "archive.raw_bytes",
    "archive.stored_bytes",
    "cache.evictions",
    "cache.hits",
    "cache.misses",
    "netgen.packets_emitted",
    "netgen.rng_streams",
    "netgen.shards_generated",
    "netgen.valid_packets",
    "netgen.windows_planned",
    "svc.accepted",
    "svc.bytes_in",
    "svc.bytes_out",
    "svc.errors",
    "svc.ingest_packets",
    "svc.refreshes",
    "svc.requests",
    "svc.shed",
    "svc.timeouts",
    "svc.watch_events",
    "svc.windows_published",
    "telescope.anon_cache_hits",
    "telescope.anon_cache_misses",
    "telescope.anonymize_ns",
    "telescope.discarded_packets",
    "telescope.merge_ns",
    "telescope.valid_packets",
    "threadpool.busy_ns",
    "threadpool.tasks_executed",
};

constexpr const char* kCanonicalGauges[] = {
    "cache.bytes",
    "mem.peak_rss",
    "svc.connections_high_water",
    "svc.watchers_high_water",
    "threadpool.queue_high_water",
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;

  Registry() {
    for (const char* name : kCanonicalCounters) {
      counters.emplace(name, std::make_unique<Counter>());
    }
    for (const char* name : kCanonicalGauges) {
      gauges.emplace(name, std::make_unique<Gauge>());
    }
  }
};

/// Leaked singleton: instrumentation sites (including the global thread
/// pool) may fire during static destruction, so the registry must never
/// be torn down.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

}  // namespace

void set_level(Level l) {
  detail::g_level.store(static_cast<int>(l), std::memory_order_relaxed);
}

Level level() {
  return static_cast<Level>(detail::g_level.load(std::memory_order_relaxed));
}

namespace detail {
std::size_t shard_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return slot;
}
}  // namespace detail

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::zero() {
  for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

void Gauge::record_max(std::uint64_t v) {
  std::atomic<std::uint64_t>& a = shards_[detail::shard_slot()].v;
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t Gauge::value() const {
  std::uint64_t m = 0;
  for (const Shard& s : shards_) m = std::max(m, s.v.load(std::memory_order_relaxed));
  return m;
}

void Gauge::zero() {
  for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

Counter& counter(std::string_view name) {
  Registry& r = registry();
  std::scoped_lock lock(r.mutex);
  auto it = r.counters.find(name);
  if (it == r.counters.end()) {
    it = r.counters.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& gauge(std::string_view name) {
  Registry& r = registry();
  std::scoped_lock lock(r.mutex);
  auto it = r.gauges.find(name);
  if (it == r.gauges.end()) {
    it = r.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

std::vector<MetricSample> counters_snapshot() {
  Registry& r = registry();
  std::scoped_lock lock(r.mutex);
  std::vector<MetricSample> out;
  out.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters) out.push_back({name, c->value()});
  return out;
}

std::vector<MetricSample> gauges_snapshot() {
  Registry& r = registry();
  std::scoped_lock lock(r.mutex);
  std::vector<MetricSample> out;
  out.reserve(r.gauges.size());
  for (const auto& [name, g] : r.gauges) out.push_back({name, g->value()});
  return out;
}

const std::vector<std::string>& canonical_counter_names() {
  static const std::vector<std::string> names(std::begin(kCanonicalCounters),
                                              std::end(kCanonicalCounters));
  return names;
}

const std::vector<std::string>& canonical_gauge_names() {
  static const std::vector<std::string> names(std::begin(kCanonicalGauges),
                                              std::end(kCanonicalGauges));
  return names;
}

namespace detail {
void reset_span_store();  // span.cpp
}  // namespace detail

void reset() {
  Registry& r = registry();
  {
    std::scoped_lock lock(r.mutex);
    for (auto& [name, c] : r.counters) c->zero();
    for (auto& [name, g] : r.gauges) g->zero();
  }
  detail::reset_span_store();
}

ScopedNsCounter::ScopedNsCounter(Counter& c) {
  if (counters_enabled()) {
    counter_ = &c;
    start_ns_ = now_ns();
  }
}

ScopedNsCounter::~ScopedNsCounter() {
  if (counter_ != nullptr) counter_->add(now_ns() - start_ns_);
}

std::uint64_t now_ns() {
  static const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - epoch)
                                        .count());
}

std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

}  // namespace obscorr::obs
