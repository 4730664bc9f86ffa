/// Tests of the `src/obs/` telemetry subsystem: counter-registry
/// concurrency (run under TSan in CI), deterministic read-time merges,
/// span recording semantics, and the golden metrics schema that pins the
/// canonical counter catalogue — renaming a metric must be a deliberate
/// edit here, never a silent drift.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace obscorr::obs {
namespace {

/// Every test leaves telemetry disarmed and the registry zeroed so the
/// global state never leaks across tests (or into other suites).
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override {
    set_level(Level::kOff);
    reset();
  }
};

using TelemetryStressTest = TelemetryTest;
using TelemetrySpanTest = TelemetryTest;
using TelemetryExportTest = TelemetryTest;

TEST_F(TelemetryTest, LevelsGateTheCachedFlags) {
  EXPECT_FALSE(counters_enabled());
  EXPECT_FALSE(spans_enabled());
  set_level(Level::kCounters);
  EXPECT_TRUE(counters_enabled());
  EXPECT_FALSE(spans_enabled());
  set_level(Level::kFull);
  EXPECT_TRUE(counters_enabled());
  EXPECT_TRUE(spans_enabled());
  set_level(Level::kOff);
  EXPECT_FALSE(counters_enabled());
  EXPECT_FALSE(spans_enabled());
}

TEST_F(TelemetryTest, CounterHandleIsStableAndNamed) {
  Counter& a = counter("test.handle");
  Counter& b = counter("test.handle");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);
  const auto snap = counters_snapshot();
  const auto it = std::find_if(snap.begin(), snap.end(),
                               [](const MetricSample& s) { return s.name == "test.handle"; });
  ASSERT_NE(it, snap.end());
  EXPECT_EQ(it->value, 7u);
}

TEST_F(TelemetryTest, PerThreadMergeIsDeterministic) {
  // N threads each add a distinct known amount; the read-time merge must
  // produce the exact sum whatever shard each thread landed on, and
  // repeated reads must agree bit for bit.
  Counter& c = counter("test.merge");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  std::uint64_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    const std::uint64_t amount = static_cast<std::uint64_t>(t) + 1;
    expected += amount * kAddsPerThread;
    threads.emplace_back([&c, amount] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) c.add(amount);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), expected);
  EXPECT_EQ(c.value(), c.value());  // merges are pure reads
}

TEST_F(TelemetryTest, GaugeKeepsTheHighWaterMark) {
  Gauge& g = gauge("test.gauge");
  g.record_max(7);
  g.record_max(3);
  EXPECT_EQ(g.value(), 7u);
  g.record_max(19);
  EXPECT_EQ(g.value(), 19u);
  g.zero();
  EXPECT_EQ(g.value(), 0u);
}

TEST_F(TelemetryTest, ResetZerosCountersAndDropsSpans) {
  set_level(Level::kFull);
  counter("test.reset").add(5);
  { const Span span("test.reset_span"); }
  ASSERT_GE(span_events().size(), 1u);
  reset();
  EXPECT_EQ(counter("test.reset").value(), 0u);
  EXPECT_TRUE(span_events().empty());
  EXPECT_EQ(dropped_span_events(), 0u);
}

TEST_F(TelemetryTest, PeakRssIsReportedOnSupportedPlatforms) {
#if defined(__linux__) || defined(__APPLE__)
  EXPECT_GT(peak_rss_bytes(), 0u);
#else
  SUCCEED();
#endif
}

TEST_F(TelemetryTest, ScopedNsCounterIsNoOpWhenDisabled) {
  Counter& ns = counter("test.scoped_ns");
  { const ScopedNsCounter timer(ns); }
  EXPECT_EQ(ns.value(), 0u);
  set_level(Level::kCounters);
  { const ScopedNsCounter timer(ns); }
  set_level(Level::kOff);
  EXPECT_GT(ns.value(), 0u);
}

TEST_F(TelemetryStressTest, ConcurrentRegistryAndCounterTraffic) {
  // The TSan target: concurrent registry lookups (same and distinct
  // names), counter adds, and gauge updates from many threads at once,
  // racing against snapshot reads. Values must still merge exactly.
  set_level(Level::kCounters);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      Counter& shared = counter("test.stress_shared");
      Counter& own = counter("test.stress_" + std::to_string(t));
      Gauge& g = gauge("test.stress_gauge");
      for (std::uint64_t i = 0; i < kIters; ++i) {
        shared.add(1);
        own.add(2);
        g.record_max(i);
      }
    });
  }
  // Reader racing the writers: snapshots must never tear or crash.
  std::thread reader([] {
    for (int i = 0; i < 50; ++i) (void)counters_snapshot();
  });
  for (auto& t : threads) t.join();
  reader.join();
  EXPECT_EQ(counter("test.stress_shared").value(), kThreads * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counter("test.stress_" + std::to_string(t)).value(), 2 * kIters) << t;
  }
  EXPECT_EQ(gauge("test.stress_gauge").value(), kIters - 1);
}

TEST_F(TelemetryStressTest, ConcurrentSpansFromManyThreads) {
  set_level(Level::kFull);
  constexpr int kThreads = 6;
  constexpr int kSpansPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        const Span outer("test.stress_outer");
        const Span inner("test.stress_inner", [&] { return std::to_string(i); });
      }
    });
  }
  for (auto& t : threads) t.join();
  set_level(Level::kOff);
  const auto events = span_events();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kSpansPerThread * 2);
  EXPECT_EQ(dropped_span_events(), 0u);
}

TEST_F(TelemetrySpanTest, DisabledSpansRecordNothingAndBuildNoDetail) {
  bool detail_built = false;
  {
    const Span span("test.disabled", [&] {
      detail_built = true;
      return std::string("never");
    });
  }
  EXPECT_FALSE(detail_built);
  EXPECT_TRUE(span_events().empty());
}

TEST_F(TelemetrySpanTest, NestingRecordsDepthAndContainment) {
  set_level(Level::kFull);
  {
    const Span outer("test.outer");
    { const Span inner("test.inner", [] { return std::string("i0"); }); }
    { const Span inner("test.inner", [] { return std::string("i1"); }); }
  }
  set_level(Level::kOff);
  const auto events = span_events();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by start time: outer first, then the two inners in order.
  EXPECT_STREQ(events[0].name, "test.outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_STREQ(events[1].name, "test.inner");
  EXPECT_EQ(events[1].detail, "i0");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].detail, "i1");
  // Containment: the outer span covers both inner intervals.
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  EXPECT_GE(events[0].start_ns + events[0].dur_ns, events[2].start_ns + events[2].dur_ns);

  const auto aggregates = aggregate_spans();
  ASSERT_EQ(aggregates.size(), 2u);
  EXPECT_EQ(aggregates[0].name, "test.inner");
  EXPECT_EQ(aggregates[0].count, 2u);
  EXPECT_EQ(aggregates[1].name, "test.outer");
  EXPECT_GE(aggregates[1].max_ns, aggregates[0].max_ns);
}

TEST_F(TelemetrySpanTest, RingOverflowDropsOldestAndCounts) {
  set_level(Level::kFull);
  const std::size_t total = kSpanRingCapacity + 100;
  for (std::size_t i = 0; i < total; ++i) {
    const Span span("test.ring");
  }
  set_level(Level::kOff);
  EXPECT_EQ(span_events().size(), kSpanRingCapacity);
  EXPECT_EQ(dropped_span_events(), 100u);
}

TEST_F(TelemetryExportTest, MetricsJsonSchemaAndCanonicalCatalogue) {
  // The golden schema test: the metrics document always carries the full
  // canonical catalogue (zeros included), and every instrumented
  // pipeline-prefixed counter in the registry is canonical. Renaming or
  // adding a pipeline metric must edit the canonical list (and
  // docs/observability.md) — this test is the tripwire.
  std::ostringstream os;
  write_metrics_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"obscorr.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_span_events\""), std::string::npos);
  for (const std::string& name : canonical_counter_names()) {
    EXPECT_NE(json.find('"' + name + '"'), std::string::npos) << name;
  }
  for (const std::string& name : canonical_gauge_names()) {
    EXPECT_NE(json.find('"' + name + '"'), std::string::npos) << name;
  }

  // The canonical catalogue, pinned. A rename lands here on purpose.
  const std::vector<std::string> expected_counters = {
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
  EXPECT_EQ(canonical_counter_names(), expected_counters);
  const std::vector<std::string> expected_gauges = {
      "cache.bytes",
      "mem.peak_rss",
      "svc.connections_high_water",
      "svc.watchers_high_water",
      "threadpool.queue_high_water",
  };
  EXPECT_EQ(canonical_gauge_names(), expected_gauges);

  // Tripwire: any registry counter named with a pipeline prefix must be
  // canonical — an instrumentation site can't invent names on the side.
  const std::set<std::string> canonical(expected_counters.begin(), expected_counters.end());
  for (const MetricSample& s : counters_snapshot()) {
    for (const std::string& prefix : {std::string("netgen."), std::string("telescope."),
                                      std::string("archive."), std::string("threadpool."),
                                      std::string("study."), std::string("core."),
                                      std::string("stats."), std::string("simd."),
                                      std::string("mem."), std::string("svc."),
                                      std::string("cache."), std::string("analysis.")}) {
      if (s.name.rfind(prefix, 0) == 0) {
        EXPECT_TRUE(canonical.count(s.name) == 1) << "non-canonical counter: " << s.name;
      }
    }
  }
}

TEST_F(TelemetryExportTest, PrometheusExpositionSchema) {
  // The prom exposition pins the same canonical catalogue under the
  // obscorr_ prefix with dots mapped to underscores: counters carry the
  // OpenMetrics _total suffix, gauges the bare name, and the document
  // ends with the "# EOF" framing line.
  set_level(Level::kFull);
  counter("svc.requests").add(42);
  gauge("svc.connections_high_water").record_max(3);
  { const Span span("test.prom_span"); }
  set_level(Level::kOff);
  std::ostringstream os;
  write_metrics_prometheus(os);
  const std::string text = os.str();

  for (const std::string& name : canonical_counter_names()) {
    std::string prom = "obscorr_";
    for (const char c : name) prom += (c == '.') ? '_' : c;
    EXPECT_NE(text.find("# TYPE " + prom + " counter\n" + prom + "_total "), std::string::npos)
        << name;
  }
  for (const std::string& name : canonical_gauge_names()) {
    std::string prom = "obscorr_";
    for (const char c : name) prom += (c == '.') ? '_' : c;
    EXPECT_NE(text.find("# TYPE " + prom + " gauge\n" + prom + " "), std::string::npos) << name;
  }
  EXPECT_NE(text.find("obscorr_svc_requests_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("obscorr_svc_connections_high_water 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obscorr_span_test_prom_span summary\n"), std::string::npos);
  EXPECT_NE(text.find("obscorr_span_test_prom_span_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("obscorr_span_test_prom_span_seconds_sum "), std::string::npos);
  EXPECT_NE(text.find("obscorr_dropped_span_events_total 0\n"), std::string::npos);
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);

  // Exposition-format hygiene: every line is a comment or `name value`.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string metric = line.substr(0, space);
    EXPECT_EQ(metric.rfind("obscorr_", 0), 0u) << line;
    EXPECT_EQ(metric.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789_"),
              std::string::npos)
        << line;
  }
}

TEST_F(TelemetryExportTest, ChromeTraceIsWellFormed) {
  set_level(Level::kFull);
  {
    const Span span("test.trace", [] { return std::string("de\"tail"); });
  }
  set_level(Level::kOff);
  std::ostringstream os;
  write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.trace\""), std::string::npos);
  EXPECT_NE(json.find("de\\\"tail"), std::string::npos);  // details are escaped
  EXPECT_EQ(json[json.size() - 2], '}');
}

TEST_F(TelemetryExportTest, TimingSummaryListsSpansAndNonZeroCounters) {
  set_level(Level::kFull);
  counter("test.summary").add(11);
  { const Span span("test.summary_span"); }
  set_level(Level::kOff);
  std::ostringstream os;
  write_timing_summary(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("test.summary: 11"), std::string::npos);
  EXPECT_NE(text.find("test.summary_span: 1"), std::string::npos);
  // Zero-valued canonical counters stay out of the human summary.
  EXPECT_EQ(text.find("archive.bytes_read"), std::string::npos);
}

TEST_F(TelemetryExportTest, FailedMetricsWriteKeepsTheLastDocument) {
  // A daemon snapshot whose write fails (here its tmp file is a symlink
  // to the full device) must leave the last good document in place.
  std::error_code ec;
  if (!std::filesystem::is_character_file("/dev/full", ec)) {
    GTEST_SKIP() << "/dev/full is not a character device";
  }
  const std::string path = ::testing::TempDir() + "/metrics_keep." + std::to_string(::getpid());
  std::ofstream(path) << "last good\n";
  std::filesystem::remove(path + ".tmp", ec);
  std::filesystem::create_symlink("/dev/full", path + ".tmp");
  EXPECT_FALSE(write_metrics_file(path, "json"));
  // Read `path` only while it is the regular file: renaming the tmp
  // symlink over it would leave the endless full device behind it.
  ASSERT_TRUE(std::filesystem::is_regular_file(std::filesystem::symlink_status(path)));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "last good\n");
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::symlink_status(path + ".tmp")));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace obscorr::obs
