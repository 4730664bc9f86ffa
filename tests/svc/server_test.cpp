/// Service end-to-end: a real epoll server over a real (tiny) archive,
/// exercised through real sockets. Covers the acceptance criteria
/// directly — concurrent queries during live ingest with byte-identical
/// responses — plus the hostile-client posture: oversized lines,
/// slow-loris fragments, connection-cap shedding, pipelining, and the
/// drain-and-flush shutdown. The ASan and TSan CI jobs both replay this
/// binary (leaks and torn reads are exactly what they catch).

#include "svc/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/monitor.hpp"
#include "analysis/window_series.hpp"
#include "archive/compact.hpp"
#include "archive/page_cache.hpp"
#include "archive/study_archive.hpp"
#include "common/interrupt.hpp"
#include "obs/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "svc/ingest.hpp"
#include "svc/json.hpp"
#include "svc/render.hpp"

namespace obscorr::svc {
namespace {

/// One completed archive shared by every test in this binary (building
/// it is the expensive part; all tests read it concurrently, which is
/// itself the access pattern under test). ctest runs each gtest case as
/// its own process, possibly in parallel, so the archive must be
/// published atomically: a complete one left by a concurrent (or
/// previous) run is adopted as-is, and a fresh build lands via rename —
/// no process ever observes a half-built or vanishing directory.
const std::string& shared_archive() {
  static const std::string dir = [] {
    const std::string d = ::testing::TempDir() + "/svc_server_archive";
    for (int attempt = 0; attempt < 4; ++attempt) {
      try {
        const archive::StudyReader probe(d);  // throws unless complete + valid
        return d;
      } catch (const std::exception&) {
      }
      const std::string scratch = d + ".build." + std::to_string(::getpid());
      std::filesystem::remove_all(scratch);
      {
        ThreadPool pool(2);
        archive::archive_study(netgen::Scenario::paper(/*log2_nv=*/10, /*seed=*/7), scratch,
                               pool);
      }
      std::error_code ec;
      std::filesystem::rename(scratch, d, ec);
      if (ec) {
        // Lost the publish race, or a stale half-built directory squats
        // on the name: adopt the winner if it is valid, otherwise clear
        // the squatter and try to publish our build in its place.
        try {
          const archive::StudyReader probe(d);
          std::filesystem::remove_all(scratch);
          return d;
        } catch (const std::exception&) {
          std::filesystem::remove_all(d, ec);
          std::filesystem::rename(scratch, d, ec);
        }
      }
      if (!ec) return d;
      std::filesystem::remove_all(scratch);
    }
    throw std::runtime_error("svc tests: could not publish the shared archive");
  }();
  return dir;
}

/// Minimal blocking test client against 127.0.0.1:port.
class Client {
 public:
  explicit Client(int port, double timeout_sec = 10.0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    const timeval tv{static_cast<time_t>(timeout_sec), 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return connected_; }

  bool send_raw(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next '\n'-terminated line (newline stripped); nullopt on EOF/timeout.
  std::optional<std::string> read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the peer has closed (EOF) with nothing left to read.
  bool at_eof() {
    char c;
    return ::recv(fd_, &c, 1, 0) == 0;
  }

  std::optional<JsonValue> query(std::string_view line) {
    if (!send_raw(std::string(line) + "\n")) return std::nullopt;
    const auto resp = read_line();
    if (!resp.has_value()) return std::nullopt;
    return parse_json(*resp);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

/// Server + engine + pool running on a background thread for one test.
class RunningServer {
 public:
  explicit RunningServer(ServerConfig cfg, std::size_t threads = 4)
      : pool_(threads), engine_(shared_archive(), pool_) {
    interrupt::reset();
    cfg.host = "127.0.0.1";
    cfg.port = 0;  // ephemeral
    server_.emplace(std::move(cfg), engine_, pool_);
    server_->bind();
    thread_ = std::thread([this] { rc_ = server_->serve(); });
  }

  ~RunningServer() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server_->request_stop();
      thread_.join();
    }
  }

  int port() const { return server_->port(); }
  int exit_code() const { return rc_; }
  QueryEngine& engine() { return engine_; }
  ThreadPool& pool() { return pool_; }

 private:
  ThreadPool pool_;
  QueryEngine engine_;
  std::optional<Server> server_;
  std::thread thread_;
  int rc_ = -1;
};

std::string expected_degrees_text(std::size_t snapshot) {
  const archive::StudyReader reader(shared_archive());
  std::ostringstream os;
  render_degrees(reader.source_packets(snapshot), os);
  return os.str();
}

TEST(SvcServerTest, AnswersQueriesByteIdenticalToBatchRender) {
  RunningServer rs({});
  Client c(rs.port());
  ASSERT_TRUE(c.connected());

  const auto stats = c.query(R"({"id":1,"query":"stats"})");
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->find("ok")->as_bool());
  EXPECT_EQ(stats->find("id")->as_uint(), 1u);
  EXPECT_EQ(stats->find("result")->find("snapshots")->as_uint(), 5u);
  EXPECT_EQ(stats->find("result")->find("months")->as_uint(), 15u);

  const auto degrees = c.query(R"({"id":2,"query":"degrees","params":{"snapshot":0}})");
  ASSERT_TRUE(degrees.has_value());
  ASSERT_TRUE(degrees->find("ok")->as_bool());
  // The acceptance criterion: the service response carries exactly the
  // bytes the batch CLI prints for the same archive.
  EXPECT_EQ(degrees->find("result")->find("text")->as_string(), expected_degrees_text(0));

  const auto lookup = c.query(R"({"id":3,"query":"lookup","params":{"ip":"10.0.0.1"}})");
  ASSERT_TRUE(lookup.has_value());
  EXPECT_TRUE(lookup->find("ok")->as_bool());

  const auto metrics = c.query(R"({"id":4,"query":"metrics"})");
  ASSERT_TRUE(metrics.has_value());
  ASSERT_TRUE(metrics->find("ok")->as_bool());
  EXPECT_EQ(metrics->find("result")->find("schema")->as_string(), "obscorr.metrics.v1");

  rs.stop();
  EXPECT_EQ(rs.exit_code(), 0);
}

TEST(SvcServerTest, MalformedRequestsGetErrorsAndConnectionSurvives) {
  RunningServer rs({});
  Client c(rs.port());
  ASSERT_TRUE(c.connected());

  for (const char* bad : {"not json", "[1,2]", R"({"params":{}})", R"({"query":"nope"})",
                          R"({"query":"degrees","params":{"snapshot":99}})"}) {
    const auto resp = c.query(bad);
    ASSERT_TRUE(resp.has_value()) << bad;
    EXPECT_FALSE(resp->find("ok")->as_bool()) << bad;
    EXPECT_EQ(resp->find("error")->find("code")->as_string(), "bad_request") << bad;
  }
  // The connection is still perfectly usable afterwards.
  const auto good = c.query(R"({"id":9,"query":"stats"})");
  ASSERT_TRUE(good.has_value());
  EXPECT_TRUE(good->find("ok")->as_bool());
}

TEST(SvcServerTest, PipelinedRequestsAnswerInOrder) {
  RunningServer rs({});
  Client c(rs.port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.send_raw("{\"id\":1,\"query\":\"stats\"}\n"
                         "{\"id\":2,\"query\":\"stats\"}\n"
                         "\r\n"  // blank keep-alive line is ignored
                         "{\"id\":3,\"query\":\"stats\"}\n"));
  for (std::uint64_t want = 1; want <= 3; ++want) {
    const auto line = c.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(parse_json(*line).find("id")->as_uint(), want);
  }
}

TEST(SvcServerTest, OversizedRequestLineIsRejectedAndClosed) {
  RunningServer rs({});
  Client c(rs.port());
  ASSERT_TRUE(c.connected());
  std::string huge(kMaxRequestBytes + 100, 'x');
  huge += '\n';
  ASSERT_TRUE(c.send_raw(huge));
  const auto resp = c.read_line();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(parse_json(*resp).find("error")->find("code")->as_string(), "too_large");
  EXPECT_TRUE(c.at_eof());
}

TEST(SvcServerTest, SlowLorisFragmentTimesOut) {
  ServerConfig cfg;
  cfg.request_timeout_sec = 0.2;
  RunningServer rs(cfg);
  Client c(rs.port());
  ASSERT_TRUE(c.connected());
  // A partial line that never completes: the deadline runs from the
  // fragment's start, so the server answers `timeout` and closes.
  ASSERT_TRUE(c.send_raw(R"({"query":"sta)"));
  const auto resp = c.read_line();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(parse_json(*resp).find("error")->find("code")->as_string(), "timeout");
  EXPECT_TRUE(c.at_eof());
}

TEST(SvcServerTest, ConnectionCapShedsWithErrorLine) {
  ServerConfig cfg;
  cfg.max_connections = 2;
  RunningServer rs(cfg);
  Client a(rs.port()), b(rs.port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  // Make sure both are registered before the third arrives.
  ASSERT_TRUE(a.query(R"({"query":"stats"})").has_value());
  ASSERT_TRUE(b.query(R"({"query":"stats"})").has_value());

  Client shed(rs.port());
  ASSERT_TRUE(shed.connected());
  const auto resp = shed.read_line();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(parse_json(*resp).find("error")->find("code")->as_string(), "shedding");
  EXPECT_TRUE(shed.at_eof());

  // The two admitted connections keep working.
  EXPECT_TRUE(a.query(R"({"query":"stats"})")->find("ok")->as_bool());
  EXPECT_TRUE(b.query(R"({"query":"stats"})")->find("ok")->as_bool());
}

TEST(SvcServerTest, ConcurrentClientsDuringLiveIngest) {
  // Fresh archive copy: this test appends windows to it.
  const std::string dir = ::testing::TempDir() + "/svc_ingest_archive";
  std::filesystem::remove_all(dir);
  std::filesystem::copy(shared_archive(), dir);

  interrupt::reset();
  ThreadPool pool(4);
  QueryEngine engine(dir, pool);
  ServerConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.port = 0;
  Server server(cfg, engine, pool);
  server.bind();
  std::thread serve_thread([&] { server.serve(); });

  IngestConfig icfg;
  icfg.max_windows = 3;
  icfg.window_packets = 1024;
  IngestLoop ingest(dir, engine, pool, icfg);
  ingest.start();

  // Clients hammer the query surface while windows are publishing.
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      Client c(server.port());
      if (!c.connected()) {
        ++failures;
        return;
      }
      for (int r = 0; r < 20; ++r) {
        const char* line = (t + r) % 2 == 0 ? R"({"query":"stats"})"
                                            : R"({"query":"degrees","params":{"snapshot":0}})";
        const auto resp = c.query(line);
        if (!resp.has_value() || !resp->find("ok")->as_bool()) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Wait for every window to publish, then verify a window query answers
  // with exactly the bytes a batch render over the same archive produces.
  for (int spin = 0; spin < 600 && engine.window_count() < 3; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ingest.stop_and_join();
  EXPECT_EQ(ingest.error(), "");
  ASSERT_GE(engine.window_count(), 3u);

  Client c(server.port());
  ASSERT_TRUE(c.connected());
  const auto resp = c.query(R"({"query":"degrees","params":{"window":1}})");
  ASSERT_TRUE(resp.has_value());
  ASSERT_TRUE(resp->find("ok")->as_bool());
  const archive::StudyReader fresh(dir);
  ASSERT_GE(fresh.window_count(), 2u);
  std::ostringstream want;
  render_degrees(fresh.window_source_packets(1), want);
  EXPECT_EQ(resp->find("result")->find("text")->as_string(), want.str());

  server.request_stop();
  serve_thread.join();
}

TEST(SvcServerTest, PageCacheThrashUnderConcurrentClientsAndIngest) {
  // Satellite case for the decompressed-page cache: a fully compressed
  // archive served to 100 concurrent clients while live ingest publishes
  // windows, with a cache budget far below the archive's decoded working
  // set. Every response must still be ok and byte-identical to a batch
  // render over the raw pre-compaction archive; hit/miss counters must
  // move. Runs under TSan in CI (cache shards + reader refresh + ingest).
  const std::string dir = ::testing::TempDir() + "/svc_thrash_archive";
  std::filesystem::remove_all(dir);
  std::filesystem::copy(shared_archive(), dir);
  archive::compact_archive(dir, {.compress_all = true});

  obs::reset();
  obs::set_level(obs::Level::kCounters);
  // 512 KiB across 8 shards: single decoded snapshot pages fit, the
  // archive's full decoded set does not.
  archive::set_cache_bytes(512 * 1024);

  {
    interrupt::reset();
    ThreadPool pool(4);
    QueryEngine engine(dir, pool);
    ServerConfig cfg;
    cfg.host = "127.0.0.1";
    cfg.port = 0;
    Server server(cfg, engine, pool);
    server.bind();
    std::thread serve_thread([&] { server.serve(); });

    IngestConfig icfg;
    icfg.max_windows = 3;
    icfg.window_packets = 1024;
    IngestLoop ingest(dir, engine, pool, icfg);
    ingest.start();

    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(100);
    for (int t = 0; t < 100; ++t) {
      clients.emplace_back([&, t] {
        Client c(server.port());
        if (!c.connected()) {
          ++failures;
          return;
        }
        for (int r = 0; r < 5; ++r) {
          std::string line;
          if ((t + r) % 3 == 0) {
            line = R"({"query":"stats"})";
          } else {
            line = R"({"query":"degrees","params":{"snapshot":)" +
                   std::to_string((t + r) % 5) + "}}";
          }
          const auto resp = c.query(line);
          if (!resp.has_value() || !resp->find("ok")->as_bool()) ++failures;
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0);

    // A compressed snapshot, served mid-thrash, answers with exactly the
    // bytes the batch path renders from the *raw* pre-compaction archive.
    Client c(server.port());
    ASSERT_TRUE(c.connected());
    const auto resp = c.query(R"({"query":"degrees","params":{"snapshot":2}})");
    ASSERT_TRUE(resp.has_value());
    ASSERT_TRUE(resp->find("ok")->as_bool());
    EXPECT_EQ(resp->find("result")->find("text")->as_string(), expected_degrees_text(2));

    for (int spin = 0; spin < 600 && engine.window_count() < 3; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ingest.stop_and_join();
    EXPECT_EQ(ingest.error(), "");
    server.request_stop();
    serve_thread.join();
  }

  // Serving compressed entries decoded pages: misses counted. A direct
  // reader decoding the same entry twice proves the second read is a
  // cache hit (the render memoization above can absorb repeat queries,
  // so the hit assertion uses the reader API directly).
  EXPECT_GT(obs::counter("cache.misses").value(), 0u);
  {
    archive::StudyReader reader(dir);
    const auto first = reader.source_packets(0);
    const std::uint64_t hits_before = obs::counter("cache.hits").value();
    const auto second = reader.source_packets(0);
    EXPECT_TRUE(first == second);
    EXPECT_GT(obs::counter("cache.hits").value(), hits_before);
  }

  archive::set_cache_bytes(std::nullopt);
  obs::set_level(obs::Level::kOff);
  obs::reset();
}

TEST(SvcServerTest, DrainFlushesInFlightResponseThenRefusesNewWork) {
  // Queue a request and immediately request shutdown: the response must
  // still arrive (drain-and-flush), then the connection closes. Whether
  // the line was actually in flight when stop landed is a race the test
  // cannot control — under load the bytes may still sit unread in the
  // kernel buffer, and a request the server never saw owes no response —
  // so retry, backing off so later rounds give the server time to read
  // the line before stop lands (the response must arrive either way).
  for (int attempt = 0;; ++attempt) {
    RunningServer rs({});
    Client c(rs.port());
    ASSERT_TRUE(c.connected());
    ASSERT_TRUE(c.send_raw(R"({"id":77,"query":"degrees","params":{"snapshot":1}})"
                           "\n"));
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(attempt));
    }
    rs.stop();
    const auto resp = c.read_line();
    if (!resp.has_value() && attempt < 50) continue;  // stop beat the read; retry
    ASSERT_TRUE(resp.has_value());
    const JsonValue v = parse_json(*resp);
    EXPECT_EQ(v.find("id")->as_uint(), 77u);
    EXPECT_TRUE(v.find("ok")->as_bool());
    EXPECT_TRUE(c.at_eof());
    EXPECT_EQ(rs.exit_code(), 0);

    // A connect after drain is refused outright.
    Client late(rs.port());
    EXPECT_TRUE(!late.connected() || late.at_eof());
    break;
  }
}

/// Runs `fn` when the scope ends, however it ends (a failed ASSERT
/// returns from the test body).
class ScopeExit {
 public:
  explicit ScopeExit(std::function<void()> fn) : fn_(std::move(fn)) {}
  ~ScopeExit() { fn_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  std::function<void()> fn_;
};

/// The serve command's on_publish wiring, reproduced for tests: run the
/// monitor over the published window's sample, push the heartbeat plus
/// any anomaly events to watchers.
std::function<void(const PublishedWindow&)> monitor_publisher(Server& server,
                                                              analysis::Monitor& monitor) {
  return [&server, &monitor](const PublishedWindow& pw) {
    const auto events =
        monitor.observe_window(pw.meta.window, pw.sample, pw.sources.values());
    server.publish_event(analysis::window_event_json(pw.meta));
    for (const auto& ev : events) server.publish_event(analysis::event_json(ev));
  };
}

TEST(SvcServerTest, WatchDeliversEveryWindowExactlyOnceWithAnomalies) {
  // The tentpole acceptance path: a watcher subscribed before ingest
  // sees every published window's heartbeat exactly once, in order, and
  // the injected surge's anomaly events arrive within the window that
  // produced them. A second watcher connecting mid-ingest sees a suffix
  // only, also exactly once; churning clients must not perturb either.
  const std::string dir = ::testing::TempDir() + "/svc_watch_archive";
  std::filesystem::remove_all(dir);
  std::filesystem::copy(shared_archive(), dir);

  interrupt::reset();
  ThreadPool pool(4);
  QueryEngine engine(dir, pool);
  ServerConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.port = 0;
  Server server(cfg, engine, pool);
  server.bind();
  std::thread serve_thread([&] { server.serve(); });
  // Every exit path, a failed ASSERT included, stops the server and joins
  // its thread.
  const ScopeExit stop_server([&] {
    server.request_stop();
    if (serve_thread.joinable()) serve_thread.join();
  });

  Client early(server.port(), /*timeout_sec=*/30.0);
  ASSERT_TRUE(early.connected());
  const auto ack = early.query(R"({"id":1,"query":"watch"})");
  ASSERT_TRUE(ack.has_value());
  ASSERT_TRUE(ack->find("ok")->as_bool());
  EXPECT_TRUE(ack->find("result")->find("subscribed")->as_bool());
  EXPECT_EQ(ack->find("result")->find("windows")->as_uint(), 0u);

  analysis::Monitor monitor;  // fresh archive has no live windows to prime
  IngestConfig icfg;
  icfg.max_windows = 10;
  icfg.window_packets = 1024;
  icfg.surge_start = 8;
  icfg.surge_len = 2;
  icfg.surge_factor = 8.0;
  // The ten windows publish within milliseconds, so the ingest holds at
  // window 3 until the late watcher's subscription is acknowledged: the
  // late watcher joins mid-ingest by construction, not by timing.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  const auto open_gate = [&] {
    {
      const std::lock_guard lk(gate_mu);
      gate_open = true;
    }
    gate_cv.notify_all();
  };
  icfg.on_publish = [&, publish = monitor_publisher(server, monitor)](const PublishedWindow& pw) {
    publish(pw);
    if (pw.meta.window == 2) {
      std::unique_lock lk(gate_mu);
      gate_cv.wait_for(lk, std::chrono::seconds(60), [&] { return gate_open; });
    }
  };
  IngestLoop ingest(dir, engine, pool, icfg);
  ingest.start();
  const ScopeExit stop_ingest([&] {
    open_gate();
    ingest.stop_and_join();
  });

  // Churn: watchers that subscribe and immediately vanish, mid-stream.
  for (int k = 0; k < 3; ++k) {
    Client churn(server.port());
    ASSERT_TRUE(churn.connected());
    ASSERT_TRUE(churn.send_raw("{\"query\":\"watch\"}\n"));
  }

  // A late watcher connecting mid-ingest sees a strict suffix.
  for (int spin = 0; spin < 600 && engine.window_count() < 3; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Client late(server.port(), /*timeout_sec=*/30.0);
  ASSERT_TRUE(late.connected());
  const auto late_ack = late.query(R"({"id":2,"query":"watch"})");
  ASSERT_TRUE(late_ack.has_value());
  const std::uint64_t late_windows = late_ack->find("result")->find("windows")->as_uint();
  EXPECT_GE(late_windows, 3u);
  EXPECT_EQ(late_windows, 3u);  // held at window 3: the join is mid-ingest
  open_gate();

  // Drain the early watcher's stream until the final heartbeat.
  std::vector<std::uint64_t> seen;
  std::vector<std::uint64_t> anomaly_windows;
  bool valid_packets_flagged_at_8 = false;
  while (true) {
    const auto line = early.read_line();
    ASSERT_TRUE(line.has_value()) << "watch stream ended before window 9";
    const JsonValue ev = parse_json(*line);
    const std::string kind = ev.find("event")->as_string();
    if (kind == "window") {
      seen.push_back(ev.find("window")->as_uint());
      if (seen.back() == 9) break;
    } else if (kind == "anomaly") {
      anomaly_windows.push_back(ev.find("window")->as_uint());
      if (ev.find("window")->as_uint() == 8 &&
          ev.find("metric")->as_string() == "table2.valid_packets") {
        valid_packets_flagged_at_8 = true;
      }
    }
  }
  ASSERT_EQ(seen.size(), 10u);
  for (std::uint64_t w = 0; w < 10; ++w) EXPECT_EQ(seen[w], w);  // in order, exactly once
  ASSERT_FALSE(anomaly_windows.empty());
  for (const std::uint64_t w : anomaly_windows) EXPECT_GE(w, 8u);
  // The surge's driving metric is flagged in the surge window itself —
  // "within 1 published window" of the event.
  EXPECT_TRUE(valid_packets_flagged_at_8);

  // The late watcher sees a strict, duplicate-free suffix of the stream.
  std::vector<std::uint64_t> late_seen;
  while (true) {
    const auto line = late.read_line();
    ASSERT_TRUE(line.has_value());
    const JsonValue ev = parse_json(*line);
    if (ev.find("event")->as_string() != "window") continue;
    late_seen.push_back(ev.find("window")->as_uint());
    if (late_seen.back() == 9) break;
  }
  ASSERT_FALSE(late_seen.empty());
  EXPECT_GE(late_seen.front(), late_windows >= 1 ? late_windows - 1 : 0);
  for (std::size_t i = 1; i < late_seen.size(); ++i) {
    EXPECT_EQ(late_seen[i], late_seen[i - 1] + 1);
  }

  ingest.stop_and_join();
  EXPECT_EQ(ingest.error(), "");

  // Drain: watchers get a clean EOF, the loop exits 0. Window 9's
  // anomaly events may still trail in the stream — consume them first.
  server.request_stop();
  serve_thread.join();
  while (early.read_line().has_value()) {
  }
  while (late.read_line().has_value()) {
  }
  EXPECT_TRUE(early.at_eof());
  EXPECT_TRUE(late.at_eof());
}

TEST(SvcServerTest, ConcurrentColdReportsAllAnswer) {
  // `report` loads the archive as pool tasks from inside its request.
  // Eight cold reports at once, on two workers: the render waits only on
  // its own chunks, so it never runs a queued twin of itself, which
  // would wait forever on the render's own unfinished cache entry.
  RunningServer rs({}, /*threads=*/2);
  std::vector<std::string> answers(8);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    clients.emplace_back([&, i] {
      Client c(rs.port(), /*timeout_sec=*/60.0);
      if (!c.connected()) return;
      const auto resp = c.query(R"({"query":"report"})");
      if (resp && resp->find("ok")->as_bool()) {
        answers[i] = resp->find("result")->find("text")->as_string();
      }
    });
  }
  for (auto& t : clients) t.join();
  for (std::size_t i = 0; i < answers.size(); ++i) {
    EXPECT_FALSE(answers[i].empty()) << "request " << i << " got no report";
    EXPECT_EQ(answers[i], answers[0]) << "request " << i;
  }
}

TEST(SvcServerTest, WatcherDisconnectsCleanlyDuringDrain) {
  RunningServer rs({});
  Client c(rs.port());
  ASSERT_TRUE(c.connected());
  const auto ack = c.query(R"({"query":"watch"})");
  ASSERT_TRUE(ack.has_value());
  ASSERT_TRUE(ack->find("ok")->as_bool());
  // A watcher is idle by design; drain must still close it promptly.
  rs.stop();
  EXPECT_TRUE(c.at_eof());
  EXPECT_EQ(rs.exit_code(), 0);
}

TEST(SvcServerTest, WatcherStaysRequestCapableAndSurvivesIdleSweep) {
  ServerConfig cfg;
  cfg.idle_timeout_sec = 0.1;  // reap idle conns almost immediately
  RunningServer rs(cfg);
  Client c(rs.port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.query(R"({"query":"watch"})")->find("ok")->as_bool());
  // Long past the idle deadline, the subscription is still alive and
  // still answers ordinary queries on the same connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const auto stats = c.query(R"({"id":5,"query":"stats"})");
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->find("ok")->as_bool());

  // A non-watching control connection opened now is reaped.
  Client idle(rs.port());
  ASSERT_TRUE(idle.connected());
  ASSERT_TRUE(idle.query(R"({"query":"stats"})").has_value());
  for (int spin = 0; spin < 300 && !idle.at_eof(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(idle.at_eof());
}

TEST(SvcServerTest, CorrelateQueryRanksSnapshotSeries) {
  RunningServer rs({});
  Client c(rs.port());
  ASSERT_TRUE(c.connected());

  const auto resp =
      c.query(R"({"id":1,"query":"correlate","params":{"method":"volume","top":3}})");
  ASSERT_TRUE(resp.has_value());
  ASSERT_TRUE(resp->find("ok")->as_bool());
  const JsonValue* result = resp->find("result");
  EXPECT_EQ(result->find("method")->as_string(), "volume");
  // No live windows in the shared archive: the domain defaults to the 5
  // snapshots, netdata framing = baseline 0:3 vs highlight 4:4.
  EXPECT_EQ(result->find("baseline")->find("first")->as_uint(), 0u);
  EXPECT_EQ(result->find("baseline")->find("last")->as_uint(), 3u);
  EXPECT_EQ(result->find("highlight")->find("first")->as_uint(), 4u);
  EXPECT_EQ(result->find("highlight")->find("last")->as_uint(), 4u);
  EXPECT_EQ(result->find("ranked")->items().size(), analysis::metric_count());
  EXPECT_FALSE(result->find("text")->as_string().empty());

  // Deterministic and cached: the repeat answers byte-identically.
  const auto again =
      c.query(R"({"id":2,"query":"correlate","params":{"method":"volume","top":3}})");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(dump_json(*again->find("result")), dump_json(*resp->find("result")));

  const auto bad = c.query(R"({"query":"correlate","params":{"method":"pearson"}})");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(bad->find("ok")->as_bool());
}

TEST(SvcServerTest, StatsCarriesPerQueryLatencyDigests) {
  RunningServer rs({});
  Client c(rs.port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.query(R"({"query":"degrees","params":{"snapshot":0}})")->find("ok")->as_bool());
  ASSERT_TRUE(c.query(R"({"query":"stats"})")->find("ok")->as_bool());

  // The second stats call reports both earlier query types.
  const auto resp = c.query(R"({"query":"stats"})");
  ASSERT_TRUE(resp.has_value());
  const JsonValue* latency = resp->find("result")->find("latency");
  ASSERT_NE(latency, nullptr);
  const JsonValue* degrees = latency->find("degrees");
  ASSERT_NE(degrees, nullptr);
  EXPECT_EQ(degrees->find("count")->as_uint(), 1u);
  EXPECT_GT(degrees->find("p99_us")->as_double(), 0.0);
  const JsonValue* stats_lat = latency->find("stats");
  ASSERT_NE(stats_lat, nullptr);
  EXPECT_GE(stats_lat->find("count")->as_uint(), 1u);

  // The engine-side snapshot agrees (what `--timing` prints).
  const auto snap = rs.engine().latency_snapshot();
  ASSERT_GE(snap.size(), 2u);
  for (const auto& ql : snap) {
    EXPECT_GT(ql.count, 0u);
    EXPECT_GE(ql.p99_us, ql.p50_us);
  }
}

TEST(SvcServerTest, MetricsQueryServesPrometheusFormat) {
  RunningServer rs({});
  Client c(rs.port());
  ASSERT_TRUE(c.connected());
  const auto resp = c.query(R"({"query":"metrics","params":{"format":"prom"}})");
  ASSERT_TRUE(resp.has_value());
  ASSERT_TRUE(resp->find("ok")->as_bool());
  EXPECT_EQ(resp->find("result")->find("format")->as_string(), "prom");
  const std::string text = resp->find("result")->find("text")->as_string();
  EXPECT_NE(text.find("# TYPE obscorr_svc_requests counter"), std::string::npos);
  EXPECT_NE(text.find("obscorr_svc_requests_total "), std::string::npos);
  EXPECT_NE(text.find("# EOF\n"), std::string::npos);

  const auto bad = c.query(R"({"query":"metrics","params":{"format":"xml"}})");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(bad->find("ok")->as_bool());
}

TEST(SvcServerTest, RequestStopViaInterruptFlag) {
  // The signal path: the global interrupt flag (what SIGINT/SIGTERM set)
  // must drain the loop without an explicit request_stop().
  RunningServer rs({});
  Client c(rs.port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.query(R"({"query":"stats"})").has_value());
  interrupt::request_stop();
  for (int spin = 0; spin < 300 && !c.at_eof(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(c.at_eof());
  rs.stop();
  EXPECT_EQ(rs.exit_code(), 0);
  interrupt::reset();
}

TEST(SvcServerTest, UndeclaredParametersAreBadRequests) {
  // Every query declares its parameters; a misspelled one is an error
  // rather than a silently applied default.
  RunningServer rs({});
  Client c(rs.port());
  ASSERT_TRUE(c.connected());
  for (const char* bad : {R"({"query":"degrees","params":{"snapshott":3}})",
                          R"({"query":"stats","params":{"verbose":true}})",
                          R"({"query":"watch","params":{"from":0}})"}) {
    const auto resp = c.query(bad);
    ASSERT_TRUE(resp.has_value()) << bad;
    EXPECT_FALSE(resp->find("ok")->as_bool()) << bad;
    EXPECT_EQ(resp->find("error")->find("code")->as_string(), "bad_request") << bad;
    EXPECT_NE(resp->find("error")->find("message")->as_string().find("unknown parameter"),
              std::string::npos)
        << bad;
  }
}

TEST(SvcServerTest, MetricsOutSnapshotsUseRequestedFormat) {
  // The periodic snapshots a running daemon writes are in the requested
  // format, not only the export at exit.
  const std::string path = ::testing::TempDir() + "/svc_metrics_snapshot.prom";
  std::filesystem::remove(path);
  ServerConfig cfg;
  cfg.metrics_out = path;
  cfg.metrics_format = "prom";
  cfg.metrics_interval_sec = 0.05;
  RunningServer rs(cfg);
  Client c(rs.port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.query(R"({"query":"stats"})").has_value());
  std::string text;
  for (int spin = 0; spin < 500 && text.find("obscorr_svc_requests_total") == std::string::npos;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  EXPECT_NE(text.find("# TYPE obscorr_svc_requests counter"), std::string::npos) << text;
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
  EXPECT_EQ(text.find("obscorr.metrics.v1"), std::string::npos);
  rs.stop();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace obscorr::svc
