#include "svc/server.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/interrupt.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "svc/protocol.hpp"

#if defined(__linux__)
#define OBSCORR_HAVE_EPOLL 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace obscorr::svc {

#ifdef OBSCORR_HAVE_EPOLL

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point then, Clock::time_point now) {
  return std::chrono::duration<double>(now - then).count();
}

}  // namespace

struct Server::Impl {
  ServerConfig cfg;
  QueryEngine& engine;
  ThreadPool& pool;

  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;
  int bound_port = 0;
  bool is_unix = false;
  bool bound = false;

  std::atomic<bool> stop_flag{false};
  bool draining = false;
  Clock::time_point drain_since;

  /// One client connection. Requests are handled serially per
  /// connection: `busy` marks one in flight; pipelined lines wait in
  /// `in` until its completion arrives.
  struct Conn {
    int fd = -1;
    std::string in;
    Clock::time_point in_since;   ///< when `in` last became non-empty
    std::string out;
    std::size_t out_pos = 0;
    Clock::time_point out_since;  ///< when `out` last became non-empty
    bool busy = false;
    bool close_after_flush = false;
    bool watching = false;  ///< subscribed to pushed window/anomaly events
    Clock::time_point last_activity;
  };

  /// A watcher whose unread output (responses + pushed events) exceeds
  /// this is disconnected rather than buffered without bound.
  static constexpr std::size_t kMaxWatchBacklogBytes = 4 * 1024 * 1024;
  std::unordered_map<std::uint64_t, Conn> conns;
  std::uint64_t next_id = 1;

  /// Completion queue filled by pool tasks, drained by the loop thread.
  /// Tasks hold a raw Impl pointer: serve() counts dispatches in
  /// `inflight` and does not return until every completion has been
  /// consumed, and a task queues its completion and wakes the loop under
  /// `done_mu`, so the Impl outlives every task's last use of it.
  std::mutex done_mu;
  std::vector<std::pair<std::uint64_t, std::string>> done;
  std::size_t inflight = 0;

  /// Event lines queued by publish_event() (any thread), fanned out to
  /// watchers by the loop thread.
  std::mutex events_mu;
  std::vector<std::string> pending_events;

  Clock::time_point next_metrics;

  Impl(ServerConfig c, QueryEngine& e, ThreadPool& p)
      : cfg(std::move(c)), engine(e), pool(p) {}

  ~Impl() {
    interrupt::set_wake_fd(-1);
    for (auto& [id, conn] : conns) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_fd >= 0) ::close(wake_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (is_unix && bound) ::unlink(cfg.unix_path.c_str());
  }

  void bind() {
    OBSCORR_REQUIRE(!bound, "serve: already bound");
    is_unix = !cfg.unix_path.empty();
    if (is_unix) {
      OBSCORR_REQUIRE(cfg.unix_path.size() < sizeof(sockaddr_un{}.sun_path),
                      "serve: unix socket path too long");
      listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      OBSCORR_REQUIRE(listen_fd >= 0, "serve: cannot create unix socket");
      ::unlink(cfg.unix_path.c_str());  // a stale socket file from a dead daemon
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, cfg.unix_path.c_str(), sizeof(addr.sun_path) - 1);
      OBSCORR_REQUIRE(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                      "serve: cannot bind " + cfg.unix_path);
    } else {
      OBSCORR_REQUIRE(cfg.port >= 0 && cfg.port <= 65535, "serve: port must be in 0..65535");
      listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      OBSCORR_REQUIRE(listen_fd >= 0, "serve: cannot create tcp socket");
      const int one = 1;
      ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(cfg.port));
      OBSCORR_REQUIRE(::inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) == 1,
                      "serve: malformed host address " + cfg.host);
      OBSCORR_REQUIRE(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                      "serve: cannot bind " + cfg.host + ":" + std::to_string(cfg.port));
      sockaddr_in bound_addr{};
      socklen_t len = sizeof(bound_addr);
      OBSCORR_REQUIRE(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound_addr), &len) == 0,
                      "serve: getsockname failed");
      bound_port = static_cast<int>(ntohs(bound_addr.sin_port));
    }
    OBSCORR_REQUIRE(::listen(listen_fd, 128) == 0, "serve: listen failed");

    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    OBSCORR_REQUIRE(epoll_fd >= 0, "serve: epoll_create1 failed");
    wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    OBSCORR_REQUIRE(wake_fd >= 0, "serve: eventfd failed");

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = 0;  // id 0 = listener
    OBSCORR_REQUIRE(::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev) == 0,
                    "serve: epoll_ctl(listen) failed");
    epoll_event wev{};
    wev.events = EPOLLIN;
    wev.data.u64 = 1;  // id 1 = wake eventfd
    OBSCORR_REQUIRE(::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &wev) == 0,
                    "serve: epoll_ctl(wake) failed");
    // A signal delivered while the loop is blocked in epoll_wait pokes
    // the same eventfd the completion queue uses.
    interrupt::set_wake_fd(wake_fd);
    next_id = 2;
    bound = true;
  }

  std::string endpoint() const {
    if (is_unix) return "unix:" + cfg.unix_path;
    return "tcp:" + cfg.host + ":" + std::to_string(bound_port);
  }

  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_fd, &one, sizeof(one));
  }

  void update_events(std::uint64_t id, Conn& conn) {
    epoll_event ev{};
    ev.events = EPOLLIN | (conn.out_pos < conn.out.size() ? EPOLLOUT : 0u);
    ev.data.u64 = id;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  void close_conn(std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, it->second.fd, nullptr);
    ::close(it->second.fd);
    conns.erase(it);
  }

  void accept_clients() {
    while (true) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN, or a transient accept failure
      if (!is_unix) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      if (conns.size() >= cfg.max_connections || draining) {
        // 503-style shedding: best-effort error line, immediate close.
        // The listener keeps accepting so the backlog never silts up
        // with sockets nobody will ever answer.
        const std::string line = make_error(
            JsonValue::null(), draining ? "shutting_down" : "shedding",
            draining ? "server is draining" : "connection limit reached");
        [[maybe_unused]] const auto n = ::write(fd, line.data(), line.size());
        ::close(fd);
        if (obs::counters_enabled()) {
          static obs::Counter& shed = obs::counter("svc.shed");
          shed.add(1);
        }
        continue;
      }
      const std::uint64_t id = next_id++;
      Conn conn;
      conn.fd = fd;
      conn.last_activity = Clock::now();
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = id;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      conns.emplace(id, std::move(conn));
      if (obs::counters_enabled()) {
        static obs::Counter& accepted = obs::counter("svc.accepted");
        accepted.add(1);
        obs::gauge("svc.connections_high_water")
            .record_max(static_cast<std::uint64_t>(conns.size()));
      }
    }
  }

  void fail_conn(std::uint64_t id, Conn& conn, std::string_view code, std::string_view message) {
    conn.in.clear();
    conn.busy = false;  // any in-flight completion is dropped at delivery
    conn.close_after_flush = true;
    if (conn.out_pos == conn.out.size()) {
      conn.out.clear();
      conn.out_pos = 0;
      conn.out_since = Clock::now();
    }
    conn.out += make_error(JsonValue::null(), code, message);
    // No inline flush: a completed flush of a parting connection erases
    // it, and every caller still holds a reference (the deadline sweep
    // is mid-iteration over the map). The EPOLLOUT registered here does
    // the flush-then-close on the next loop pass instead.
    update_events(id, conn);
  }

  void append_out(std::uint64_t id, Conn& conn, std::string bytes) {
    if (conn.out_pos == conn.out.size()) {
      conn.out.clear();
      conn.out_pos = 0;
      conn.out_since = Clock::now();
    }
    conn.out += bytes;
    flush_conn(id, conn);
  }

  /// Write as much pending output as the socket accepts; closes on a
  /// completed flush of a parting connection. May erase the conn.
  void flush_conn(std::uint64_t id, Conn& conn) {
    while (conn.out_pos < conn.out.size()) {
      const auto n = ::write(conn.fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos);
      if (n <= 0) break;
      conn.out_pos += static_cast<std::size_t>(n);
      conn.out_since = Clock::now();
      conn.last_activity = conn.out_since;
      if (obs::counters_enabled()) {
        static obs::Counter& bytes_out = obs::counter("svc.bytes_out");
        bytes_out.add(static_cast<std::uint64_t>(n));
      }
    }
    if (conn.out_pos == conn.out.size()) {
      conn.out.clear();
      conn.out_pos = 0;
      if (conn.close_after_flush && !conn.busy) {
        close_conn(id);
        return;
      }
    }
    update_events(id, conn);
  }

  void dispatch_request(std::uint64_t id, Request req) {
    ++inflight;
    // The task owns only its request; results come back through `done`.
    // Tasks must not throw (ThreadPool contract) — execute() converts
    // failures to protocol error responses itself, the catch is a belt.
    pool.submit([this, id, req = std::move(req)] {
      std::string resp;
      try {
        resp = engine.execute(req);
      } catch (const std::exception& e) {
        resp = make_error(JsonValue::null(), "bad_request", e.what());
      } catch (...) {
        resp = make_error(JsonValue::null(), "bad_request", "unparseable request");
      }
      // Wake under the lock: once the loop can take this completion it
      // may see inflight == 0, return from serve() and close the eventfd,
      // so the write must land before the lock is released.
      const std::lock_guard lk(done_mu);
      done.emplace_back(id, std::move(resp));
      wake();
    });
  }

  /// Handle a `watch` subscription inline on the loop thread: mark the
  /// connection, acknowledge with the current window count so the
  /// client knows which window the stream starts after. May erase the
  /// conn (a dead socket fails the ack flush).
  void subscribe_watch(std::uint64_t id, Conn& conn, const Request& req) {
    conn.watching = true;
    JsonValue result = JsonValue::object();
    result.set("subscribed", JsonValue::boolean(true));
    result.set("windows",
               JsonValue::number(static_cast<std::uint64_t>(engine.window_count())));
    if (obs::counters_enabled()) {
      std::size_t watchers = 0;
      for (const auto& [cid, c] : conns) watchers += c.watching ? 1u : 0u;
      obs::gauge("svc.watchers_high_water").record_max(static_cast<std::uint64_t>(watchers));
    }
    append_out(id, conn, make_ok(req.id, std::move(result)));
  }

  /// Consume complete request lines from the connection's buffer. One
  /// request in flight per connection; the rest stay buffered. Parsing
  /// happens here on the loop thread (cheap — requests are one small
  /// line) so `watch` can be recognized and handled without a pool
  /// round-trip; everything else dispatches to the pool as before.
  void process_lines(std::uint64_t id, Conn& conn) {
    while (!conn.busy && !conn.close_after_flush) {
      const std::size_t nl = conn.in.find('\n');
      if (nl == std::string::npos) {
        if (conn.in.size() > kMaxRequestBytes) {
          fail_conn(id, conn, "too_large", "request line exceeds " +
                                               std::to_string(kMaxRequestBytes) + " bytes");
        }
        return;
      }
      std::string line = conn.in.substr(0, nl);
      conn.in.erase(0, nl + 1);
      conn.in_since = Clock::now();  // the remainder starts a fresh request
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;  // blank keep-alive lines are ignored
      if (line.size() > kMaxRequestBytes) {
        fail_conn(id, conn, "too_large", "request line exceeds " +
                                             std::to_string(kMaxRequestBytes) + " bytes");
        return;
      }
      Request req;
      try {
        req = parse_request(line);
      } catch (const std::exception& e) {
        append_out(id, conn, make_error(JsonValue::null(), "bad_request", e.what()));
        const auto again = conns.find(id);
        if (again == conns.end()) return;  // dead socket: flush erased it
        continue;
      }
      // `watch` declares no params; one that names any goes to the engine,
      // which rejects it like any other undeclared parameter.
      if (req.query == "watch" && req.params.members().empty()) {
        subscribe_watch(id, conn, req);
        const auto again = conns.find(id);
        if (again == conns.end()) return;
        continue;
      }
      conn.busy = true;
      dispatch_request(id, std::move(req));
    }
  }

  /// Read everything available; may erase the conn (EOF / fatal error).
  void readable(std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    Conn& conn = it->second;
    char buf[16384];
    while (true) {
      const auto n = ::read(conn.fd, buf, sizeof(buf));
      if (n > 0) {
        if (conn.in.empty()) conn.in_since = Clock::now();
        conn.last_activity = Clock::now();
        if (!conn.close_after_flush) conn.in.append(buf, static_cast<std::size_t>(n));
        if (obs::counters_enabled()) {
          static obs::Counter& bytes_in = obs::counter("svc.bytes_in");
          bytes_in.add(static_cast<std::uint64_t>(n));
        }
        if (!conn.close_after_flush && conn.in.size() > kMaxRequestBytes) {
          // Bounded buffering: the cap applies to unprocessed bytes as a
          // whole, so neither one oversized line nor an unbounded
          // pipeline backlog can grow the buffer. Once failed, further
          // input is read and discarded until the error line flushes.
          fail_conn(id, conn, "too_large", "request buffer exceeds " +
                                               std::to_string(kMaxRequestBytes) + " bytes");
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // EOF or error. A client that half-closed after sending requests
      // still gets its in-flight response flushed.
      if (conn.busy || conn.out_pos < conn.out.size()) {
        conn.close_after_flush = true;
        break;
      }
      close_conn(id);
      return;
    }
    process_lines(id, conn);
  }

  void deliver_completions() {
    std::vector<std::pair<std::uint64_t, std::string>> batch;
    {
      const std::lock_guard lk(done_mu);
      batch.swap(done);
    }
    for (auto& [id, resp] : batch) {
      --inflight;
      const auto it = conns.find(id);
      if (it == conns.end()) continue;  // connection died while executing
      Conn& conn = it->second;
      if (!conn.busy) continue;  // failed/reset connection: drop the response
      conn.busy = false;
      conn.last_activity = Clock::now();
      append_out(id, conn, std::move(resp));  // may close the conn
      const auto again = conns.find(id);
      if (again != conns.end()) process_lines(id, again->second);
    }
  }

  void publish_event(std::string line) {
    if (line.empty()) return;
    if (line.back() != '\n') line += '\n';
    {
      const std::lock_guard lk(events_mu);
      pending_events.push_back(std::move(line));
    }
    wake();
  }

  /// Fan pending events out to every watcher, in publication order.
  /// Each event reaches each subscriber exactly once: the queue is
  /// swapped out under the lock and appended to every watcher's output
  /// in one pass. May erase conns (backlog overflow, parting flush).
  void deliver_events() {
    std::vector<std::string> batch;
    {
      const std::lock_guard lk(events_mu);
      batch.swap(pending_events);
    }
    if (batch.empty()) return;
    std::string payload;
    for (const std::string& e : batch) payload += e;
    std::vector<std::uint64_t> watchers;
    for (const auto& [id, conn] : conns) {
      if (conn.watching && !conn.close_after_flush) watchers.push_back(id);
    }
    for (const std::uint64_t id : watchers) {
      const auto it = conns.find(id);
      if (it == conns.end()) continue;
      Conn& conn = it->second;
      if (conn.out.size() - conn.out_pos + payload.size() > kMaxWatchBacklogBytes) {
        close_conn(id);  // stuck consumer: cut it loose, keep the daemon bounded
        continue;
      }
      if (obs::counters_enabled()) {
        static obs::Counter& watch_events = obs::counter("svc.watch_events");
        watch_events.add(batch.size());
      }
      append_out(id, conn, payload);
    }
  }

  void sweep_deadlines() {
    const auto now = Clock::now();
    std::vector<std::uint64_t> to_close;
    for (auto& [id, conn] : conns) {
      if (conn.busy) continue;  // execution owns the clock until completion
      const bool out_pending = conn.out_pos < conn.out.size();
      if (out_pending && seconds_since(conn.out_since, now) > cfg.request_timeout_sec) {
        to_close.push_back(id);  // reader stopped draining its response
        continue;
      }
      if (!out_pending && !conn.in.empty() &&
          seconds_since(conn.in_since, now) > cfg.request_timeout_sec) {
        // Slow loris: a partial line with no newline in sight. The
        // deadline runs from when the fragment started accumulating,
        // not from the last byte, so trickling keeps nothing alive.
        if (obs::counters_enabled()) {
          static obs::Counter& timeouts = obs::counter("svc.timeouts");
          timeouts.add(1);
        }
        fail_conn(id, conn, "timeout", "request incomplete after " +
                                           std::to_string(cfg.request_timeout_sec) + "s");
        continue;
      }
      if (!out_pending && conn.in.empty() && !conn.watching &&
          seconds_since(conn.last_activity, now) > cfg.idle_timeout_sec) {
        // Watchers are exempt: a subscriber is quiet by design; the
        // stalled-write deadline above still covers one that stops
        // reading.
        to_close.push_back(id);
      }
    }
    for (const std::uint64_t id : to_close) {
      if (obs::counters_enabled()) {
        static obs::Counter& timeouts = obs::counter("svc.timeouts");
        timeouts.add(1);
      }
      close_conn(id);
    }
  }

  void write_metrics_snapshot() {
    if (cfg.metrics_out.empty()) return;
    obs::gauge("mem.peak_rss").record_max(static_cast<std::uint64_t>(obs::peak_rss_bytes()));
    // A failed write is ignored: snapshotting must never kill the daemon.
    (void)obs::write_metrics_file(cfg.metrics_out, cfg.metrics_format);
  }

  void begin_drain() {
    draining = true;
    drain_since = Clock::now();
    // Stop accepting; clients attempting to connect now get a RST (tcp)
    // or ENOENT (unix) instead of queueing behind a closing daemon.
    if (listen_fd >= 0) {
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
      ::close(listen_fd);
      listen_fd = -1;
      if (is_unix) ::unlink(cfg.unix_path.c_str());
    }
    std::vector<std::uint64_t> idle;
    for (auto& [id, conn] : conns) {
      conn.close_after_flush = true;
      if (!conn.busy && conn.out_pos == conn.out.size()) idle.push_back(id);
    }
    for (const std::uint64_t id : idle) close_conn(id);
  }

  int serve() {
    OBSCORR_REQUIRE(bound, "serve: bind() first");
    next_metrics = Clock::now();
    epoll_event events[64];
    while (true) {
      const bool stop = stop_flag.load(std::memory_order_relaxed) || interrupt::stop_requested();
      if (stop && !draining) begin_drain();
      if (draining) {
        if (conns.empty() && inflight == 0) break;
        if (seconds_since(drain_since, Clock::now()) > cfg.drain_timeout_sec) {
          // Grace expired: drop the stragglers, but still wait for
          // in-flight pool tasks — their completions reference us.
          for (auto it = conns.begin(); it != conns.end();) {
            ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, it->second.fd, nullptr);
            ::close(it->second.fd);
            it = conns.erase(it);
          }
          if (inflight == 0) break;
        }
      }

      const int n = ::epoll_wait(epoll_fd, events, 64, /*timeout_ms=*/250);
      if (n < 0) {
        if (errno == EINTR) continue;
        OBSCORR_REQUIRE(false, "serve: epoll_wait failed");
      }
      for (int i = 0; i < n; ++i) {
        const std::uint64_t id = events[i].data.u64;
        if (id == 0) {
          accept_clients();
          continue;
        }
        if (id == 1) {
          std::uint64_t drained = 0;
          while (::read(wake_fd, &drained, sizeof(drained)) > 0) {
          }
          continue;
        }
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          const auto it = conns.find(id);
          if (it != conns.end() && !it->second.busy) {
            close_conn(id);
            continue;
          }
        }
        if (events[i].events & EPOLLIN) readable(id);
        if (events[i].events & EPOLLOUT) {
          const auto it = conns.find(id);
          if (it != conns.end()) flush_conn(id, it->second);
        }
      }
      deliver_completions();
      deliver_events();
      sweep_deadlines();
      if (!cfg.metrics_out.empty() && Clock::now() >= next_metrics) {
        write_metrics_snapshot();
        next_metrics =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(cfg.metrics_interval_sec));
      }
    }
    write_metrics_snapshot();  // final state, peak RSS included
    return 0;
  }
};

Server::Server(ServerConfig config, QueryEngine& engine, ThreadPool& pool)
    : impl_(std::make_unique<Impl>(std::move(config), engine, pool)) {}

Server::~Server() = default;

void Server::bind() { impl_->bind(); }

std::string Server::endpoint() const { return impl_->endpoint(); }

int Server::port() const { return impl_->bound_port; }

int Server::serve() { return impl_->serve(); }

void Server::request_stop() {
  impl_->stop_flag.store(true, std::memory_order_relaxed);
  impl_->wake();
}

void Server::publish_event(std::string line) { impl_->publish_event(std::move(line)); }

#else  // !OBSCORR_HAVE_EPOLL

struct Server::Impl {
  ServerConfig cfg;
  Impl(ServerConfig c, QueryEngine&, ThreadPool&) : cfg(std::move(c)) {}
};

Server::Server(ServerConfig config, QueryEngine& engine, ThreadPool& pool)
    : impl_(std::make_unique<Impl>(std::move(config), engine, pool)) {}

Server::~Server() = default;

void Server::bind() {
  OBSCORR_REQUIRE(false, "serve: the resident service requires linux (epoll)");
}

std::string Server::endpoint() const { return ""; }

int Server::port() const { return 0; }

int Server::serve() {
  OBSCORR_REQUIRE(false, "serve: the resident service requires linux (epoll)");
  return 2;
}

void Server::request_stop() {}

void Server::publish_event(std::string) {}

#endif

}  // namespace obscorr::svc
