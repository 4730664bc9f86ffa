#pragma once
/// \file server.hpp
/// The resident observatory daemon's connection front-end: one epoll
/// event loop (the calling thread) accepting TCP or Unix-socket clients
/// and framing newline-delimited JSON requests, with query execution
/// dispatched to the shared ThreadPool so the loop never blocks on a
/// render. Responses are queued back through a completion queue and an
/// eventfd wake.
///
/// Hostile-client posture, enforced here rather than per query:
///
///  * bounded request buffer — a line over kMaxRequestBytes gets a
///    `too_large` error and the connection is closed without buffering
///    the rest;
///  * per-request timeout — a partial line that stops making progress
///    (slow loris) is answered with `timeout` and closed; a client that
///    stops reading its response is closed once the write side stalls
///    past the same deadline;
///  * idle timeout — quiet connections are reaped;
///  * connection cap — accepts beyond max_connections get a best-effort
///    `shedding` error line and an immediate close (503-style shedding,
///    the listener never stops accepting so the backlog cannot fill
///    with dead sockets);
///  * serial per connection — one request in flight per connection,
///    responses in request order; concurrency comes from many
///    connections.
///
/// `watch` subscriptions: a connection that sends {"query":"watch"} is
/// acknowledged inline and marked as a subscriber; every line handed to
/// `publish_event()` (the ingest thread calls it per published window)
/// is pushed to all subscribers in publication order, exactly once
/// each. Watchers are exempt from the idle reaper but not from the
/// stalled-write deadline, and a watcher whose unread backlog exceeds
/// kMaxWatchBacklogBytes is disconnected — a stuck consumer cannot pin
/// daemon memory.
///
/// Shutdown (SIGINT/SIGTERM via common/interrupt.hpp, or
/// `request_stop()`): stop accepting, let in-flight requests finish,
/// flush every pending response, then return from `serve()`. The wake
/// eventfd is registered as the interrupt wake fd, so a signal landing
/// while the loop is blocked in epoll_wait is noticed immediately.
///
/// Linux-only (epoll); on other hosts `serve()` throws.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/thread_pool.hpp"
#include "svc/queries.hpp"

namespace obscorr::svc {

struct ServerConfig {
  /// Unix-socket path; when empty, TCP on host:port is used.
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = 0;  ///< TCP port; 0 picks an ephemeral one (see Server::port)

  std::size_t max_connections = 256;
  double request_timeout_sec = 10.0;  ///< partial-read / stalled-write deadline
  double idle_timeout_sec = 300.0;    ///< quiet-connection reaper
  double drain_timeout_sec = 10.0;    ///< shutdown grace before force-close

  /// When non-empty, the loop writes a metrics snapshot ("json" or "prom"
  /// per metrics_format, mem.peak_rss refreshed) to this path every
  /// metrics_interval_sec and once more on shutdown.
  std::string metrics_out;
  std::string metrics_format = "json";
  double metrics_interval_sec = 1.0;
};

/// The epoll front-end; construct, bind(), then serve().
class Server {
 public:
  Server(ServerConfig config, QueryEngine& engine, ThreadPool& pool);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Create and bind the listening socket; throws std::invalid_argument
  /// on failure. After bind(), endpoint()/port() are valid.
  void bind();

  /// "unix:<path>" or "tcp:<host>:<port>" (the actually bound port).
  std::string endpoint() const;

  /// Bound TCP port (0 for unix sockets).
  int port() const;

  /// Run the event loop until a stop is requested and the drain
  /// completes. Returns 0 on a clean drain.
  int serve();

  /// Ask a running serve() to shut down (thread-safe; also triggered by
  /// SIGINT/SIGTERM through common/interrupt.hpp).
  void request_stop();

  /// Queue one event line for every `watch` subscriber (thread-safe; a
  /// missing trailing newline is added). Delivered by the event loop in
  /// publication order; dropped when no subscriber is connected. No-op
  /// on hosts without epoll.
  void publish_event(std::string line);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace obscorr::svc
