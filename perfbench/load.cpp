/// \file load.cpp
/// Open-loop load generator for `obscorr serve` (one thread, pipelined
/// connections). It sends every planned request at its due time whether or
/// not earlier answers have arrived, and times each request from that due
/// time to its full response line, so a daemon stall also charges the
/// requests that queue behind it.
///
/// usage: perfbench_load --unix PATH --plan FILE --out FILE
///          [--responses FILE] [--events FILE] [--watch] [--stop-windows K]
///          [--min-requests N]
///          [--timeout-ms T=5000] [--drain-ms D=5000]
///
/// Plan lines:  <due_us> <conn> <type> <mode> <request json>
///   mode '=' sends the JSON as written; mode 'N' sends `degrees` of the
///   newest window the watch subscriber has heard of (needs --watch).
/// Out lines:   <index> <type> <conn> <due_us> <lag_us> <latency_us> <status> <window>
///   status 0 ok, 1 error response, 2 timed out or unanswered (latency -1),
///   3 a repeat of a key answered with other bytes than its first answer;
///   window is the one a mode-'N' request asked for (-1 otherwise).
/// Responses:   <request>\t<response> for the first answer of every key
///   whose answer is immutable (all types but stats and metrics).
/// Events:      <recv_us> <window> <valid_packets> per heartbeat received
///              between the phase's start and its stop.
/// --stop-windows K ends the phase at the K-th heartbeat after its start,
/// but not before --min-requests N requests were sent (a plan that runs out
/// first just stops sending); otherwise the phase ends with the plan.

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Planned {
  double due_us = 0.0;
  std::size_t conn = 0;
  std::string type;
  bool newest = false;
  std::string line;
};

struct Sent {
  std::size_t index = 0;
  std::string key;  ///< request line actually sent
  std::int64_t due_ns = 0;
};

struct Record {
  long long window = -1;
  double lag_us = 0.0;
  double latency_us = -1.0;
  int status = 2;
  bool sent = false;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::string in;
  std::deque<Sent> pending;
  bool want_write = false;
};

[[noreturn]] void die(const std::string& what) {
  std::cerr << "perfbench_load: " << what << (errno != 0 ? std::string(": ") + std::strerror(errno) : "")
            << '\n';
  std::exit(2);
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) die("socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) die("socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) die("connect " + path);
  return fd;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) die("fcntl");
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Integer value of `"field":<digits>` in a flat JSON line, or -1.
long long json_int(const std::string& line, const char* field) {
  const std::string needle = std::string("\"") + field + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return -1;
  return std::atoll(line.c_str() + at + needle.size());
}

std::string arg(int& i, int argc, char** argv) {
  if (i + 1 >= argc) die(std::string("missing value for ") + argv[i]);
  return argv[++i];
}

}  // namespace

int main(int argc, char** argv) {
  std::string unix_path, plan_path, out_path, responses_path, events_path;
  bool watch = false;
  long long stop_windows = 0;
  std::size_t min_requests = 0;
  double timeout_ms = 5000.0;
  double drain_ms = 5000.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--unix") unix_path = arg(i, argc, argv);
    else if (a == "--plan") plan_path = arg(i, argc, argv);
    else if (a == "--out") out_path = arg(i, argc, argv);
    else if (a == "--responses") responses_path = arg(i, argc, argv);
    else if (a == "--events") events_path = arg(i, argc, argv);
    else if (a == "--watch") watch = true;
    else if (a == "--stop-windows") stop_windows = std::atoll(arg(i, argc, argv).c_str());
    else if (a == "--min-requests") min_requests = std::strtoull(arg(i, argc, argv).c_str(), nullptr, 10);
    else if (a == "--timeout-ms") timeout_ms = std::atof(arg(i, argc, argv).c_str());
    else if (a == "--drain-ms") drain_ms = std::atof(arg(i, argc, argv).c_str());
    else die("unknown option " + a);
  }
  if (unix_path.empty() || plan_path.empty() || out_path.empty()) {
    die("--unix, --plan and --out are required");
  }

  std::vector<Planned> plan;
  std::size_t conn_count = 0;
  {
    std::ifstream in(plan_path);
    if (!in.is_open()) die("cannot read " + plan_path);
    std::string text;
    while (std::getline(in, text)) {
      if (text.empty()) continue;
      std::istringstream is(text);
      Planned p;
      std::string mode;
      is >> p.due_us >> p.conn >> p.type >> mode;
      is >> std::ws;
      std::getline(is, p.line);
      p.newest = mode == "N";
      conn_count = std::max(conn_count, p.conn + 1);
      plan.push_back(std::move(p));
    }
  }

  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) die("epoll_create1");
  std::vector<Conn> conns(conn_count);
  for (std::size_t c = 0; c < conn_count; ++c) {
    conns[c].fd = connect_unix(unix_path);
    set_nonblocking(conns[c].fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    if (::epoll_ctl(ep, EPOLL_CTL_ADD, conns[c].fd, &ev) != 0) die("epoll_ctl");
  }

  // The watcher subscribes before the phase starts; its acknowledgement
  // carries the windows already published.
  Conn watcher;
  long long newest_window = -1;
  if (watch) {
    watcher.fd = connect_unix(unix_path);
    const std::string req = "{\"query\":\"watch\"}\n";
    if (::write(watcher.fd, req.data(), req.size()) != static_cast<ssize_t>(req.size())) {
      die("watch request");
    }
    char ch = 0;
    std::string ack;
    while (::read(watcher.fd, &ch, 1) == 1 && ch != '\n') ack.push_back(ch);
    if (ack.find("\"subscribed\":true") == std::string::npos) die("watch not acknowledged: " + ack);
    newest_window = json_int(ack, "windows") - 1;
    set_nonblocking(watcher.fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn_count;
    if (::epoll_ctl(ep, EPOLL_CTL_ADD, watcher.fd, &ev) != 0) die("epoll_ctl");
  }

  // Output is buffered until the phase ends: a file write may block behind
  // the daemon's own archive I/O and make the generator late.
  std::string responses;
  std::string events;

  std::vector<Record> records(plan.size());
  std::unordered_map<std::string, std::uint64_t> first_answer;
  const std::int64_t timeout_ns = static_cast<std::int64_t>(timeout_ms * 1e6);
  const std::int64_t start_ns = now_ns() + 20'000'000;  // connections settle first
  std::size_t next = 0;
  std::size_t outstanding = 0;
  long long heartbeats = 0;
  bool stopping = false;
  std::int64_t stop_ns = 0;

  const auto flush = [&](std::size_t c) {
    Conn& conn = conns[c];
    while (!conn.out.empty()) {
      const ssize_t n = ::write(conn.fd, conn.out.data(), conn.out.size());
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        die("write");
      }
      conn.out.erase(0, static_cast<std::size_t>(n));
    }
    const bool want = !conn.out.empty();
    if (want != conn.want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.u64 = c;
      if (::epoll_ctl(ep, EPOLL_CTL_MOD, conn.fd, &ev) != 0) die("epoll_ctl");
      conn.want_write = want;
    }
  };

  const auto complete = [&](Conn& conn, const std::string& resp, std::int64_t t) {
    if (conn.pending.empty()) die("response without a request: " + resp.substr(0, 200));
    Sent s = std::move(conn.pending.front());
    conn.pending.pop_front();
    --outstanding;
    Record& r = records[s.index];
    const Planned& p = plan[s.index];
    r.latency_us = static_cast<double>(t - s.due_ns) / 1000.0;
    if (t - s.due_ns > timeout_ns) {
      r.status = 2;
      r.latency_us = -1.0;
      return;
    }
    if (resp.rfind("{\"id\":null,\"ok\":true,", 0) != 0) {
      r.status = 1;
      return;
    }
    r.status = 0;
    if (p.type == "stats" || p.type == "metrics") return;
    std::string key = s.key;
    if (p.type == "correlate") {
      // Default framing resolves against the live window count; the
      // resolved ranges are part of what makes the answer immutable.
      const std::size_t b = resp.find("\"baseline\":");
      const std::size_t e = resp.find(",\"ranked\"");
      if (b != std::string::npos && e != std::string::npos && e > b) {
        key += '\t' + resp.substr(b, e - b);
      }
    }
    const std::uint64_t h = fnv1a(resp);
    const auto [it, fresh] = first_answer.emplace(key, h);
    if (fresh) {
      responses += s.key + '\t' + resp + '\n';
    } else if (it->second != h) {
      r.status = 3;
    }
  };

  const auto on_readable = [&](Conn& conn, bool is_watcher) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
      if (n == 0) die(is_watcher ? "watch connection closed" : "connection closed by daemon");
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        die("read");
      }
      conn.in.append(buf, static_cast<std::size_t>(n));
    }
    const std::int64_t t = now_ns();
    std::size_t from = 0;
    for (std::size_t nl; (nl = conn.in.find('\n', from)) != std::string::npos; from = nl + 1) {
      const std::string line = conn.in.substr(from, nl - from);
      if (!is_watcher) {
        complete(conn, line, t);
      } else if (line.find("\"event\":\"window\"") != std::string::npos) {
        const long long w = json_int(line, "window");
        if (w > newest_window) newest_window = w;
        // Only heartbeats of the phase count and are logged: none before
        // its start, none while outstanding requests drain after its stop.
        if (t < start_ns || stopping) continue;
        ++heartbeats;
        events += std::to_string(static_cast<double>(t - start_ns) / 1000.0) + ' ' +
                  std::to_string(w) + ' ' + std::to_string(json_int(line, "valid_packets")) +
                  '\n';
      }
    }
    conn.in.erase(0, from);
  };

  epoll_event ready[64];
  for (;;) {
    const std::int64_t t = now_ns();
    while (!stopping && next < plan.size() &&
           start_ns + static_cast<std::int64_t>(plan[next].due_us * 1000.0) <= t) {
      const Planned& p = plan[next];
      Conn& conn = conns[p.conn];
      std::string line = p.line;
      if (p.newest) {
        records[next].window = std::max(0LL, newest_window);
        line = "{\"query\":\"degrees\",\"params\":{\"window\":" +
               std::to_string(records[next].window) + "}}";
      }
      const std::int64_t due = start_ns + static_cast<std::int64_t>(p.due_us * 1000.0);
      records[next].sent = true;
      records[next].lag_us = static_cast<double>(t - due) / 1000.0;
      conn.out += line;
      conn.out += '\n';
      conn.pending.push_back({next, std::move(line), due});
      ++outstanding;
      flush(p.conn);
      ++next;
    }
    if (!stopping && (stop_windows > 0
                          ? heartbeats >= stop_windows && (next >= min_requests || next == plan.size())
                          : next == plan.size())) {
      stopping = true;
      stop_ns = t;
    }
    if (stopping && (outstanding == 0 || t - stop_ns > static_cast<std::int64_t>(drain_ms * 1e6))) {
      break;
    }
    // Busy-poll: the generator keeps its core. A sleeping thread wakes late
    // on a virtual CPU that the host descheduled while idle, which would
    // make sends late and answers look slow.
    const int n = ::epoll_wait(ep, ready, 64, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      die("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      const std::size_t c = ready[i].data.u64;
      if (c == conn_count) {
        on_readable(watcher, true);
        continue;
      }
      if ((ready[i].events & EPOLLOUT) != 0) flush(c);
      if ((ready[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) on_readable(conns[c], false);
    }
  }

  if (!responses_path.empty()) std::ofstream(responses_path, std::ios::trunc) << responses;
  if (!events_path.empty()) std::ofstream(events_path, std::ios::trunc) << events;
  std::ofstream out(out_path, std::ios::trunc);
  if (!out.is_open()) die("cannot write " + out_path);
  char line[256];
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Record& r = records[i];
    if (!r.sent) continue;
    std::snprintf(line, sizeof(line), "%zu %s %zu %.1f %.1f %.1f %d %lld\n", i,
                  plan[i].type.c_str(), plan[i].conn, plan[i].due_us, r.lag_us, r.latency_us,
                  r.status, r.window);
    out << line;
  }
  out << "# phase_us " << static_cast<double>(stop_ns - start_ns) / 1000.0 << '\n';
  for (Conn& conn : conns) ::close(conn.fd);
  if (watcher.fd >= 0) ::close(watcher.fd);
  ::close(ep);
  return 0;
}
