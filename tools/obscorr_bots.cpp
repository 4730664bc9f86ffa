/// \file obscorr_bots.cpp
/// Load harness for the resident service: drive hundreds–thousands of
/// simulated clients against a running `obscorr serve` daemon (ideally
/// mid-ingest) and report per-query-type latency percentiles.
///
/// Each bot is one blocking-socket client thread that cycles through a
/// fixed query mix, timing every request from first byte written to the
/// full response line read. Bots are deliberately dumb — no pipelining,
/// no keep-alive tricks — so the numbers measure the daemon, not the
/// harness. Results go to stdout (or --out FILE) as a single
/// obscorr.bench_service.v1 JSON document, the format committed under
/// bench/baselines/BENCH_service.json.
///
/// usage: obscorr-bots (--unix PATH | --host H --port N)
///          [--clients N=100 (1-1024)] [--requests R=50] [--out FILE]
///          [--heavy] [--timeout SEC=30]
///
/// The default mix is cheap queries only (stats/degrees/lookup/metrics);
/// --heavy adds report and scaling, which render once and then serve
/// from the daemon's cache.
///
/// Exit status: 0 when every request sent was answered `ok`; 1 when one
/// was not, or when no client sent a request at all (no daemon listens);
/// 2 on a usage error, or when the JSON does not reach --out FILE (or
/// stdout) in full.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "svc/json.hpp"

namespace {

using obscorr::svc::JsonValue;

struct Options {
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = -1;
  std::size_t clients = 100;
  std::size_t requests = 50;
  std::string out_path;
  bool heavy = false;
  double timeout_sec = 30.0;
};

/// One timed request: query type + latency; failures carry a negative
/// latency so they never pollute the percentile pools.
struct Sample {
  const char* query;
  double latency_us;
  bool ok;
};

struct QueryTemplate {
  const char* name;
  const char* line;  // full NDJSON request line including '\n'
};

/// The cheap mix leans on the queries a dashboard would poll; lookup ips
/// rotate through a few addresses so the daemon's per-key cache is
/// exercised both warm and cold.
const QueryTemplate kCheapMix[] = {
    {"stats", "{\"id\":1,\"query\":\"stats\"}\n"},
    {"degrees", "{\"id\":2,\"query\":\"degrees\",\"params\":{\"snapshot\":0}}\n"},
    {"lookup", "{\"id\":3,\"query\":\"lookup\",\"params\":{\"ip\":\"10.0.0.1\"}}\n"},
    {"stats", "{\"id\":4,\"query\":\"stats\"}\n"},
    {"lookup", "{\"id\":5,\"query\":\"lookup\",\"params\":{\"ip\":\"203.0.113.7\"}}\n"},
    {"metrics", "{\"id\":6,\"query\":\"metrics\"}\n"},
};

const QueryTemplate kHeavyMix[] = {
    {"report", "{\"id\":7,\"query\":\"report\"}\n"},
    {"scaling", "{\"id\":8,\"query\":\"scaling\"}\n"},
};

int connect_target(const Options& opt) {
  if (!opt.unix_path.empty()) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt.unix_path.size() >= sizeof(addr.sun_path)) {
      ::close(fd);
      return -1;
    }
    std::memcpy(addr.sun_path, opt.unix_path.c_str(), opt.unix_path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opt.port));
  if (::inet_pton(AF_INET, opt.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Read from `fd` into `buf` until it holds a full '\n'-terminated line;
/// pops and returns that line (without the newline).
bool read_line(int fd, std::string& buf, std::string& line) {
  for (;;) {
    const std::size_t pos = buf.find('\n');
    if (pos != std::string::npos) {
      line.assign(buf, 0, pos);
      buf.erase(0, pos + 1);
      return true;
    }
    char chunk[16 * 1024];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

void run_bot(const Options& opt, std::size_t bot_index,
             const std::vector<QueryTemplate>& mix, std::vector<Sample>& samples,
             std::size_t& connect_failures) {
  const int fd = connect_target(opt);
  if (fd < 0) {
    ++connect_failures;
    return;
  }
  // Past 10^9 s (about 31 years) a timeout is as good as none, and the
  // cast to time_t stays in range.
  const double timeout = std::min(opt.timeout_sec, 1e9);
  const timeval tv{static_cast<time_t>(timeout),
                   static_cast<suseconds_t>((timeout - static_cast<time_t>(timeout)) * 1e6)};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  std::string buf, line;
  for (std::size_t r = 0; r < opt.requests; ++r) {
    // Offset the rotation per bot so the mix interleaves across clients
    // instead of hammering the same query in lockstep.
    const QueryTemplate& q = mix[(bot_index + r) % mix.size()];
    const auto start = std::chrono::steady_clock::now();
    bool ok = send_all(fd, q.line, std::strlen(q.line)) && read_line(fd, buf, line);
    if (ok) {
      try {
        const JsonValue resp = obscorr::svc::parse_json(line);
        const JsonValue* okv = resp.find("ok");
        ok = okv != nullptr && okv->is_bool() && okv->as_bool();
      } catch (const std::exception&) {
        ok = false;
      }
    }
    const auto end = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(end - start).count();
    samples.push_back({q.name, us, ok});
    if (!ok && buf.empty() && line.empty()) break;  // connection died; stop this bot
  }
  ::close(fd);
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

int run(const std::vector<std::string>& args) {
  const obscorr::CliArgs cli = obscorr::CliArgs::parse(args, {"heavy"});
  Options opt;
  opt.unix_path = cli.get_or("unix", "");
  opt.host = cli.get_or("host", "127.0.0.1");
  // Every integer flag is range-checked as read, before any narrowing
  // cast: `--port 4294974366` must not wrap to 7070, nor `--clients -1`
  // to 2^64 - 1 threads.
  if (cli.has("port")) {
    const std::int64_t port = cli.get_int("port", -1);
    OBSCORR_REQUIRE(port >= 0 && port <= 65535, "obscorr-bots: --port must be in 0-65535");
    opt.port = static_cast<int>(port);
  }
  OBSCORR_REQUIRE(!opt.unix_path.empty() || opt.port >= 0,
                  "obscorr-bots: --unix PATH or --port N is required");
  const std::int64_t clients = cli.get_int("clients", 100);
  OBSCORR_REQUIRE(clients >= 1, "obscorr-bots: --clients must be at least 1");
  // One client is one thread.
  OBSCORR_REQUIRE(clients <= static_cast<std::int64_t>(obscorr::kMaxThreads),
                  "obscorr-bots: --clients must be at most 1024");
  opt.clients = static_cast<std::size_t>(clients);
  const std::int64_t requests = cli.get_int("requests", 50);
  OBSCORR_REQUIRE(requests >= 1, "obscorr-bots: --requests must be at least 1");
  opt.requests = static_cast<std::size_t>(requests);
  opt.out_path = cli.get_or("out", "");
  opt.heavy = cli.has("heavy");
  opt.timeout_sec = cli.get_double("timeout", 30.0);
  OBSCORR_REQUIRE(std::isfinite(opt.timeout_sec) && opt.timeout_sec > 0.0,
                  "obscorr-bots: --timeout must be a positive number of seconds");
  const auto stray = cli.unused();
  OBSCORR_REQUIRE(stray.empty(),
                  "obscorr-bots: unknown option --" + (stray.empty() ? "" : stray.front()));

  std::vector<QueryTemplate> mix(std::begin(kCheapMix), std::end(kCheapMix));
  if (opt.heavy) mix.insert(mix.end(), std::begin(kHeavyMix), std::end(kHeavyMix));

  std::vector<std::vector<Sample>> per_bot(opt.clients);
  std::vector<std::size_t> connect_failures(opt.clients, 0);
  const auto wall_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> bots;
    bots.reserve(opt.clients);
    for (std::size_t b = 0; b < opt.clients; ++b) {
      bots.emplace_back(
          [&, b] { run_bot(opt, b, mix, per_bot[b], connect_failures[b]); });
    }
    for (auto& t : bots) t.join();
  }
  const double wall_sec = std::chrono::duration_cast<std::chrono::duration<double>>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();

  // Aggregate per query type.
  std::map<std::string, std::vector<double>> ok_latencies;
  std::size_t total = 0, errors = 0, refused = 0;
  for (const auto& f : connect_failures) refused += f;
  for (const auto& bot : per_bot) {
    for (const auto& s : bot) {
      ++total;
      if (s.ok) {
        ok_latencies[s.query].push_back(s.latency_us);
      } else {
        ++errors;
      }
    }
  }

  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue::string("obscorr.bench_service.v1"));
  doc.set("clients", JsonValue::number(static_cast<std::uint64_t>(opt.clients)));
  doc.set("requests_per_client", JsonValue::number(static_cast<std::uint64_t>(opt.requests)));
  doc.set("requests", JsonValue::number(static_cast<std::uint64_t>(total)));
  doc.set("errors", JsonValue::number(static_cast<std::uint64_t>(errors)));
  doc.set("connect_failures", JsonValue::number(static_cast<std::uint64_t>(refused)));
  doc.set("wall_sec", JsonValue::number(wall_sec));
  doc.set("requests_per_sec",
          JsonValue::number(wall_sec > 0.0 ? static_cast<double>(total) / wall_sec : 0.0));
  JsonValue queries = JsonValue::object();
  for (auto& [name, lat] : ok_latencies) {
    std::sort(lat.begin(), lat.end());
    double sum = 0.0;
    for (const double v : lat) sum += v;
    JsonValue q = JsonValue::object();
    q.set("count", JsonValue::number(static_cast<std::uint64_t>(lat.size())));
    q.set("mean_us", JsonValue::number(sum / static_cast<double>(lat.size())));
    q.set("p50_us", JsonValue::number(percentile(lat, 0.50)));
    q.set("p99_us", JsonValue::number(percentile(lat, 0.99)));
    q.set("max_us", JsonValue::number(lat.back()));
    queries.set(name, std::move(q));
  }
  doc.set("queries", std::move(queries));

  const std::string text = obscorr::svc::dump_json(doc);
  if (!opt.out_path.empty()) {
    // A file that cannot be opened, or a byte that did not reach it (a
    // full disk), is an error: no `wrote` line follows a failed write.
    std::ofstream os(opt.out_path, std::ios::trunc);
    OBSCORR_REQUIRE(os.is_open(), "obscorr-bots: cannot write " + opt.out_path);
    os << text << '\n';
    os.close();
    OBSCORR_REQUIRE(!os.fail(), "obscorr-bots: cannot write " + opt.out_path);
    std::cerr << "wrote " << opt.out_path << '\n';
  } else {
    std::cout << text << '\n';
    OBSCORR_REQUIRE(std::cout.flush(), "obscorr-bots: cannot write standard output");
  }
  // The harness succeeds when the daemon answered: shed connections are
  // expected under deliberate overload, hard errors are not, and a run
  // in which no client got to send anything measured nothing.
  if (total == 0) {
    std::cerr << "obscorr-bots: no client sent a request (connect failures: " << refused
              << ")\n";
    return 1;
  }
  return errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
