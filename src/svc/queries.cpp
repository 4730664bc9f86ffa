#include "svc/queries.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <sstream>
#include <stdexcept>

#include "common/ipv4.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "svc/render.hpp"

namespace obscorr::svc {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

JsonValue text_result(std::string text) {
  JsonValue result = JsonValue::object();
  result.set("text", JsonValue::string(std::move(text)));
  return result;
}

/// Every query type the daemon answers, with the parameters it reads.
const std::map<std::string_view, std::vector<std::string_view>> kQueries = {
    {"lookup", {"ip"}},
    {"report", {}},
    {"degrees", {"snapshot", "window"}},
    {"scaling", {}},
    {"correlate", {"domain", "method", "baseline", "highlight", "top"}},
    {"stats", {}},
    {"metrics", {"format"}},
    {"watch", {}},
};

/// A parameter name means the same in every query: these three are
/// non-negative integers, every other one is a string.
bool is_index(std::string_view name) {
  return name == "snapshot" || name == "window" || name == "top";
}

bool parse_index(std::string_view text, std::uint64_t& value) {
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  return ec == std::errc{} && end == text.data() + text.size();
}

const std::vector<std::string_view>& declared(std::string_view query) {
  const auto it = kQueries.find(query);
  if (it == kQueries.end()) {
    throw std::invalid_argument("unknown query type \"" + std::string(query) + "\"");
  }
  return it->second;
}

/// Parse the "first:last" window range `params.<what>`, when present.
std::optional<analysis::WindowRange> parse_range(const JsonValue& params, const std::string& what) {
  const JsonValue* value = params.find(what);
  if (value == nullptr) return std::nullopt;
  const std::string& text = value->as_string();
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size()) {
    throw std::invalid_argument("correlate: " + what + " wants FIRST:LAST");
  }
  const std::string_view view(text);
  std::uint64_t first = 0, last = 0;
  if (!parse_index(view.substr(0, colon), first) || !parse_index(view.substr(colon + 1), last)) {
    throw std::invalid_argument("correlate: " + what + " wants FIRST:LAST integers");
  }
  if (first > last) throw std::invalid_argument("correlate: " + what + " range must be ordered");
  return analysis::WindowRange{first, last};
}

}  // namespace

std::string unknown_parameter(std::string_view scope, std::string_view name) {
  return std::string(scope) + ": unknown parameter \"" + std::string(name) + "\"";
}

void check_params(std::string_view query, const JsonValue& params) {
  const std::vector<std::string_view>& names = declared(query);
  for (const auto& [name, value] : params.members()) {
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      throw std::invalid_argument(unknown_parameter(query, name));
    }
    std::uint64_t index = 0;
    const bool index_param = is_index(name);
    const bool typed = index_param ? value.is_number() && parse_index(value.raw_number(), index)
                                   : value.is_string();
    if (!typed) {
      throw std::invalid_argument(std::string(query) + ": " + name +
                                  (index_param ? " must be a non-negative integer"
                                               : " must be a string"));
    }
  }
}

JsonValue params_from_flags(std::string_view query, const CliArgs& flags) {
  JsonValue params = JsonValue::object();
  for (const std::string_view name : declared(query)) {
    const std::optional<std::string> text = flags.get(std::string(name));
    if (!text.has_value()) continue;
    // Index text that does not parse stays a string, which check_params
    // then rejects exactly as it rejects that value on the wire.
    std::uint64_t index = 0;
    params.set(std::string(name), is_index(name) && parse_index(*text, index)
                                      ? JsonValue::number(index)
                                      : JsonValue::string(*text));
  }
  check_params(query, params);
  return params;
}

DegreesQuery parse_degrees(const JsonValue& params) {
  const JsonValue* snapshot = params.find("snapshot");
  const JsonValue* window = params.find("window");
  if (snapshot != nullptr && window != nullptr) {
    throw std::invalid_argument("degrees: snapshot and window are mutually exclusive");
  }
  if (window != nullptr) return {true, static_cast<std::size_t>(window->as_uint())};
  return {false, snapshot != nullptr ? static_cast<std::size_t>(snapshot->as_uint()) : 0};
}

gbl::SparseVec DegreesQuery::sources(const archive::StudyReader& reader) const {
  const std::size_t count = window ? reader.window_count() : reader.snapshot_count();
  if (index >= count) {
    const std::string what = window ? "window" : "snapshot";
    throw std::invalid_argument("degrees: " + what + " " + std::to_string(index) +
                                " is out of range (" + what + "s: " + std::to_string(count) + ")");
  }
  return window ? reader.window_source_packets(index) : reader.source_packets(index);
}

std::string parse_lookup(const JsonValue& params) {
  const JsonValue* ip = params.find("ip");
  if (ip == nullptr) throw std::invalid_argument("lookup: ip A.B.C.D is required");
  if (!Ipv4::parse(ip->as_string()).has_value()) {
    throw std::invalid_argument("lookup: malformed address " + ip->as_string());
  }
  return ip->as_string();
}

CorrelateQuery parse_correlate(const JsonValue& params) {
  CorrelateQuery query;
  if (const JsonValue* domain = params.find("domain")) {
    const std::string& name = domain->as_string();
    if (name != "windows" && name != "snapshots") {
      throw std::invalid_argument("correlate: domain must be windows or snapshots");
    }
    query.domain = name == "windows" ? analysis::Domain::kWindows : analysis::Domain::kSnapshots;
  }
  if (const auto* m = params.find("method")) query.method = analysis::parse_method(m->as_string());
  query.baseline = parse_range(params, "baseline");
  query.highlight = parse_range(params, "highlight");
  if (const auto* top = params.find("top")) query.top = static_cast<std::size_t>(top->as_uint());
  return query;
}

CorrelateFrame resolve_correlate(const CorrelateQuery& query, const archive::StudyReader& reader) {
  CorrelateFrame frame;
  // Live windows when any exist (the population a resident daemon is
  // watching), else the archived snapshots.
  frame.domain = query.domain.value_or(reader.window_count() > 0 ? analysis::Domain::kWindows
                                                                 : analysis::Domain::kSnapshots);
  const bool windows = frame.domain == analysis::Domain::kWindows;
  frame.domain_name = windows ? "windows" : "snapshots";
  frame.count = windows ? reader.window_count() : reader.snapshot_count();
  if (frame.count < 2) {
    throw std::invalid_argument("correlate: archive has fewer than 2 " + frame.domain_name);
  }
  // netdata framing when unspecified: highlight = the trailing fifth,
  // baseline = the preceding 4x stretch.
  frame.highlight =
      query.highlight.has_value() ? *query.highlight : analysis::default_highlight(frame.count);
  frame.baseline =
      query.baseline.has_value() ? *query.baseline : analysis::default_baseline(frame.highlight);
  return frame;
}

QueryEngine::QueryEngine(const std::string& dir, ThreadPool& pool)
    : reader_(dir), pool_(pool) {
  const obs::Span span("svc.sample_windows",
                       [&] { return std::to_string(reader_.window_count()); });
  windows_ = analysis::sample_all(reader_, analysis::Domain::kWindows, pool_);
}

std::string QueryEngine::execute(const Request& req) {
  const obs::Span span("svc.query", [&] { return req.query; });
  if (obs::counters_enabled()) {
    static obs::Counter& requests = obs::counter("svc.requests");
    requests.add(1);
  }
  const std::uint64_t start_ns = obs::now_ns();
  try {
    std::string resp;
    {
      const std::shared_lock lock(data_mu_);
      resp = make_ok(req.id, dispatch(req));
    }
    // Latency is recorded per successfully dispatched query type, so the
    // key set is bounded by the dispatch table (a hostile client cannot
    // grow the map with invented query names).
    {
      const double us = static_cast<double>(obs::now_ns() - start_ns) / 1000.0;
      const std::lock_guard lk(latency_mu_);
      latency_us_[req.query].add(std::max(1.0, us));
    }
    return resp;
  } catch (const std::exception& e) {
    if (obs::counters_enabled()) {
      static obs::Counter& errors = obs::counter("svc.errors");
      errors.add(1);
    }
    return make_error(req.id, "bad_request", e.what());
  }
}

std::vector<QueryLatency> QueryEngine::latency_snapshot() {
  const std::lock_guard lk(latency_mu_);
  std::vector<QueryLatency> out;
  out.reserve(latency_us_.size());
  for (const auto& [query, hist] : latency_us_) {
    out.push_back({query, hist.total(), hist.quantile(0.5), hist.quantile(0.99)});
  }
  return out;
}

std::size_t QueryEngine::refresh(std::size_t window, const analysis::WindowSample* published) {
  const std::unique_lock lock(data_mu_);
  const std::size_t added = reader_.refresh();
  for (std::size_t w = windows_.size(); w < reader_.window_count(); ++w) {
    windows_.push_back(published != nullptr && w == window
                           ? *published
                           : analysis::sample_window(reader_, w));
  }
  if (added > 0 && obs::counters_enabled()) {
    static obs::Counter& refreshes = obs::counter("svc.refreshes");
    refreshes.add(1);
  }
  return added;
}

std::vector<analysis::AnomalyEvent> QueryEngine::prime(analysis::Monitor& monitor) {
  const std::shared_lock lock(data_mu_);
  return monitor.prime(reader_, analysis::Domain::kWindows, windows_);
}

std::size_t QueryEngine::window_count() {
  const std::shared_lock lock(data_mu_);
  return reader_.window_count();
}

JsonValue QueryEngine::dispatch(const Request& req) {
  check_params(req.query, req.params);
  if (req.query == "lookup") return q_lookup(req.params);
  if (req.query == "report") return q_report();
  if (req.query == "degrees") return q_degrees(req.params);
  if (req.query == "scaling") return q_scaling();
  if (req.query == "correlate") return q_correlate(req.params);
  if (req.query == "stats") return q_stats();
  if (req.query == "metrics") return q_metrics(req.params);
  throw std::invalid_argument("unknown query type \"" + req.query + "\"");
}

std::string QueryEngine::cached(const std::string& key,
                                const std::function<void(std::ostream&)>& print) {
  const auto render = [&] {
    std::ostringstream out;
    print(out);
    return std::move(out).str();
  };
  std::shared_future<std::string> future;
  {
    const std::lock_guard lk(cache_mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      future = it->second;
    } else if (cache_.size() < kMaxCacheEntries) {
      // Deferred: the first get() below runs the render on that caller's
      // thread; every racer blocks on the same shared state, so the
      // render runs exactly once per key.
      future = std::async(std::launch::deferred, render).share();
      cache_.emplace(key, future);
    }
  }
  if (!future.valid()) return render();  // cache full: serve uncached rather than evict
  try {
    return future.get();
  } catch (const std::exception&) {
    // A failed render leaves no entry: the key may succeed once more
    // windows exist. (A racer may erase a newer entry; it re-renders.)
    const std::lock_guard lk(cache_mu_);
    cache_.erase(key);
    throw;
  }
}

const honeyfarm::Database& QueryEngine::database() {
  // A mutex rather than std::call_once: a build that throws (a corrupt
  // month) must leave the next lookup free to try again, which
  // call_once under ThreadSanitizer does not.
  const std::lock_guard lk(db_mu_);
  if (!db_) {
    db_ = std::make_unique<honeyfarm::Database>(
        reader_.month_count(), [this](std::size_t m) { return reader_.month_view(m); }, pool_);
  }
  return *db_;
}

JsonValue QueryEngine::q_lookup(const JsonValue& params) {
  const std::string ip = parse_lookup(params);
  return text_result(
      cached("lookup/" + ip, [&](std::ostream& out) { render_lookup(database(), ip, out); }));
}

JsonValue QueryEngine::q_report() {
  return text_result(cached("report", [&](std::ostream& out) {
    render_study(reader_.analysis_study(pool_), out);
  }));
}

JsonValue QueryEngine::q_degrees(const JsonValue& params) {
  const DegreesQuery query = parse_degrees(params);
  const gbl::SparseVec sources = query.sources(reader_);
  const std::string key = std::string("degrees/") + (query.window ? "w/" : "s/") +
                          std::to_string(query.index);
  return text_result(cached(key, [&](std::ostream& out) { render_degrees(sources, out); }));
}

JsonValue QueryEngine::q_correlate(const JsonValue& params) {
  const CorrelateQuery query = parse_correlate(params);
  const CorrelateFrame f = resolve_correlate(query, reader_);
  // Ranges are immutable data once published, so a fully range-qualified
  // key stays valid forever — default ranges are resolved before keying.
  const std::string key = "correlate/" + f.domain_name + "/" + std::to_string(f.baseline.first) +
                          ":" + std::to_string(f.baseline.last) + "/" +
                          std::to_string(f.highlight.first) + ":" +
                          std::to_string(f.highlight.last) + "/" +
                          analysis::method_name(query.method) + "/" + std::to_string(query.top);
  return parse_json(cached(key, [&](std::ostream& os) {
    // Windows rank the resident samples (as many as the frame resolved:
    // both grow only under the exclusive lock); the immutable snapshots
    // are reduced from the archive.
    const std::vector<analysis::MetricScore> ranked = analysis::rank_series(
        f.domain == analysis::Domain::kWindows ? analysis::SeriesStore(windows_)
                                               : analysis::store_from_reader(reader_, f.domain),
        f.baseline, f.highlight, query.method);
    JsonValue result = correlate_json(ranked, query.method, f.baseline, f.highlight);
    std::ostringstream out;
    render_correlate(ranked, query.method, f.baseline, f.highlight, query.top, out);
    result.set("text", JsonValue::string(std::move(out).str()));
    os << dump_json(result);
  }));
}

JsonValue QueryEngine::q_scaling() {
  return text_result(cached("scaling", [&](std::ostream& out) {
    render_scaling(scaling_ladder(reader_.scenario(), pool_), out);
  }));
}

JsonValue QueryEngine::q_stats() {
  JsonValue result = JsonValue::object();
  result.set("archive", JsonValue::string(reader_.dir()));
  result.set("scenario_hash", JsonValue::string(hex64(reader_.scenario_hash())));
  result.set("snapshots", JsonValue::number(static_cast<std::uint64_t>(reader_.snapshot_count())));
  result.set("months", JsonValue::number(static_cast<std::uint64_t>(reader_.month_count())));
  result.set("windows", JsonValue::number(static_cast<std::uint64_t>(reader_.window_count())));
  result.set("log2_nv",
             JsonValue::number(static_cast<std::uint64_t>(reader_.scenario().population.log2_nv)));
  result.set("mapped", JsonValue::boolean(reader_.mapped()));
  JsonValue latency = JsonValue::object();
  for (const QueryLatency& ql : latency_snapshot()) {
    JsonValue digest = JsonValue::object();
    digest.set("count", JsonValue::number(ql.count));
    digest.set("p50_us", JsonValue::number(ql.p50_us));
    digest.set("p99_us", JsonValue::number(ql.p99_us));
    latency.set(ql.query, std::move(digest));
  }
  result.set("latency", std::move(latency));
  return result;
}

JsonValue QueryEngine::q_metrics(const JsonValue& params) {
  obs::gauge("mem.peak_rss").record_max(static_cast<std::uint64_t>(obs::peak_rss_bytes()));
  const JsonValue* format = params.find("format");
  const std::string name = format != nullptr ? format->as_string() : "json";
  if (name != "json" && name != "prom") {
    throw std::invalid_argument("metrics: format must be json|prom");
  }
  std::ostringstream os;
  if (name == "prom") {
    // Prometheus exposition is a text artifact; ship it as one field so
    // the response stays a single NDJSON line.
    obs::write_metrics_prometheus(os);
    JsonValue result = JsonValue::object();
    result.set("format", JsonValue::string("prom"));
    result.set("text", JsonValue::string(std::move(os).str()));
    return result;
  }
  // Snapshot the live registry as the canonical obscorr.metrics.v1
  // document, then re-serialize it compact: the writer's output is
  // multiline, and protocol responses must be one NDJSON line. Numbers
  // survive the round-trip verbatim (raw-text number storage).
  obs::write_metrics_json(os);
  return parse_json(std::move(os).str());
}

}  // namespace obscorr::svc
