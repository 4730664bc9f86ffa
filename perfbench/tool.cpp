/// \file tool.cpp
/// In-process helpers for the end-to-end benchmark (perfbench/run.py).
///
///   perfbench_tool campaign --log2-nv K --seed S --threads T
///                           --raw DIR --compacted DIR --out FILE --trace-out FILE
///       Repeats the three campaign CLI steps (archive, archive compact --all,
///       report --from) through the public calls each step makes, with a
///       benchmark span around every call and the program's telemetry armed
///       at full level. Writes the spans, the program's span aggregates,
///       counters and gauges as JSON (--out) and one Chrome trace-event
///       file holding both span sets (--trace-out, Perfetto-loadable).
///
///   perfbench_tool render --from DIR --requests FILE
///       Renders each NDJSON request line of FILE in-process through
///       svc/render.hpp over the archive and prints one JSON string per
///       line: the reference `result.text` a daemon response must carry.
///
///   perfbench_tool sources --from DIR
///       Prints the distinct honeyfarm source addresses of the archive, one
///       per line, sorted: the key space of observed-source lookups.
///
///   perfbench_tool compacted --from DIR
///       Prints "<windows> <bytes>": how many live windows have a compressed
///       source reduction, and those reductions' decoded bytes (what the
///       page cache holds when every one of them is resident).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/correlate.hpp"
#include "analysis/window_series.hpp"
#include "archive/compact.hpp"
#include "archive/reader.hpp"
#include "archive/study_archive.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/correlation.hpp"
#include "core/degree_analysis.hpp"
#include "core/scaling_analysis.hpp"
#include "core/study.hpp"
#include "honeyfarm/database.hpp"
#include "netgen/population.hpp"
#include "netgen/scenario.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "svc/json.hpp"
#include "svc/protocol.hpp"
#include "svc/render.hpp"

namespace {

using namespace obscorr;
using svc::JsonValue;

/// One benchmark span: a call into a layer's public function, timed from
/// the benchmark's own code on the telemetry clock.
struct BenchSpan {
  std::string name;
  std::string detail;
  int parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

class SpanRecorder {
 public:
  /// Time `fn` as a child of the innermost open span.
  template <class Fn>
  decltype(auto) span(std::string name, std::string detail, Fn&& fn) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), std::move(detail), open_.empty() ? -1 : open_.back(),
                      obs::now_ns(), 0});
    open_.push_back(index);
    struct Close {
      SpanRecorder& r;
      int i;
      ~Close() {
        r.spans_[static_cast<std::size_t>(i)].dur_ns =
            obs::now_ns() - r.spans_[static_cast<std::size_t>(i)].start_ns;
        r.open_.pop_back();
      }
    } close{*this, index};
    return fn();
  }

  const std::vector<BenchSpan>& spans() const { return spans_; }

 private:
  std::vector<BenchSpan> spans_;
  std::vector<int> open_;
};

JsonValue u64(std::uint64_t v) { return JsonValue::number(v); }

int cmd_campaign(const std::vector<std::string>& args) {
  const CliArgs cli = CliArgs::parse(args, {});
  const int log2_nv = static_cast<int>(cli.get_int("log2-nv", 20));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const auto threads = static_cast<std::size_t>(cli.get_int("threads", 1));
  const auto raw = cli.get("raw");
  const auto compacted = cli.get("compacted");
  const auto out_path = cli.get("out");
  const auto trace_path = cli.get("trace-out");
  OBSCORR_REQUIRE(raw && compacted && out_path && trace_path,
                  "campaign: --raw, --compacted, --out and --trace-out are required");

  obs::reset();
  obs::set_level(obs::Level::kFull);
  ThreadPool pool(threads);
  SpanRecorder rec;
  const netgen::Scenario scenario = netgen::Scenario::paper(log2_nv, seed);

  // Step 1: `obscorr archive` (archive_study without resume bookkeeping).
  rec.span("step.archive", "", [&] {
    core::StudyData study;
    study.scenario = scenario;
    study.population = rec.span("netgen.population", "", [&] {
      return std::make_shared<netgen::Population>(scenario.population);
    });
    for (std::size_t k = 0; k < scenario.snapshots.size(); ++k) {
      study.snapshots.push_back(rec.span("core.snapshot", std::to_string(k), [&] {
        return core::run_snapshot(scenario, *study.population, k, pool);
      }));
    }
    for (std::size_t m = 0; m < scenario.months.size(); ++m) {
      study.months.push_back(rec.span("honeyfarm.month", std::to_string(m), [&] {
        return core::run_month(scenario, *study.population, m);
      }));
    }
    rec.span("archive.write", "", [&] { archive::write_study(study, *raw); });
  });

  // Step 2 works on a copy so the raw archive stays comparable with the
  // one `obscorr archive` wrote; the copy is outside every span.
  std::filesystem::remove_all(*compacted);
  std::filesystem::copy(*raw, *compacted);
  rec.span("step.compact", "", [&] {
    archive::CompactOptions opts;
    opts.compress_all = true;
    rec.span("archive.compact", "", [&] { (void)archive::compact_archive(*compacted, opts); });
  });

  // Step 3: the analyses `obscorr report --from` runs (CSV formatting aside).
  rec.span("step.report", "", [&] {
    const auto reader = rec.span("archive.open", "", [&] {
      return std::make_unique<archive::StudyReader>(*compacted);
    });
    const core::StudyData study =
        rec.span("archive.load", "", [&] { return reader->analysis_study(); });
    (void)rec.span("core.degrees", "", [&] { return core::analyze_all_degrees(study); });
    (void)rec.span("core.peak_corr", "", [&] { return core::peak_correlation_all(study); });
    (void)rec.span("core.fit_grid", "", [&] { return core::fit_grid(study, 20); });
  });
  obs::set_level(obs::Level::kOff);

  JsonValue doc = JsonValue::object();
  doc.set("log2_nv", u64(static_cast<std::uint64_t>(log2_nv)));
  doc.set("threads", u64(threads));
  doc.set("valid_packets", u64(scenario.snapshots.size() * scenario.nv()));
  JsonValue spans = JsonValue::array();
  for (const BenchSpan& s : rec.spans()) {
    JsonValue j = JsonValue::object();
    j.set("name", JsonValue::string(s.name));
    j.set("detail", JsonValue::string(s.detail));
    j.set("parent", JsonValue::number(static_cast<std::int64_t>(s.parent)));
    j.set("start_ns", u64(s.start_ns));
    j.set("dur_ns", u64(s.dur_ns));
    spans.push_back(std::move(j));
  }
  doc.set("spans", std::move(spans));
  JsonValue program = JsonValue::object();
  for (const obs::SpanAggregate& a : obs::aggregate_spans()) {
    JsonValue j = JsonValue::object();
    j.set("count", u64(a.count));
    j.set("total_ns", u64(a.total_ns));
    program.set(a.name, std::move(j));
  }
  doc.set("program_spans", std::move(program));
  JsonValue counters = JsonValue::object();
  for (const obs::MetricSample& c : obs::counters_snapshot()) counters.set(c.name, u64(c.value));
  doc.set("counters", std::move(counters));
  JsonValue gauges = JsonValue::object();
  for (const obs::MetricSample& g : obs::gauges_snapshot()) gauges.set(g.name, u64(g.value));
  doc.set("gauges", std::move(gauges));
  doc.set("dropped_span_events", u64(obs::dropped_span_events()));
  {
    std::ofstream os(*out_path, std::ios::trunc);
    OBSCORR_REQUIRE(os.is_open(), "campaign: cannot write " + *out_path);
    os << svc::dump_json(doc) << '\n';
  }

  // One trace: benchmark spans on their own track above the program's.
  std::ofstream os(*trace_path, std::ios::trunc);
  OBSCORR_REQUIRE(os.is_open(), "campaign: cannot write " + *trace_path);
  JsonValue events = JsonValue::array();
  const auto event = [&](const std::string& name, const std::string& cat, const std::string& detail,
                         std::uint64_t tid, std::uint64_t start_ns, std::uint64_t dur_ns) {
    JsonValue e = JsonValue::object();
    e.set("name", JsonValue::string(name));
    e.set("cat", JsonValue::string(cat));
    e.set("ph", JsonValue::string("X"));
    e.set("pid", u64(1));
    e.set("tid", u64(tid));
    e.set("ts", JsonValue::number(static_cast<double>(start_ns) / 1000.0));
    e.set("dur", JsonValue::number(static_cast<double>(dur_ns) / 1000.0));
    JsonValue a = JsonValue::object();
    a.set("detail", JsonValue::string(detail));
    e.set("args", std::move(a));
    events.push_back(std::move(e));
  };
  for (const BenchSpan& s : rec.spans()) event(s.name, "perfbench", s.detail, 0, s.start_ns, s.dur_ns);
  for (const obs::SpanEvent& s : obs::span_events()) {
    event(s.name, "obscorr", s.detail, 1 + static_cast<std::uint64_t>(s.tid), s.start_ns, s.dur_ns);
  }
  JsonValue trace = JsonValue::object();
  trace.set("traceEvents", std::move(events));
  trace.set("displayTimeUnit", JsonValue::string("ms"));
  os << svc::dump_json(trace) << '\n';
  return 0;
}

/// The reference answer for one request, rendered through svc/render.hpp.
class Renderer {
 public:
  explicit Renderer(const std::string& dir) : reader_(dir), pool_(1) {}

  std::string text(const svc::Request& req) {
    std::ostringstream out;
    const JsonValue& p = req.params;
    if (req.query == "lookup") {
      if (!db_) db_ = std::make_unique<honeyfarm::Database>(reader_.months());
      svc::render_lookup(*db_, p.find("ip")->as_string(), out);
    } else if (req.query == "degrees") {
      const JsonValue* window = p.find("window");
      const JsonValue* snapshot = p.find("snapshot");
      svc::render_degrees(
          window != nullptr
              ? reader_.window_source_packets(static_cast<std::size_t>(window->as_uint()))
              : reader_.source_packets(
                    static_cast<std::size_t>(snapshot != nullptr ? snapshot->as_uint() : 0)),
          out);
    } else if (req.query == "report") {
      svc::render_study(reader_.analysis_study(), out);
    } else if (req.query == "scaling") {
      const netgen::Scenario& scenario = reader_.scenario();
      svc::render_scaling(core::scaling_analysis(scenario, 0, 10,
                                                 static_cast<int>(scenario.population.log2_nv),
                                                 pool_),
                          out);
    } else if (req.query == "correlate") {
      // Explicit ranges only: the benchmark resolves default framing from
      // the daemon's own answer before asking for the reference.
      const analysis::Domain domain = p.find("domain")->as_string() == "windows"
                                          ? analysis::Domain::kWindows
                                          : analysis::Domain::kSnapshots;
      const analysis::Method method = analysis::parse_method(p.find("method")->as_string());
      const analysis::WindowRange baseline = range(*p.find("baseline"));
      const analysis::WindowRange highlight = range(*p.find("highlight"));
      const auto ranked =
          analysis::rank_series(analysis::store_from_reader(reader_, domain), baseline,
                                highlight, method);
      svc::render_correlate(ranked, method, baseline, highlight,
                            static_cast<std::size_t>(p.find("top")->as_uint()), out);
    } else {
      OBSCORR_REQUIRE(false, "render: no reference for query " + req.query);
    }
    return std::move(out).str();
  }

 private:
  static analysis::WindowRange range(const JsonValue& v) {
    const std::string& s = v.as_string();
    const std::size_t colon = s.find(':');
    return {std::stoull(s.substr(0, colon)), std::stoull(s.substr(colon + 1))};
  }

  archive::StudyReader reader_;
  ThreadPool pool_;
  std::unique_ptr<honeyfarm::Database> db_;
};

int cmd_render(const std::vector<std::string>& args) {
  const CliArgs cli = CliArgs::parse(args, {});
  const auto dir = cli.get("from");
  const auto requests = cli.get("requests");
  OBSCORR_REQUIRE(dir && requests, "render: --from DIR and --requests FILE are required");
  std::ifstream in(*requests);
  OBSCORR_REQUIRE(in.is_open(), "render: cannot read " + *requests);
  Renderer renderer(*dir);
  std::string line;
  while (std::getline(in, line)) {
    std::cout << svc::dump_json(JsonValue::string(renderer.text(svc::parse_request(line))))
              << '\n';
  }
  return 0;
}

int cmd_sources(const std::vector<std::string>& args) {
  const CliArgs cli = CliArgs::parse(args, {});
  const auto dir = cli.get("from");
  OBSCORR_REQUIRE(dir.has_value(), "sources: --from DIR is required");
  std::vector<std::string> ips;
  for (const honeyfarm::MonthlyObservation& m : archive::StudyReader(*dir).months()) {
    ips.insert(ips.end(), m.sources.row_keys().begin(), m.sources.row_keys().end());
  }
  std::sort(ips.begin(), ips.end());
  ips.erase(std::unique(ips.begin(), ips.end()), ips.end());
  for (const std::string& ip : ips) std::cout << ip << '\n';
  return 0;
}

int cmd_compacted(const std::vector<std::string>& args) {
  const CliArgs cli = CliArgs::parse(args, {});
  const auto dir = cli.get("from");
  OBSCORR_REQUIRE(dir.has_value(), "compacted: --from DIR is required");
  const archive::ArchiveReader reader(*dir);
  std::uint64_t windows = 0;
  std::uint64_t bytes = 0;
  for (const archive::EntryInfo& e : reader.entries()) {
    const bool window_sources = e.name.rfind("window/", 0) == 0 &&
                                e.name.size() > 8 &&
                                e.name.compare(e.name.size() - 8, 8, "/sources") == 0;
    if (window_sources && (e.flags & archive::kEntryFlagCompressed) != 0) {
      ++windows;
      bytes += e.raw_size;
    }
  }
  std::cout << windows << ' ' << bytes << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::cerr << "usage: perfbench_tool campaign|render|sources|compacted [options]\n";
    return 2;
  }
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (args.front() == "campaign") return cmd_campaign(rest);
    if (args.front() == "render") return cmd_render(rest);
    if (args.front() == "sources") return cmd_sources(rest);
    if (args.front() == "compacted") return cmd_compacted(rest);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  std::cerr << "error: unknown command " << args.front() << '\n';
  return 2;
}
