#include "commands.hpp"

#include <cmath>
#include <fstream>
#include <optional>
#include <ostream>
#include <string_view>

#include "analysis/correlate.hpp"
#include "analysis/monitor.hpp"
#include "analysis/window_series.hpp"
#include "archive/compact.hpp"
#include "archive/page_cache.hpp"
#include "archive/study_archive.hpp"
#include "common/arena.hpp"
#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/interrupt.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "core/correlation.hpp"
#include "core/degree_analysis.hpp"
#include "core/prefix_analysis.hpp"
#include "core/scaling_analysis.hpp"
#include "core/study.hpp"
#include "gbl/matrix_io.hpp"
#include "gbl/quantities.hpp"
#include "honeyfarm/database.hpp"
#include "netgen/scenario.hpp"
#include "netgen/traffic.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "stats/summary.hpp"
#include "svc/ingest.hpp"
#include "svc/json.hpp"
#include "svc/queries.hpp"
#include "svc/render.hpp"
#include "svc/server.hpp"
#include "telescope/telescope.hpp"
#include "telescope/trace.hpp"

namespace obscorr::tools {

namespace {

/// Option names that take no value; every subcommand parses with these.
const std::vector<std::string> kSwitches = {"timing"};

/// Shared option plumbing: every subcommand accepts --log2-nv / --seed.
struct Common {
  int log2_nv;
  std::uint64_t seed;
};

Common common_options(const CliArgs& args, int default_log2_nv) {
  Common c;
  c.log2_nv = static_cast<int>(args.get_int("log2-nv", default_log2_nv));
  c.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  return c;
}

/// Worker-thread count for this invocation: --threads N beats
/// OBSCORR_THREADS beats the hardware default. Every subcommand accepts
/// the flag (results are thread-count-invariant, so it only changes speed).
std::size_t thread_option(const CliArgs& args) {
  return static_cast<std::size_t>(resolve_thread_count(args.get_int("threads", 0)));
}

/// Decoded-page cache budget for archive reads: --cache-bytes N beats
/// OBSCORR_CACHE_BYTES beats the 256 MiB default; 0 disables caching.
/// Outputs are byte-identical at any budget — the flag only changes
/// speed. Must run before any StudyReader is built, so it rides with
/// the shared option plumbing.
void cache_option(const CliArgs& args) {
  if (!args.get("cache-bytes").has_value()) return;
  const std::int64_t bytes = args.get_int("cache-bytes", -1);
  OBSCORR_REQUIRE(bytes >= 0, "--cache-bytes must be a non-negative byte count");
  archive::set_cache_bytes(static_cast<std::uint64_t>(bytes));
}

void reject_unused(const CliArgs& args) {
  const auto stray = args.unused();
  OBSCORR_REQUIRE(stray.empty(), "unknown option --" + (stray.empty() ? "" : stray.front()));
}

/// Materialize the observation series of an archived campaign — no
/// matrices, no ground-truth population; see
/// archive::StudyReader::analysis_study.
core::StudyData load_archived_study(const std::string& dir) {
  return archive::StudyReader(dir).analysis_study();
}

/// The shared telemetry flags. Any of them arms full tracing for the
/// rest of the command; all output goes to `err` or the named files,
/// never to `out`.
struct TelemetryOptions {
  bool timing = false;
  std::optional<std::string> metrics_out;
  std::string metrics_format = "json";  ///< "json" (obscorr.metrics.v1) or "prom"
  std::optional<std::string> trace_out;
  bool active() const { return timing || metrics_out.has_value() || trace_out.has_value(); }
};

TelemetryOptions telemetry_options(const CliArgs& args) {
  cache_option(args);
  TelemetryOptions t;
  t.timing = args.has("timing");
  t.metrics_out = args.get("metrics-out");
  t.metrics_format = args.get_or("metrics-format", "json");
  OBSCORR_REQUIRE(t.metrics_format == "json" || t.metrics_format == "prom",
                  "--metrics-format must be json or prom");
  t.trace_out = args.get("trace-out");
  if (t.active()) {
    obs::reset();
    obs::set_level(obs::Level::kFull);
    obs::gauge("simd.tier").record_max(static_cast<std::uint64_t>(simd::active_tier()));
  }
  return t;
}

/// Disarm telemetry and write the requested exports. Called once at the
/// end of each subcommand, after the result data is already on `out`.
void emit_telemetry(const TelemetryOptions& t, std::ostream& err) {
  if (!t.active()) return;
  // The exported document always carries the process peak RSS; the
  // daemon additionally refreshes it on every periodic snapshot.
  obs::gauge("mem.peak_rss").record_max(static_cast<std::uint64_t>(mem::peak_rss_bytes()));
  obs::set_level(obs::Level::kOff);
  if (t.trace_out.has_value()) {
    std::ofstream os(*t.trace_out, std::ios::trunc);
    OBSCORR_REQUIRE(os.is_open(), "telemetry: cannot write trace to " + *t.trace_out);
    obs::write_chrome_trace(os);
    err << "wrote Chrome trace to " << *t.trace_out
        << " (open in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (t.metrics_out.has_value()) {
    std::ofstream os(*t.metrics_out, std::ios::trunc);
    OBSCORR_REQUIRE(os.is_open(), "telemetry: cannot write metrics to " + *t.metrics_out);
    if (t.metrics_format == "prom") {
      obs::write_metrics_prometheus(os);
    } else {
      obs::write_metrics_json(os);
    }
    err << "wrote metrics to " << *t.metrics_out << " (" << t.metrics_format << ")\n";
  }
  if (t.timing) {
    err << "simd tier: " << simd::tier_name(simd::active_tier()) << " (detected "
        << simd::tier_name(simd::detected_tier()) << ")\n";
    err << "peak rss: " << mem::peak_rss_bytes() / (1024 * 1024) << " MiB"
        << ", arena high-water: "
        << obs::gauge("mem.arena_high_water").value() / 1024 << " KiB\n";
    obs::write_timing_summary(err);
  }
}

}  // namespace

std::string usage() {
  return R"(obscorr — Internet observatory/outpost correlation toolkit

usage: obscorr <command> [options]

commands:
  generate    write one constant-packet capture window to a trace file
                --out FILE [--log2-nv K=18] [--seed S] [--month-index M=0]
  capture     replay a trace through the telescope into an archived matrix
                --trace FILE --out FILE [--log2-nv K=18] [--seed S]
  quantities  print every Table II network quantity of an archived matrix
                --matrix FILE
  degrees     source-packet distribution + Zipf-Mandelbrot and power-law fits
                --matrix FILE | --from DIR [--snapshot K=0]
  study       run the full 15-month campaign and print the headline results
                [--log2-nv K=16] [--seed S] | --from DIR
  lookup      query the honeyfarm database for a source profile
                --ip A.B.C.D [--log2-nv K=16] [--seed S] [--from DIR]
  scaling     window-size scaling ladder (sources ~ sqrt(N_V))
                [--log2-nv K=18] [--seed S] [--from DIR]
  report      regenerate every table/figure as CSV + REPORT.md in a directory
                --out DIR [--log2-nv K=16] [--seed S] [--from DIR]
  prefixes    prefix-level concentration of an archived matrix's sources
                --matrix FILE | --from DIR [--snapshot K=0]  [--length L=16]
  correlate   rank every window metric by baseline-vs-highlight change
              (netdata-style metric correlations; docs/observability.md)
                --from DIR [--domain windows|snapshots] [--method ks2|volume]
                [--baseline A:B] [--highlight A:B] [--top N=10, 0 = all]
                [--json FILE] [--events]
  archive     run the full campaign and persist it as a study archive
                --out DIR [--log2-nv K=16] [--seed S]
  archive compact
              rewrite an archive with old windows block-compressed
              (recent windows stay raw for zero-copy reads); reads stay
              byte-identical, typically >=3x smaller (docs/archive.md)
                --dir DIR [--keep-recent N=8] [--all] [--stats]
  serve       resident daemon over an archive: NDJSON query API + live ingest
                --from DIR (--unix PATH | --port N, 0 = ephemeral) [--host H]
                [--max-conns C=256] [--ingest-windows W=-1, 0 disables]
                [--window-packets P=65536] [--packet-rate R=1e6]
                [--request-timeout S=10] [--idle-timeout S=300]
                [--drain-timeout S=10] [--metrics-interval S=1]
                [--surge-start W] [--surge-len N=1] [--surge-factor F=4]
              (the surge flags inject a deterministic traffic anomaly for
              smoke-testing the detectors; anomaly events stream to `watch`
              subscribers and to DIR/anomalies.ndjson)
  help        this text

environment: results are deterministic per --seed; sizes scale with --log2-nv.
every command accepts --threads N (default: OBSCORR_THREADS, then hardware
concurrency); outputs are byte-identical at any thread count — the flag
only changes wall-clock time.
--from DIR reads a completed `obscorr archive` directory instead of
recomputing; the archived scenario then supplies --log2-nv / --seed.
a killed `archive` run resumes from its finished snapshots/months; SIGINT/
SIGTERM stop `study`/`archive`/`serve` cleanly at the next window boundary.
`serve` speaks newline-delimited JSON (docs/service.md): lookup, report,
degrees, scaling, correlate, stats, metrics, watch — responses over a fixed
window range are byte-identical to the matching batch subcommand; `watch`
streams window/anomaly events as ingest publishes.
kernels dispatch on the host's best SIMD tier; OBSCORR_SIMD=scalar|sse42|avx2
caps it — outputs are byte-identical at any tier (docs/performance.md
"SIMD dispatch").
compressed archive entries decode through an LRU page cache; every command
accepts --cache-bytes N (default: OBSCORR_CACHE_BYTES, then 256 MiB; 0
disables) — results are byte-identical at any budget (docs/archive.md).
scratch memory is recycled through hugepage-backed pools; set
OBSCORR_NO_HUGEPAGES=1 or OBSCORR_NO_POOL=1 to opt out — results are
byte-identical either way (docs/performance.md "Memory model").
every command also accepts the telemetry flags (docs/observability.md):
  --timing            per-phase timing summary + per-window rates on stderr
  --metrics-out FILE  counter/gauge/span metrics (obscorr.metrics.v1 JSON)
  --metrics-format F  json (default) or prom (Prometheus/OpenMetrics text)
  --trace-out FILE    Chrome trace-event JSON (chrome://tracing, Perfetto)
telemetry never touches stdout and never changes any result byte.
)";
}

int cmd_generate(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  (void)out;  // generate writes its result to --out FILE, not stdout
  const CliArgs cli = CliArgs::parse(args, kSwitches);
  const Common c = common_options(cli, 18);
  const TelemetryOptions topt = telemetry_options(cli);
  const auto path = cli.get("out");
  OBSCORR_REQUIRE(path.has_value(), "generate: --out FILE is required");
  const int month = static_cast<int>(cli.get_int("month-index", 0));
  (void)thread_option(cli);  // trace emission is a serial stream; flag accepted for uniformity
  reject_unused(cli);

  const auto scenario = netgen::Scenario::paper(c.log2_nv, c.seed);
  const netgen::Population population(scenario.population);
  const netgen::TrafficGenerator generator(population, scenario.traffic);
  const std::uint64_t packets =
      telescope::record_trace(*path, [&](const PacketBatchSink& sink) {
        generator.stream_window_batched(month, scenario.nv(), 1, sink);
      });
  err << "wrote " << fmt_count(packets) << " packets (" << fmt_count(scenario.nv())
      << " valid) to " << *path << '\n';
  emit_telemetry(topt, err);
  return 0;
}

int cmd_capture(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  (void)out;  // capture writes its result to --out FILE, not stdout
  const CliArgs cli = CliArgs::parse(args, kSwitches);
  const Common c = common_options(cli, 18);
  const TelemetryOptions topt = telemetry_options(cli);
  const auto trace = cli.get("trace");
  const auto matrix_path = cli.get("out");
  OBSCORR_REQUIRE(trace.has_value() && matrix_path.has_value(),
                  "capture: --trace FILE and --out FILE are required");
  const std::size_t threads = thread_option(cli);
  reject_unused(cli);

  const auto scenario = netgen::Scenario::paper(c.log2_nv, c.seed);
  ThreadPool pool(threads);
  telescope::Telescope scope(core::scope_config_for(scenario), pool);
  const std::uint64_t replayed = telescope::replay_trace(
      *trace, [&](std::span<const Packet> batch) { scope.capture_block(batch); });
  const gbl::DcsrMatrix matrix = scope.finish_window();
  gbl::save_matrix(*matrix_path, matrix);
  err << "replayed " << fmt_count(replayed) << " packets, captured "
      << fmt_count(static_cast<std::uint64_t>(matrix.reduce_sum())) << " valid ("
      << fmt_count(scope.discarded_packets()) << " discarded), archived "
      << fmt_count(matrix.nnz()) << " matrix entries to " << *matrix_path << '\n'
      << "telescope state: " << fmt_count(scope.dictionary_entries())
      << " deanonymization-dictionary entries, " << fmt_count(scope.anon_cache_entries())
      << " anon-cache entries\n";
  emit_telemetry(topt, err);
  return 0;
}

int cmd_quantities(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  const CliArgs cli = CliArgs::parse(args, kSwitches);
  const TelemetryOptions topt = telemetry_options(cli);
  const auto path = cli.get("matrix");
  OBSCORR_REQUIRE(path.has_value(), "quantities: --matrix FILE is required");
  (void)thread_option(cli);
  reject_unused(cli);

  const gbl::DcsrMatrix matrix = gbl::load_matrix(*path);
  const gbl::AggregateQuantities q = gbl::aggregate_quantities(matrix);
  TextTable table("Table II network quantities of " + *path);
  table.set_header({"quantity", "value"});
  table.add_row({"valid packets", fmt_count(static_cast<std::uint64_t>(q.valid_packets))});
  table.add_row({"unique links", fmt_count(q.unique_links)});
  table.add_row({"max link packets", fmt_double(q.max_link_packets, 0)});
  table.add_row({"unique sources", fmt_count(q.unique_sources)});
  table.add_row({"max source packets", fmt_double(q.max_source_packets, 0)});
  table.add_row({"max source fan-out", fmt_double(q.max_source_fanout, 0)});
  table.add_row({"unique destinations", fmt_count(q.unique_destinations)});
  table.add_row({"max destination packets", fmt_double(q.max_destination_packets, 0)});
  table.add_row({"max destination fan-in", fmt_double(q.max_destination_fanin, 0)});
  table.print(out);
  emit_telemetry(topt, err);
  return 0;
}

int cmd_degrees(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  const CliArgs cli = CliArgs::parse(args, kSwitches);
  const TelemetryOptions topt = telemetry_options(cli);
  const auto path = cli.get("matrix");
  const auto from = cli.get("from");
  const auto snapshot = cli.get("snapshot");
  const auto window = cli.get("window");
  OBSCORR_REQUIRE(path.has_value() != from.has_value(),
                  "degrees: exactly one of --matrix FILE or --from DIR is required");
  OBSCORR_REQUIRE(!window.has_value() || from.has_value(), "degrees: --window needs --from DIR");
  OBSCORR_REQUIRE(!(snapshot.has_value() && window.has_value()),
                  "degrees: --snapshot and --window are mutually exclusive");
  const std::size_t threads = thread_option(cli);
  reject_unused(cli);

  gbl::SparseVec sources;
  if (from.has_value()) {
    // The archive already holds the Table II reduction: no matrix
    // deserialization, no reduce_rows recompute. `--window` reads a
    // live-ingested window appended by `obscorr serve`.
    const archive::StudyReader reader(*from);
    if (window.has_value()) {
      sources = reader.window_source_packets(static_cast<std::size_t>(cli.get_int("window", 0)));
    } else {
      sources = reader.source_packets(static_cast<std::size_t>(cli.get_int("snapshot", 0)));
    }
  } else {
    ThreadPool pool(threads);
    sources = gbl::load_matrix(*path).reduce_rows(pool);
  }
  svc::render_degrees(sources, out);
  emit_telemetry(topt, err);
  return 0;
}

int cmd_study(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  const CliArgs cli = CliArgs::parse(args, kSwitches);
  const Common c = common_options(cli, 16);
  const TelemetryOptions topt = telemetry_options(cli);
  const auto from = cli.get("from");
  const std::size_t threads = thread_option(cli);
  reject_unused(cli);

  core::StudyData study;
  if (from.has_value()) {
    study = load_archived_study(*from);
  } else {
    // A long fresh campaign stops cleanly on SIGINT/SIGTERM: run_study
    // exits at the next window boundary with a pointer at the resumable
    // path (`obscorr archive`) instead of dying mid-frame.
    interrupt::install_handlers();
    ThreadPool pool(threads);
    study = core::run_study(netgen::Scenario::paper(c.log2_nv, c.seed), pool);
  }

  svc::render_study(study, out);

  // Surface the telescope bookkeeping the capture accumulated. Derived
  // from StudyData only, so fresh and --from runs print the same line.
  std::uint64_t discarded = 0;
  std::uint64_t deanonymized = 0;
  for (const auto& snap : study.snapshots) {
    discarded += snap.discarded_packets;
    deanonymized += snap.sources.row_keys().size();
  }
  err << "telescope: " << fmt_count(discarded) << " packets discarded, " << fmt_count(deanonymized)
      << " source ids deanonymized across " << study.snapshots.size() << " windows\n";

  // Table I-style per-window rates from the study.snapshot spans (only a
  // fresh run records them; --from replays no capture).
  if (topt.timing) {
    const std::uint64_t nv = study.scenario.nv();
    TextTable rates("per-window capture rates (Table I shape)");
    rates.set_header({"window", "valid packets", "seconds", "packets/s"});
    bool any = false;
    for (const auto& ev : obs::span_events()) {
      if (std::string_view(ev.name) != "study.snapshot") continue;
      const double sec = static_cast<double>(ev.dur_ns) * 1e-9;
      rates.add_row({ev.detail, fmt_count(nv), fmt_double(sec, 3),
                     sec > 0.0
                         ? fmt_count(static_cast<std::uint64_t>(static_cast<double>(nv) / sec))
                         : "-"});
      any = true;
    }
    if (any) rates.print(err);
  }
  emit_telemetry(topt, err);
  return 0;
}

int cmd_lookup(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  const CliArgs cli = CliArgs::parse(args, kSwitches);
  const Common c = common_options(cli, 16);
  const TelemetryOptions topt = telemetry_options(cli);
  const auto ip_text = cli.get("ip");
  const auto from = cli.get("from");
  OBSCORR_REQUIRE(ip_text.has_value(), "lookup: --ip A.B.C.D is required");
  (void)thread_option(cli);
  reject_unused(cli);
  OBSCORR_REQUIRE(Ipv4::parse(*ip_text).has_value(), "lookup: malformed address " + *ip_text);

  std::vector<honeyfarm::MonthlyObservation> months;
  if (from.has_value()) {
    months = archive::StudyReader(*from).months();
  } else {
    const auto scenario = netgen::Scenario::paper(c.log2_nv, c.seed);
    const netgen::Population population(scenario.population);
    const honeyfarm::Honeyfarm farm(population, scenario.visibility,
                                    scenario.population.seed ^ 0x64E4015EULL);
    for (std::size_t m = 0; m < scenario.months.size(); ++m) {
      months.push_back(farm.observe_month(scenario.months[m], static_cast<int>(m)));
    }
  }
  const honeyfarm::Database db(std::move(months));
  svc::render_lookup(db, *ip_text, out);
  emit_telemetry(topt, err);
  return 0;
}

int cmd_scaling(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  const CliArgs cli = CliArgs::parse(args, kSwitches);
  const Common c = common_options(cli, 18);
  const TelemetryOptions topt = telemetry_options(cli);
  const auto from = cli.get("from");
  const std::size_t threads = thread_option(cli);
  reject_unused(cli);

  ThreadPool pool(threads);
  const auto scenario = from.has_value() ? archive::StudyReader(*from).scenario()
                                         : netgen::Scenario::paper(c.log2_nv, c.seed);
  const int ladder_top = static_cast<int>(scenario.population.log2_nv);
  const auto analysis = core::scaling_analysis(scenario, 0, 10, ladder_top, pool);
  svc::render_scaling(analysis, out);
  emit_telemetry(topt, err);
  return 0;
}

int cmd_report(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  (void)out;  // report writes its results to --out DIR, not stdout
  const CliArgs cli = CliArgs::parse(args, kSwitches);
  const Common c = common_options(cli, 16);
  const TelemetryOptions topt = telemetry_options(cli);
  const auto dir = cli.get("out");
  const auto from = cli.get("from");
  OBSCORR_REQUIRE(dir.has_value(), "report: --out DIR is required");
  const std::size_t threads = thread_option(cli);
  reject_unused(cli);

  const auto csv = [&](const TextTable& table, const std::string& name) {
    const std::string path = *dir + "/" + name + ".csv";
    std::ofstream os(path);
    OBSCORR_REQUIRE(os.is_open(), "report: cannot write " + path);
    table.print_csv(os);
    err << "wrote " << path << '\n';
  };

  core::StudyData study;
  if (from.has_value()) {
    study = load_archived_study(*from);
  } else {
    ThreadPool pool(threads);
    study = core::run_study(netgen::Scenario::paper(c.log2_nv, c.seed), pool);
  }

  // Table I.
  TextTable t1;
  t1.set_header({"month", "greynoise_sources", "caida_label", "caida_sources",
                 "caida_duration_sec"});
  for (std::size_t m = 0; m < study.months.size(); ++m) {
    std::string label, sources, duration;
    for (const auto& snap : study.snapshots) {
      if (snap.month_index == static_cast<int>(m)) {
        label = snap.spec.start_label;
        sources = std::to_string(snap.sources.row_keys().size());
        duration = fmt_double(snap.duration_sec, 3);
      }
    }
    t1.add_row({study.months[m].month.to_string(),
                std::to_string(study.months[m].total_sources()), label, sources, duration});
  }
  csv(t1, "table1_inventory");

  // Figure 3.
  const auto analyses = core::analyze_all_degrees(study);
  TextTable f3;
  f3.set_header({"d_bin", "snapshot", "dcp"});
  for (const auto& a : analyses) {
    for (int b = 0; b < a.histogram.bin_count(); ++b) {
      f3.add_row({std::to_string(b), a.label, fmt_sci(a.dcp[static_cast<std::size_t>(b)], 6)});
    }
  }
  csv(f3, "fig3_degree_distribution");

  // Figure 4.
  TextTable f4;
  f4.set_header({"d_bin", "caida_sources", "matched", "fraction", "log_law"});
  for (const auto& b : core::peak_correlation_all(study)) {
    if (b.caida_sources == 0) continue;
    f4.add_row({std::to_string(b.bin), std::to_string(b.caida_sources),
                std::to_string(b.matched), fmt_double(b.fraction, 6), fmt_double(b.model, 6)});
  }
  csv(f4, "fig4_peak_correlation");

  // Figures 5-8 from the fit grid.
  const auto grid = core::fit_grid(study, 20);
  TextTable f6;
  f6.set_header({"snapshot", "d_bin", "dt_months", "fraction", "fit"});
  TextTable f78;
  f78.set_header({"snapshot", "d_bin", "sources", "alpha", "beta", "one_month_drop"});
  for (const auto& cell : grid) {
    const auto& snap = study.snapshots[cell.snapshot].spec.start_label;
    const auto& mc = cell.curve.modified_cauchy;
    for (std::size_t i = 0; i < cell.curve.series.dt.size(); ++i) {
      f6.add_row({snap, std::to_string(cell.curve.bin),
                  fmt_double(cell.curve.series.dt[i], 0),
                  fmt_double(cell.curve.series.fraction[i], 6),
                  fmt_double(mc.amplitude * mc.model.value(cell.curve.series.dt[i]), 6)});
    }
    f78.add_row({snap, std::to_string(cell.curve.bin), std::to_string(cell.curve.bin_sources),
                 fmt_double(mc.model.alpha, 4), fmt_double(mc.model.beta, 4),
                 fmt_double(mc.model.one_month_drop(), 4)});
  }
  csv(f6, "fig5_fig6_temporal_curves");
  csv(f78, "fig7_fig8_fit_parameters");

  // REPORT.md: the headline summary.
  const std::string report_path = *dir + "/REPORT.md";
  std::ofstream report(report_path);
  OBSCORR_REQUIRE(report.is_open(), "report: cannot write " + report_path);
  report << "# obscorr reproduction report\n\n"
         << "- window: N_V = 2^" << study.scenario.population.log2_nv
         << " packets (paper: 2^30), seed " << study.scenario.population.seed
         << "\n- snapshots: " << study.snapshots.size() << ", honeyfarm months: "
         << study.months.size() << "\n- CSV series: table1_inventory, "
         << "fig3_degree_distribution, fig4_peak_correlation, fig5_fig6_temporal_curves, "
         << "fig7_fig8_fit_parameters\n\n"
         << "See EXPERIMENTS.md in the repository root for paper-vs-measured analysis.\n";
  err << "wrote " << report_path << '\n';
  emit_telemetry(topt, err);
  return 0;
}

int cmd_prefixes(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  const CliArgs cli = CliArgs::parse(args, kSwitches);
  const TelemetryOptions topt = telemetry_options(cli);
  const auto path = cli.get("matrix");
  const auto from = cli.get("from");
  const auto snapshot = static_cast<std::size_t>(cli.get_int("snapshot", 0));
  OBSCORR_REQUIRE(path.has_value() != from.has_value(),
                  "prefixes: exactly one of --matrix FILE or --from DIR is required");
  const int length = static_cast<int>(cli.get_int("length", 16));
  (void)thread_option(cli);
  reject_unused(cli);

  core::PrefixAnalysis analysis;
  if (from.has_value()) {
    // Zero-copy: the span overload aggregates straight over the mapped
    // archive entry.
    const archive::StudyReader reader(*from);
    const auto src = reader.sources(snapshot);
    analysis = core::analyze_prefixes(src.ids, src.counts, length);
  } else {
    analysis = core::analyze_prefixes(gbl::load_matrix(*path).reduce_rows(), length);
  }
  TextTable table("source concentration by /" + std::to_string(length) +
                  " prefix (anonymized ids; prefix structure is CryptoPAN-invariant)");
  table.set_header({"rank", "prefix bits", "sources", "packets"});
  for (std::size_t i = 0; i < analysis.buckets.size() && i < 15; ++i) {
    const auto& b = analysis.buckets[i];
    table.add_row({std::to_string(i + 1), std::to_string(b.prefix_bits), fmt_count(b.sources),
                   fmt_count(static_cast<std::uint64_t>(b.packets))});
  }
  table.print(out);
  out << "prefixes: " << fmt_count(analysis.buckets.size())
      << ", top-10 packet share: " << fmt_percent(analysis.top10_packet_share, 1)
      << ", source Gini: " << fmt_double(analysis.source_gini, 3) << '\n';
  emit_telemetry(topt, err);
  return 0;
}

namespace {

/// Parse a --baseline/--highlight "A:B" range flag.
analysis::WindowRange parse_range_flag(const std::string& text, const char* flag) {
  const std::size_t colon = text.find(':');
  OBSCORR_REQUIRE(colon != std::string::npos && colon > 0 && colon + 1 < text.size(),
                  std::string("correlate: --") + flag + " wants FIRST:LAST");
  analysis::WindowRange r;
  try {
    r.first = std::stoull(text.substr(0, colon));
    r.last = std::stoull(text.substr(colon + 1));
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("correlate: --") + flag + " wants FIRST:LAST integers");
  }
  OBSCORR_REQUIRE(r.first <= r.last, std::string("correlate: --") + flag + " range must be ordered");
  return r;
}

}  // namespace

int cmd_correlate(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  static const std::vector<std::string> kCorrelateSwitches = {"timing", "events"};
  const CliArgs cli = CliArgs::parse(args, kCorrelateSwitches);
  const TelemetryOptions topt = telemetry_options(cli);
  const auto from = cli.get("from");
  OBSCORR_REQUIRE(from.has_value(), "correlate: --from DIR is required (a completed archive)");
  const auto domain_flag = cli.get("domain");
  const auto baseline_flag = cli.get("baseline");
  const auto highlight_flag = cli.get("highlight");
  const analysis::Method method = analysis::parse_method(cli.get_or("method", "ks2"));
  const std::int64_t top = cli.get_int("top", 10);
  OBSCORR_REQUIRE(top >= 0, "correlate: --top must be >= 0");
  const auto json_path = cli.get("json");
  const bool events = cli.has("events");
  (void)thread_option(cli);  // sampling is serial by design (determinism); accepted for uniformity
  reject_unused(cli);

  const archive::StudyReader reader(*from);
  analysis::Domain domain;
  std::string domain_text;
  if (domain_flag.has_value()) {
    OBSCORR_REQUIRE(*domain_flag == "windows" || *domain_flag == "snapshots",
                    "correlate: --domain must be windows or snapshots");
    domain_text = *domain_flag;
  } else {
    domain_text = reader.window_count() > 0 ? "windows" : "snapshots";
  }
  domain = domain_text == "windows" ? analysis::Domain::kWindows : analysis::Domain::kSnapshots;
  const std::size_t n =
      domain == analysis::Domain::kWindows ? reader.window_count() : reader.snapshot_count();
  OBSCORR_REQUIRE(n >= 2, "correlate: archive has fewer than 2 " + domain_text);

  // netdata framing when unspecified: highlight = the trailing fifth,
  // baseline = the preceding 4x stretch.
  const analysis::WindowRange highlight = highlight_flag.has_value()
                                              ? parse_range_flag(*highlight_flag, "highlight")
                                              : analysis::default_highlight(n);
  const analysis::WindowRange baseline = baseline_flag.has_value()
                                             ? parse_range_flag(*baseline_flag, "baseline")
                                             : analysis::default_baseline(highlight);

  const analysis::SeriesStore store = analysis::store_from_reader(reader, domain);
  const std::vector<analysis::MetricScore> ranked =
      analysis::rank_series(store, baseline, highlight, method);
  out << "archive: " << *from << " (" << n << " " << domain_text << ")\n";
  svc::render_correlate(ranked, method, baseline, highlight, static_cast<std::size_t>(top), out);

  if (events) {
    // Replay the same windows through the streaming detectors and print
    // the anomaly stream a live `watch` subscriber would have seen.
    analysis::Monitor monitor;
    const std::vector<analysis::AnomalyEvent> fired = monitor.prime(reader, domain);
    out << "\nanomaly events (" << fired.size() << "):\n";
    for (const analysis::AnomalyEvent& ev : fired) out << analysis::event_json(ev) << '\n';
  }

  if (json_path.has_value()) {
    std::ofstream os(*json_path, std::ios::trunc);
    OBSCORR_REQUIRE(os.is_open(), "correlate: cannot write " + *json_path);
    os << svc::dump_json(svc::correlate_json(ranked, method, baseline, highlight)) << '\n';
    err << "wrote ranked correlations to " << *json_path << '\n';
  }
  emit_telemetry(topt, err);
  return 0;
}

int cmd_archive_compact(const std::vector<std::string>& args, std::ostream& out,
                        std::ostream& err) {
  static const std::vector<std::string> kCompactSwitches = {"timing", "all", "stats"};
  const CliArgs cli = CliArgs::parse(args, kCompactSwitches);
  const TelemetryOptions topt = telemetry_options(cli);
  const auto dir = cli.get("dir");
  OBSCORR_REQUIRE(dir.has_value(), "archive compact: --dir DIR is required");
  archive::CompactOptions opts;
  const std::int64_t keep = cli.get_int("keep-recent", 8);
  OBSCORR_REQUIRE(keep >= 0, "archive compact: --keep-recent must be >= 0");
  opts.keep_recent = static_cast<std::size_t>(keep);
  opts.compress_all = cli.has("all");
  const bool print_stats = cli.has("stats");
  (void)thread_option(cli);  // the rewrite is a serial pass; flag accepted for uniformity
  reject_unused(cli);

  const archive::CompactStats stats = archive::compact_archive(*dir, opts);
  if (print_stats) {
    out << "entries: " << fmt_count(stats.entries_total) << " ("
        << fmt_count(stats.entries_compressed) << " compressed)\n"
        << "raw bytes: " << fmt_count(stats.raw_bytes) << "\n"
        << "stored bytes: " << fmt_count(stats.stored_bytes_before) << " -> "
        << fmt_count(stats.stored_bytes_after) << "\n"
        << "compression ratio: " << fmt_double(stats.ratio(), 2) << "x (raw / stored)\n"
        << "generation: " << stats.generation << "\n";
  }
  err << "compacted " << *dir << " to generation " << stats.generation << " ("
      << fmt_count(stats.entries_compressed) << " of " << fmt_count(stats.entries_total)
      << " entries compressed, " << fmt_double(stats.ratio(), 2) << "x)\n";
  emit_telemetry(topt, err);
  return 0;
}

int cmd_archive(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  if (!args.empty() && args.front() == "compact") {
    return cmd_archive_compact({args.begin() + 1, args.end()}, out, err);
  }
  (void)out;  // archive writes its result to --out DIR, not stdout
  const CliArgs cli = CliArgs::parse(args, kSwitches);
  const Common c = common_options(cli, 16);
  const TelemetryOptions topt = telemetry_options(cli);
  const auto dir = cli.get("out");
  OBSCORR_REQUIRE(dir.has_value(), "archive: --out DIR is required");
  const std::size_t threads = thread_option(cli);
  reject_unused(cli);

  // SIGINT/SIGTERM during a long campaign stops between archive entries:
  // every finished snapshot/month is already flushed to the entry log, so
  // re-running the same command resumes where the signal landed.
  interrupt::install_handlers();
  ThreadPool pool(threads);
  const auto stats =
      archive::archive_study(netgen::Scenario::paper(c.log2_nv, c.seed), *dir, pool);
  if (stats.interrupted) {
    err << "interrupted: every completed snapshot/month is flushed to " << *dir << '\n'
        << "re-run the same command to resume\n";
    emit_telemetry(topt, err);
    return 130;
  }
  if (stats.already_complete) {
    err << "archive already complete at " << *dir << '\n';
    emit_telemetry(topt, err);
    return 0;
  }
  err << "archived " << stats.snapshots_total << " snapshots ("
      << stats.snapshots_reused << " resumed) and " << stats.months_total << " months ("
      << stats.months_reused << " resumed) to " << *dir << '\n'
      << "query it with --from " << *dir << '\n';
  emit_telemetry(topt, err);
  return 0;
}

int cmd_serve(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  (void)out;  // protocol responses go to client sockets, diagnostics to err
  const CliArgs cli = CliArgs::parse(args, kSwitches);
  const TelemetryOptions topt = telemetry_options(cli);
  const auto from = cli.get("from");
  OBSCORR_REQUIRE(from.has_value(), "serve: --from DIR is required (a completed archive)");

  svc::ServerConfig scfg;
  scfg.unix_path = cli.get_or("unix", "");
  scfg.host = cli.get_or("host", "127.0.0.1");
  scfg.port = static_cast<int>(cli.get_int("port", -1));
  OBSCORR_REQUIRE(!scfg.unix_path.empty() || scfg.port >= 0,
                  "serve: --unix PATH or --port N (0 = ephemeral) is required");
  OBSCORR_REQUIRE(scfg.unix_path.empty() || scfg.port < 0,
                  "serve: --unix and --port are mutually exclusive");
  if (scfg.port < 0) scfg.port = 0;
  const std::int64_t max_conns = cli.get_int("max-conns", 256);
  OBSCORR_REQUIRE(max_conns >= 1, "serve: --max-conns must be >= 1");
  scfg.max_connections = static_cast<std::size_t>(max_conns);
  scfg.request_timeout_sec = cli.get_double("request-timeout", 10.0);
  scfg.idle_timeout_sec = cli.get_double("idle-timeout", 300.0);
  scfg.drain_timeout_sec = cli.get_double("drain-timeout", 10.0);
  if (topt.metrics_out.has_value()) scfg.metrics_out = *topt.metrics_out;
  scfg.metrics_interval_sec = cli.get_double("metrics-interval", 1.0);

  svc::IngestConfig icfg;
  const std::int64_t ingest_windows = cli.get_int("ingest-windows", -1);
  icfg.max_windows = ingest_windows < 0 ? static_cast<std::size_t>(-1)
                                        : static_cast<std::size_t>(ingest_windows);
  const std::int64_t window_packets = cli.get_int("window-packets", 1 << 16);
  OBSCORR_REQUIRE(window_packets >= 1, "serve: --window-packets must be >= 1");
  icfg.window_packets = static_cast<std::uint64_t>(window_packets);
  icfg.mean_packet_rate = cli.get_double("packet-rate", 1e6);
  OBSCORR_REQUIRE(icfg.mean_packet_rate > 0.0, "serve: --packet-rate must be > 0");
  const std::int64_t surge_start = cli.get_int("surge-start", -1);
  if (surge_start >= 0) {
    icfg.surge_start = static_cast<std::size_t>(surge_start);
    const std::int64_t surge_len = cli.get_int("surge-len", 1);
    OBSCORR_REQUIRE(surge_len > 0, "serve: --surge-len must be > 0");
    icfg.surge_len = static_cast<std::size_t>(surge_len);
    icfg.surge_factor = cli.get_double("surge-factor", 4.0);
    OBSCORR_REQUIRE(icfg.surge_factor > 0.0, "serve: --surge-factor must be > 0");
  }
  const std::size_t threads = thread_option(cli);
  reject_unused(cli);

  // The daemon always runs with the counter registry armed: the svc.*
  // counters and the `metrics` query are part of the service surface,
  // not an opt-in diagnostic. Telemetry flags still arm full spans.
  const bool armed_here = !topt.active();
  if (armed_here) obs::set_level(obs::Level::kCounters);

  interrupt::reset();
  interrupt::install_handlers();

  int rc = 0;
  {
    ThreadPool pool(threads);
    svc::QueryEngine engine(*from, pool);
    svc::Server server(scfg, engine, pool);
    server.bind();
    err << "listening on " << server.endpoint() << " (archive " << *from << ", "
        << engine.window_count() << " live windows)\n";
    err.flush();

    // The anomaly monitor rides the ingest thread: primed here (before
    // the thread exists) over the windows already in the archive, then
    // fed exclusively from on_publish. Events are pushed to `watch`
    // subscribers and appended to the archive's NDJSON sidecar.
    analysis::MonitorConfig mcfg;
    mcfg.event_log_path = *from + "/anomalies.ndjson";
    analysis::Monitor monitor(mcfg);
    {
      const archive::StudyReader replay(*from);
      const auto primed = monitor.prime(replay, analysis::Domain::kWindows);
      err << "monitor: primed over " << monitor.store().window_count() << " windows ("
          << primed.size() << " historical anomalies)\n";
    }
    icfg.on_publish = [&server, &monitor](const svc::PublishedWindow& pw) {
      analysis::WindowSample s;
      s.q = gbl::aggregate_quantities(pw.matrix);
      s.discarded_packets = pw.meta.discarded_packets;
      s.duration_sec = pw.meta.duration_sec;
      s.source_gini =
          pw.sources.values().empty() ? 0.0 : stats::gini_coefficient(pw.sources.values());
      const auto events = monitor.observe_window(pw.meta.window, s, pw.sources.values());
      // Window heartbeat first, then its anomalies: a watcher always
      // learns about an anomaly within the window that produced it.
      server.publish_event(analysis::window_event_json(pw.meta));
      for (const auto& ev : events) server.publish_event(analysis::event_json(ev));
    };

    std::optional<svc::IngestLoop> ingest;
    if (icfg.max_windows > 0) {
      ingest.emplace(*from, engine, pool, icfg);
      ingest->start();
    }
    rc = server.serve();
    if (ingest.has_value()) {
      ingest->stop_and_join();
      if (!ingest->error().empty()) {
        err << "ingest error: " << ingest->error() << '\n';
        if (rc == 0) rc = 1;
      } else {
        err << "ingest: published " << ingest->published() << " windows ("
            << engine.window_count() << " total in archive)\n";
      }
    }
    if (topt.timing) {
      const auto latencies = engine.latency_snapshot();
      if (!latencies.empty()) {
        TextTable lat("service latency by query type (us)");
        lat.set_header({"query", "count", "p50", "p99"});
        for (const auto& ql : latencies) {
          lat.add_row({ql.query, fmt_count(ql.count), fmt_double(ql.p50_us, 1),
                       fmt_double(ql.p99_us, 1)});
        }
        lat.print(err);
      }
    }
    err << "drained cleanly\n";
  }
  emit_telemetry(topt, err);
  if (armed_here) obs::set_level(obs::Level::kOff);
  return rc;
}

int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  if (args.empty()) {
    err << usage();
    return 2;
  }
  if (args.front() == "help" || args.front() == "--help") {
    out << usage();
    return 0;
  }
  const std::string command = args.front();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (command == "generate") return cmd_generate(rest, out, err);
    if (command == "capture") return cmd_capture(rest, out, err);
    if (command == "quantities") return cmd_quantities(rest, out, err);
    if (command == "degrees") return cmd_degrees(rest, out, err);
    if (command == "study") return cmd_study(rest, out, err);
    if (command == "lookup") return cmd_lookup(rest, out, err);
    if (command == "scaling") return cmd_scaling(rest, out, err);
    if (command == "report") return cmd_report(rest, out, err);
    if (command == "prefixes") return cmd_prefixes(rest, out, err);
    if (command == "correlate") return cmd_correlate(rest, out, err);
    if (command == "archive") return cmd_archive(rest, out, err);
    if (command == "serve") return cmd_serve(rest, out, err);
  } catch (const std::invalid_argument& e) {
    obs::set_level(obs::Level::kOff);  // a failed command must not leave tracing armed
    err << "error: " << e.what() << '\n';
    return 2;
  }
  err << "error: unknown command '" << command << "'\n\n" << usage();
  return 2;
}

}  // namespace obscorr::tools
