#include "commands.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <ostream>
#include <string_view>
#include <utility>

#include "analysis/correlate.hpp"
#include "analysis/monitor.hpp"
#include "analysis/window_series.hpp"
#include "archive/compact.hpp"
#include "archive/matrix_file.hpp"
#include "archive/page_cache.hpp"
#include "archive/study_archive.hpp"
#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/interrupt.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "core/correlation.hpp"
#include "core/degree_analysis.hpp"
#include "core/prefix_analysis.hpp"
#include "core/study.hpp"
#include "gbl/quantities.hpp"
#include "honeyfarm/database.hpp"
#include "netgen/scenario.hpp"
#include "netgen/traffic.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "svc/ingest.hpp"
#include "svc/json.hpp"
#include "svc/queries.hpp"
#include "svc/render.hpp"
#include "svc/server.hpp"
#include "telescope/telescope.hpp"
#include "telescope/trace.hpp"

namespace obscorr::tools {

namespace {

/// The shared telemetry flags. Any of them arms full tracing for the
/// rest of the command; all output goes to `err` or the named files,
/// never to `out`.
struct Telemetry {
  bool timing = false;
  std::optional<std::string> metrics_out;
  std::string metrics_format = "json";  ///< "json" (obscorr.metrics.v1) or "prom"
  std::optional<std::string> trace_out;
  bool active() const { return timing || metrics_out.has_value() || trace_out.has_value(); }
};

/// Write `path` through `fill`. A file that cannot be opened, or a byte
/// that did not reach it (a full disk), throws `message`, so no `wrote`
/// line follows a failed write.
template <typename Fill>
void write_file(const std::string& path, const std::string& message, const Fill& fill) {
  std::ofstream os(path, std::ios::trunc);
  OBSCORR_REQUIRE(os.is_open(), message);
  fill(os);
  os.close();
  OBSCORR_REQUIRE(!os.fail(), message);
}

/// Disarm telemetry and write the requested exports. Runs once per
/// command, after the result data is already on `out`.
void export_telemetry(const Telemetry& t, std::ostream& err) {
  if (!t.active()) return;
  // The exported document always carries the process peak RSS; the
  // daemon additionally refreshes it on every periodic snapshot.
  obs::gauge("mem.peak_rss").record_max(static_cast<std::uint64_t>(obs::peak_rss_bytes()));
  obs::set_level(obs::Level::kOff);
  if (t.trace_out.has_value()) {
    write_file(*t.trace_out, "telemetry: cannot write trace to " + *t.trace_out,
               [](std::ostream& os) { obs::write_chrome_trace(os); });
    err << "wrote Chrome trace to " << *t.trace_out
        << " (open in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (t.metrics_out.has_value()) {
    OBSCORR_REQUIRE(obs::write_metrics_file(*t.metrics_out, t.metrics_format),
                    "telemetry: cannot write metrics to " + *t.metrics_out);
    err << "wrote metrics to " << *t.metrics_out << " (" << t.metrics_format << ")\n";
  }
  if (t.timing) {
    err << "aes: " << (simd::use_aes() ? "aes-ni" : "byte-wise") << '\n';
    err << "peak rss: " << obs::peak_rss_bytes() / (1024 * 1024) << " MiB\n";
    obs::write_timing_summary(err);
  }
}

/// `--name` as an `int`, or `fallback`. A value an `int` cannot hold is a
/// usage error, never a silent wrap to a small one.
int int_flag(const CliArgs& cli, const std::string& name, int fallback) {
  const std::int64_t value = cli.get_int(name, fallback);
  OBSCORR_REQUIRE(std::in_range<int>(value), "option --" + name + " is out of range");
  return static_cast<int>(value);
}

/// What the driver hands a command body: its checked flags and the
/// plumbing every command shares.
struct Invocation {
  const CliArgs& cli;
  std::size_t threads;  ///< --threads N, else OBSCORR_THREADS, else the hardware
  int log2_nv;          ///< --log2-nv, else the command's default
  std::uint64_t seed;   ///< --seed, else 42
  const Telemetry& telemetry;

  netgen::Scenario scenario() const { return netgen::Scenario::paper(log2_nv, seed); }
};

/// One subcommand. `help` is its usage() text after the name column;
/// the flags it names are exactly the flags the command accepts.
struct Command {
  std::string_view name;  ///< one word, or two for `archive compact`
  int log2_nv;            ///< --log2-nv default (commands that build a scenario)
  int (*body)(const Invocation& in, std::ostream& out, std::ostream& err);
  std::string_view help;
};

int cmd_generate(const Invocation& in, std::ostream& /*out*/, std::ostream& err) {
  const auto path = in.cli.get("out");
  OBSCORR_REQUIRE(path.has_value(), "generate: --out FILE is required");
  const int month = int_flag(in.cli, "month-index", 0);

  const auto scenario = in.scenario();
  const netgen::Population population(scenario.population);
  const netgen::TrafficGenerator generator(population, scenario.traffic);
  const std::uint64_t packets =
      telescope::record_trace(*path, [&](const PacketBatchSink& sink) {
        generator.stream_window_batched(month, scenario.nv(), 1, sink);
      });
  err << "wrote " << fmt_count(packets) << " packets (" << fmt_count(scenario.nv())
      << " valid) to " << *path << '\n';
  return 0;
}

int cmd_capture(const Invocation& in, std::ostream& /*out*/, std::ostream& err) {
  const auto trace = in.cli.get("trace");
  const auto matrix_path = in.cli.get("out");
  OBSCORR_REQUIRE(trace.has_value() && matrix_path.has_value(),
                  "capture: --trace FILE and --out FILE are required");

  ThreadPool pool(in.threads);
  telescope::Telescope scope(core::scope_config_for(in.scenario()), pool);
  const std::uint64_t replayed = telescope::replay_trace(
      *trace, [&](std::span<const Packet> batch) { scope.capture_block(batch); });
  const gbl::DcsrMatrix matrix = scope.finish_window();
  archive::write_matrix_file(*matrix_path, matrix);
  err << "replayed " << fmt_count(replayed) << " packets, captured "
      << fmt_count_double(matrix.reduce_sum()) << " valid ("
      << fmt_count(scope.discarded_packets()) << " discarded), archived "
      << fmt_count(matrix.nnz()) << " matrix entries to " << *matrix_path << '\n'
      << "telescope state: " << fmt_count(scope.dictionary_entries())
      << " deanonymization-dictionary entries, " << fmt_count(scope.anon_cache_entries())
      << " anon-cache entries\n";
  return 0;
}

int cmd_quantities(const Invocation& in, std::ostream& out, std::ostream& /*err*/) {
  const auto path = in.cli.get("matrix");
  OBSCORR_REQUIRE(path.has_value(), "quantities: --matrix FILE is required");

  const gbl::AggregateQuantities q = gbl::aggregate_quantities(archive::read_matrix_file(*path));
  TextTable table("Table II network quantities of " + *path);
  table.set_header({"quantity", "value"});
  table.add_row({"valid packets", fmt_count_double(q.valid_packets)});
  table.add_row({"unique links", fmt_count(q.unique_links)});
  table.add_row({"max link packets", fmt_double(q.max_link_packets, 0)});
  table.add_row({"unique sources", fmt_count(q.unique_sources)});
  table.add_row({"max source packets", fmt_double(q.max_source_packets, 0)});
  table.add_row({"max source fan-out", fmt_double(q.max_source_fanout, 0)});
  table.add_row({"unique destinations", fmt_count(q.unique_destinations)});
  table.add_row({"max destination packets", fmt_double(q.max_destination_packets, 0)});
  table.add_row({"max destination fan-in", fmt_double(q.max_destination_fanin, 0)});
  table.print(out);
  return 0;
}

int cmd_degrees(const Invocation& in, std::ostream& out, std::ostream& /*err*/) {
  const auto path = in.cli.get("matrix");
  const auto from = in.cli.get("from");
  OBSCORR_REQUIRE(path.has_value() != from.has_value(),
                  "degrees: exactly one of --matrix FILE or --from DIR is required");
  const svc::DegreesQuery query = svc::parse_degrees(svc::params_from_flags("degrees", in.cli));
  OBSCORR_REQUIRE(from.has_value() || !(in.cli.has("snapshot") || in.cli.has("window")),
                  "degrees: --snapshot and --window need --from DIR");

  gbl::SparseVec sources;
  if (from.has_value()) {
    // The archive already holds the Table II reduction: no matrix
    // deserialization, no reduce_rows recompute. `--window` reads a
    // live-ingested window appended by `obscorr serve`.
    sources = query.sources(archive::StudyReader(*from));
  } else {
    ThreadPool pool(in.threads);
    sources = archive::read_matrix_file(*path).reduce_rows(pool);
  }
  svc::render_degrees(sources, out);
  return 0;
}

/// The campaign `study` and `report` print: --from DIR's, else a fresh
/// run; either way built on `pool`.
core::StudyData campaign(const Invocation& in, ThreadPool& pool) {
  const auto from = in.cli.get("from");
  if (from.has_value()) return archive::StudyReader(*from).analysis_study(pool);
  return core::run_study(in.scenario(), pool);
}

int cmd_study(const Invocation& in, std::ostream& out, std::ostream& err) {
  // A long fresh campaign stops cleanly on SIGINT/SIGTERM: run_study
  // exits at the next window boundary with a pointer at the resumable
  // path (`obscorr archive`) instead of dying mid-frame.
  if (!in.cli.has("from")) interrupt::install_handlers();
  ThreadPool pool(in.threads);
  const core::StudyData study = campaign(in, pool);
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
  if (in.telemetry.timing) {
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
  return 0;
}

int cmd_lookup(const Invocation& in, std::ostream& out, std::ostream& /*err*/) {
  const std::string ip = svc::parse_lookup(svc::params_from_flags("lookup", in.cli));
  const auto from = in.cli.get("from");

  if (from.has_value()) {
    // The database views raw months in the reader's mapping, so the
    // reader outlives it.
    const archive::StudyReader reader(*from);
    ThreadPool pool(in.threads);
    svc::render_lookup(
        honeyfarm::Database(
            reader.month_count(), [&reader](std::size_t m) { return reader.month_view(m); },
            pool),
        ip, out);
    return 0;
  }
  const auto scenario = in.scenario();
  const netgen::Population population(scenario.population);
  std::vector<honeyfarm::MonthlyObservation> months(scenario.months.size());
  // Month m's activity chain extends month m-1's, so fill it serially
  // before the months run as pool tasks into their slots.
  (void)population.active(0, static_cast<int>(months.size()) - 1);
  ThreadPool pool(in.threads);
  parallel_for(pool, 0, months.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t m = b; m < e; ++m) months[m] = core::run_month(scenario, population, m);
  });
  svc::render_lookup(honeyfarm::Database(std::move(months), pool), ip, out);
  return 0;
}

int cmd_scaling(const Invocation& in, std::ostream& out, std::ostream& /*err*/) {
  const auto from = in.cli.get("from");
  ThreadPool pool(in.threads);
  const auto scenario = from.has_value() ? archive::StudyReader(*from).scenario() : in.scenario();
  svc::render_scaling(svc::scaling_ladder(scenario, pool), out);
  return 0;
}

int cmd_report(const Invocation& in, std::ostream& /*out*/, std::ostream& err) {
  const auto dir = in.cli.get("out");
  OBSCORR_REQUIRE(dir.has_value(), "report: --out DIR is required");

  const auto csv = [&](const TextTable& table, const std::string& name) {
    const std::string path = *dir + "/" + name + ".csv";
    write_file(path, "report: cannot write " + path,
               [&](std::ostream& os) { table.print_csv(os); });
    err << "wrote " << path << '\n';
  };

  ThreadPool pool(in.threads);
  const core::StudyData study = campaign(in, pool);

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
  const auto grid = core::fit_grid(study, 20, pool);
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
  write_file(report_path, "report: cannot write " + report_path, [&](std::ostream& report) {
    report << "# obscorr reproduction report\n\n"
           << "- window: N_V = 2^" << study.scenario.population.log2_nv
           << " packets (paper: 2^30), seed " << study.scenario.population.seed
           << "\n- snapshots: " << study.snapshots.size() << ", honeyfarm months: "
           << study.months.size() << "\n- CSV series: table1_inventory, "
           << "fig3_degree_distribution, fig4_peak_correlation, fig5_fig6_temporal_curves, "
           << "fig7_fig8_fit_parameters\n\n"
           << "See EXPERIMENTS.md in the repository root for paper-vs-measured analysis.\n";
  });
  err << "wrote " << report_path << '\n';
  return 0;
}

int cmd_prefixes(const Invocation& in, std::ostream& out, std::ostream& /*err*/) {
  const auto path = in.cli.get("matrix");
  const auto from = in.cli.get("from");
  OBSCORR_REQUIRE(path.has_value() != from.has_value(),
                  "prefixes: exactly one of --matrix FILE or --from DIR is required");
  OBSCORR_REQUIRE(from.has_value() || !in.cli.has("snapshot"),
                  "prefixes: --snapshot needs --from DIR");
  const auto snapshot = static_cast<std::size_t>(in.cli.get_int("snapshot", 0));
  const int length = int_flag(in.cli, "length", 16);

  core::PrefixAnalysis analysis;
  if (from.has_value()) {
    // Zero-copy: the span overload aggregates straight over the mapped
    // archive entry.
    const archive::StudyReader reader(*from);
    const auto src = reader.sources(snapshot);
    analysis = core::analyze_prefixes(src.ids, src.counts, length);
  } else {
    analysis = core::analyze_prefixes(archive::read_matrix_file(*path).reduce_rows(), length);
  }
  TextTable table("source concentration by /" + std::to_string(length) +
                  " prefix (anonymized ids; prefix structure is CryptoPAN-invariant)");
  table.set_header({"rank", "prefix bits", "sources", "packets"});
  for (std::size_t i = 0; i < analysis.buckets.size() && i < 15; ++i) {
    const auto& b = analysis.buckets[i];
    table.add_row({std::to_string(i + 1), std::to_string(b.prefix_bits), fmt_count(b.sources),
                   fmt_count_double(b.packets)});
  }
  table.print(out);
  out << "prefixes: " << fmt_count(analysis.buckets.size())
      << ", top-10 packet share: " << fmt_percent(analysis.top10_packet_share, 1)
      << ", source Gini: " << fmt_double(analysis.source_gini, 3) << '\n';
  return 0;
}

int cmd_correlate(const Invocation& in, std::ostream& out, std::ostream& err) {
  const auto from = in.cli.get("from");
  OBSCORR_REQUIRE(from.has_value(), "correlate: --from DIR is required (a completed archive)");
  const svc::CorrelateQuery query =
      svc::parse_correlate(svc::params_from_flags("correlate", in.cli));
  const auto json_path = in.cli.get("json");

  const archive::StudyReader reader(*from);
  const svc::CorrelateFrame frame = svc::resolve_correlate(query, reader);
  // Each window is reduced once: the ranking and the --events replay
  // read the same samples.
  ThreadPool pool(in.threads);
  const std::vector<analysis::WindowSample> samples =
      analysis::sample_all(reader, frame.domain, pool);
  const std::vector<analysis::MetricScore> ranked = analysis::rank_series(
      analysis::SeriesStore(samples), frame.baseline, frame.highlight, query.method);
  out << "archive: " << *from << " (" << frame.count << " " << frame.domain_name << ")\n";
  svc::render_correlate(ranked, query.method, frame.baseline, frame.highlight, query.top, out);

  if (in.cli.has("events")) {
    // Replay the same windows through the streaming detectors and print
    // the anomaly stream a live `watch` subscriber would have seen.
    analysis::Monitor monitor;
    const std::vector<analysis::AnomalyEvent> fired =
        monitor.prime(reader, frame.domain, samples);
    out << "\nanomaly events (" << fired.size() << "):\n";
    for (const analysis::AnomalyEvent& ev : fired) out << analysis::event_json(ev) << '\n';
  }

  if (json_path.has_value()) {
    write_file(*json_path, "correlate: cannot write " + *json_path, [&](std::ostream& os) {
      os << svc::dump_json(
                svc::correlate_json(ranked, query.method, frame.baseline, frame.highlight))
         << '\n';
    });
    err << "wrote ranked correlations to " << *json_path << '\n';
  }
  return 0;
}

int cmd_archive(const Invocation& in, std::ostream& /*out*/, std::ostream& err) {
  const auto dir = in.cli.get("out");
  OBSCORR_REQUIRE(dir.has_value(), "archive: --out DIR is required");

  // SIGINT/SIGTERM during a long campaign stops between archive entries:
  // every finished snapshot/month is already flushed to the entry log, so
  // re-running the same command resumes where the signal landed.
  interrupt::install_handlers();
  ThreadPool pool(in.threads);
  const auto stats = archive::archive_study(in.scenario(), *dir, pool);
  if (stats.interrupted) {
    err << "interrupted: every completed snapshot/month is flushed to " << *dir << '\n'
        << "re-run the same command to resume\n";
    return 130;
  }
  if (stats.already_complete) {
    err << "archive already complete at " << *dir << '\n';
    return 0;
  }
  err << "archived " << stats.snapshots_total << " snapshots ("
      << stats.snapshots_reused << " resumed) and " << stats.months_total << " months ("
      << stats.months_reused << " resumed) to " << *dir << '\n'
      << "query it with --from " << *dir << '\n';
  return 0;
}

int cmd_archive_compact(const Invocation& in, std::ostream& out, std::ostream& err) {
  const auto dir = in.cli.get("dir");
  OBSCORR_REQUIRE(dir.has_value(), "archive compact: --dir DIR is required");
  const std::int64_t keep = in.cli.get_int("keep-recent", 8);
  OBSCORR_REQUIRE(keep >= 0, "archive compact: --keep-recent must be >= 0");
  archive::CompactOptions opts;
  opts.keep_recent = static_cast<std::size_t>(keep);
  opts.compress_all = in.cli.has("all");

  ThreadPool pool(in.threads);
  const archive::CompactStats stats = archive::compact_archive(*dir, opts, pool);
  if (in.cli.has("stats")) {
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
  return 0;
}

int cmd_serve(const Invocation& in, std::ostream& /*out*/, std::ostream& err) {
  const CliArgs& cli = in.cli;
  const auto from = cli.get("from");
  OBSCORR_REQUIRE(from.has_value(), "serve: --from DIR is required (a completed archive)");

  svc::ServerConfig scfg;
  scfg.unix_path = cli.get_or("unix", "");
  scfg.host = cli.get_or("host", "127.0.0.1");
  const std::int64_t port = cli.get_int("port", 0);
  OBSCORR_REQUIRE(port >= 0 && port <= 65535, "serve: --port must be in 0..65535");
  OBSCORR_REQUIRE(scfg.unix_path.empty() == cli.has("port"),
                  "serve: exactly one of --unix PATH or --port N (0 = ephemeral) is required");
  scfg.port = static_cast<int>(port);
  const std::int64_t max_conns = cli.get_int("max-conns", 256);
  OBSCORR_REQUIRE(max_conns >= 1, "serve: --max-conns must be >= 1");
  scfg.max_connections = static_cast<std::size_t>(max_conns);
  // A zero or negative deadline would reap every connection before its
  // first request; a non-finite one would never fire.
  const auto seconds = [&](const std::string& flag, double fallback) {
    const double s = cli.get_double(flag, fallback);
    OBSCORR_REQUIRE(std::isfinite(s) && s > 0.0, "serve: --" + flag + " must be finite and > 0");
    return s;
  };
  scfg.request_timeout_sec = seconds("request-timeout", 10.0);
  scfg.idle_timeout_sec = seconds("idle-timeout", 300.0);
  scfg.drain_timeout_sec = cli.get_double("drain-timeout", 10.0);
  OBSCORR_REQUIRE(std::isfinite(scfg.drain_timeout_sec) && scfg.drain_timeout_sec >= 0.0,
                  "serve: --drain-timeout must be finite and >= 0");
  if (in.telemetry.metrics_out.has_value()) scfg.metrics_out = *in.telemetry.metrics_out;
  scfg.metrics_format = in.telemetry.metrics_format;
  scfg.metrics_interval_sec = seconds("metrics-interval", 1.0);

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
  } else {
    OBSCORR_REQUIRE(!cli.has("surge-len") && !cli.has("surge-factor"),
                    "serve: --surge-len and --surge-factor need --surge-start W");
  }

  // The daemon always runs with the counter registry armed: the svc.*
  // counters and the `metrics` query are part of the service surface,
  // not an opt-in diagnostic. Telemetry flags still arm full spans.
  const bool armed_here = !in.telemetry.active();
  if (armed_here) obs::set_level(obs::Level::kCounters);

  interrupt::reset();
  interrupt::install_handlers();

  int rc = 0;
  {
    ThreadPool pool(in.threads);
    // The engine reduces the archive's live windows as it opens, and the
    // monitor primes from those samples, both before the listener exists:
    // no request waits on start-up work.
    svc::QueryEngine engine(*from, pool);

    // The anomaly monitor rides the ingest thread: primed here (before
    // the thread exists) over the windows already in the archive, then
    // fed exclusively from on_publish with the sample the engine was
    // handed. Events are pushed to `watch` subscribers and appended to
    // the archive's NDJSON sidecar.
    analysis::MonitorConfig mcfg;
    mcfg.event_log_path = *from + "/anomalies.ndjson";
    analysis::Monitor monitor(mcfg);
    const auto primed = engine.prime(monitor);

    svc::Server server(scfg, engine, pool);
    server.bind();
    err << "listening on " << server.endpoint() << " (archive " << *from << ", "
        << engine.window_count() << " live windows)\n"
        << "monitor: primed over " << monitor.detectors().observed() << " windows ("
        << primed.size() << " historical anomalies)\n";
    err.flush();
    icfg.on_publish = [&server, &monitor, &err](const svc::PublishedWindow& pw) {
      const auto events =
          monitor.observe_window(pw.meta.window, pw.sample, pw.sources.values());
      if (!monitor.log_error().empty()) err << "error: " << monitor.log_error() << '\n';
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
    if (in.telemetry.timing) {
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
  if (armed_here) obs::set_level(obs::Level::kOff);
  return rc;
}

/// Every subcommand, in usage() order.
const Command kCommands[] = {
    {"generate", 18, cmd_generate,
     "write one constant-packet capture window to a trace file\n"
     "                --out FILE [--log2-nv K=18] [--seed S] [--month-index M=0]\n"},
    {"capture", 18, cmd_capture,
     "replay a trace through the telescope into an archived matrix\n"
     "                --trace FILE --out FILE [--log2-nv K=18] [--seed S]\n"},
    {"quantities", 0, cmd_quantities,
     "print every Table II network quantity of an archived matrix\n"
     "                --matrix FILE\n"},
    {"degrees", 0, cmd_degrees,
     "source-packet distribution + Zipf-Mandelbrot and power-law fits\n"
     "                --matrix FILE | --from DIR [--snapshot K=0] [--window W]\n"},
    {"study", 16, cmd_study,
     "run the full 15-month campaign and print the headline results\n"
     "                [--log2-nv K=16] [--seed S] | --from DIR\n"},
    {"lookup", 16, cmd_lookup,
     "query the honeyfarm database for a source profile\n"
     "                --ip A.B.C.D [--log2-nv K=16] [--seed S] [--from DIR]\n"},
    {"scaling", 18, cmd_scaling,
     "window-size scaling ladder (sources ~ sqrt(N_V))\n"
     "                [--log2-nv K=18] [--seed S] [--from DIR]\n"},
    {"report", 16, cmd_report,
     "regenerate every table/figure as CSV + REPORT.md in a directory\n"
     "                --out DIR [--log2-nv K=16] [--seed S] [--from DIR]\n"},
    {"prefixes", 0, cmd_prefixes,
     "prefix-level concentration of an archived matrix's sources\n"
     "                --matrix FILE | --from DIR [--snapshot K=0]  [--length L=16]\n"},
    {"correlate", 0, cmd_correlate,
     "rank every window metric by baseline-vs-highlight change\n"
     "              (netdata-style metric correlations; docs/observability.md)\n"
     "                --from DIR [--domain windows|snapshots] [--method ks2|volume]\n"
     "                [--baseline A:B] [--highlight A:B] [--top N=10, 0 = all]\n"
     "                [--json FILE] [--events]\n"},
    {"archive", 16, cmd_archive,
     "run the full campaign and persist it as a study archive\n"
     "                --out DIR [--log2-nv K=16] [--seed S]\n"},
    {"archive compact", 0, cmd_archive_compact,
     "rewrite an archive with old windows block-compressed\n"
     "              (recent windows stay raw for zero-copy reads); reads stay\n"
     "              byte-identical, typically >=3x smaller (docs/archive.md)\n"
     "                --dir DIR [--keep-recent N=8] [--all] [--stats]\n"},
    {"serve", 0, cmd_serve,
     "resident daemon over an archive: NDJSON query API + live ingest\n"
     "                --from DIR (--unix PATH | --port N, 0 = ephemeral) [--host H]\n"
     "                [--max-conns C=256] [--ingest-windows W=-1, 0 disables]\n"
     "                [--window-packets P=65536] [--packet-rate R=1e6]\n"
     "                [--request-timeout S=10] [--idle-timeout S=300]\n"
     "                [--drain-timeout S=10] [--metrics-interval S=1]\n"
     "                [--surge-start W] [--surge-len N=1] [--surge-factor F=4]\n"
     "              (the surge flags inject a deterministic traffic anomaly for\n"
     "              smoke-testing the detectors; anomaly events stream to `watch`\n"
     "              subscribers and to DIR/anomalies.ndjson)\n"},
};

/// Parse and check `args` for `cmd`, apply the shared plumbing, run the
/// body, and export telemetry once whichever way the body returns.
int drive(const Command& cmd, const std::vector<std::string>& args, std::ostream& out,
          std::ostream& err) {
  // A command accepts the flags every command shares plus exactly the
  // `--name` tokens of its help text, so help cannot miss a flag the
  // parser takes. A token closed by `]` (`[--all]`) is a switch.
  std::vector<std::string> names = {"threads",     "cache-bytes",    "timing",
                                    "metrics-out", "metrics-format", "trace-out"};
  std::vector<std::string> switches = {"timing"};
  const std::string_view help = cmd.help;
  for (std::size_t at = help.find("--"); at != std::string_view::npos; at = help.find("--", at)) {
    at += 2;
    const std::size_t end =
        std::min(help.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789-", at), help.size());
    names.emplace_back(help.substr(at, end - at));
    if (end < help.size() && help[end] == ']') switches.push_back(names.back());
    at = end;
  }
  const CliArgs cli = CliArgs::parse(args, switches);
  for (const std::string& name : names) (void)cli.has(name);
  const std::vector<std::string> stray = cli.unused();
  if (!stray.empty()) throw std::invalid_argument(svc::unknown_parameter(cmd.name, stray.front()));

  // Decoded-page cache budget: --cache-bytes N beats OBSCORR_CACHE_BYTES
  // beats 256 MiB; 0 disables. Set before any StudyReader is built.
  if (cli.has("cache-bytes")) {
    const std::int64_t bytes = cli.get_int("cache-bytes", -1);
    OBSCORR_REQUIRE(bytes >= 0, "--cache-bytes must be a non-negative byte count");
    archive::set_cache_bytes(static_cast<std::uint64_t>(bytes));
  }
  const Telemetry telemetry{cli.has("timing"), cli.get("metrics-out"),
                            cli.get_or("metrics-format", "json"), cli.get("trace-out")};
  OBSCORR_REQUIRE(telemetry.metrics_format == "json" || telemetry.metrics_format == "prom",
                  "--metrics-format must be json or prom");
  const Invocation in{cli,
                      static_cast<std::size_t>(resolve_thread_count(int_flag(cli, "threads", 0))),
                      int_flag(cli, "log2-nv", cmd.log2_nv),
                      static_cast<std::uint64_t>(cli.get_int("seed", 42)), telemetry};
  if (telemetry.active()) {
    obs::reset();
    obs::set_level(obs::Level::kFull);
  }
  const int rc = cmd.body(in, out, err);
  export_telemetry(telemetry, err);
  return rc;
}

}  // namespace

std::string usage() {
  std::string text =
      "obscorr — Internet observatory/outpost correlation toolkit\n\n"
      "usage: obscorr <command> [options]\n\n"
      "commands:\n";
  for (const Command& cmd : kCommands) {
    text += "  ";
    text += cmd.name;
    // A name too wide for its column gets a line of its own.
    text += cmd.name.size() <= 10 ? std::string(12 - cmd.name.size(), ' ') : "\n              ";
    text += cmd.help;
  }
  text += R"(  help        this text

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
CryptoPAN runs AES-NI where cpuid reports it; OBSCORR_SIMD=scalar keeps the
byte-wise cipher — outputs are byte-identical either way (docs/performance.md
"The AES-NI cipher").
compressed archive entries decode through an LRU page cache; every command
accepts --cache-bytes N (default: OBSCORR_CACHE_BYTES, then 256 MiB; 0
disables) — results are byte-identical at any budget (docs/archive.md).
every command also accepts the telemetry flags (docs/observability.md):
  --timing            per-phase timing summary + per-window rates on stderr
  --metrics-out FILE  counter/gauge/span metrics (obscorr.metrics.v1 JSON)
  --metrics-format F  json (default) or prom (Prometheus/OpenMetrics text)
  --trace-out FILE    Chrome trace-event JSON (chrome://tracing, Perfetto)
telemetry never touches stdout and never changes any result byte.
)";
  return text;
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
  // `archive compact` is the one two-word command name.
  const bool compact = args.size() > 1 && args[0] == "archive" && args[1] == "compact";
  const std::string name = compact ? "archive compact" : args[0];
  const auto cmd = std::find_if(std::begin(kCommands), std::end(kCommands),
                                [&](const Command& c) { return c.name == name; });
  if (cmd == std::end(kCommands)) {
    err << "error: unknown command '" << args.front() << "'\n\n" << usage();
    return 2;
  }
  try {
    const int code = drive(*cmd, {args.begin() + (compact ? 2 : 1), args.end()}, out, err);
    // A result that never reached stdout (a full disk) is a failure.
    OBSCORR_REQUIRE(out.flush(), "cannot write standard output");
    return code;
  } catch (const std::invalid_argument& e) {
    obs::set_level(obs::Level::kOff);  // a failed command must not leave tracing armed
    err << "error: " << e.what() << '\n';
    return 2;
  }
}

}  // namespace obscorr::tools
