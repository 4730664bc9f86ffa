#pragma once
/// \file export.hpp
/// Telemetry exporters: Chrome trace-event JSON (`chrome://tracing` /
/// Perfetto), a structured metrics document, and a human timing summary.
///
/// None of these ever write to stdout — the CLI routes them to files or
/// stderr so data output stays machine-parseable. The metrics document
/// has a stable schema (`obscorr.metrics.v1`): the counter/gauge key
/// sets are the canonical catalogue (golden-tested), span aggregates are
/// keyed by canonical span name. Values carry wall-clock measurements
/// and are therefore run-dependent; the *keys* are not.

#include <iosfwd>
#include <string>
#include <string_view>

namespace obscorr::obs {

/// Chrome trace-event JSON: one complete ("ph":"X") event per recorded
/// span, microsecond timestamps relative to the telemetry epoch. Load
/// the file in chrome://tracing or https://ui.perfetto.dev.
void write_chrome_trace(std::ostream& os);

/// The structured metrics document:
///   { "schema": "obscorr.metrics.v1",
///     "counters": {name: u64, ...},        // full canonical catalogue
///     "gauges":   {name: u64, ...},
///     "spans":    {name: {"count","total_ns","min_ns","max_ns"}, ...},
///     "dropped_span_events": u64 }
void write_metrics_json(std::ostream& os);

/// Prometheus/OpenMetrics text exposition of the same registry
/// (`--metrics-format prom`, svc `metrics` with format=prom). Metric
/// names are the catalogue names with dots mapped to underscores under
/// an `obscorr_` prefix; counters get the OpenMetrics `_total` suffix,
/// span aggregates become `_count` / `_seconds_sum` pairs. Ends with
/// `# EOF` per the OpenMetrics framing rules.
void write_metrics_prometheus(std::ostream& os);

/// Write the metrics in `format` ("prom" text, else JSON) to `path`;
/// false when any byte cannot be written. An absent path or a regular
/// file is replaced atomically (tmp + rename), and a failed write leaves
/// it untouched. Anything else (a symlink, a device) is written in place,
/// so the node itself survives. The CLI's exit export and the daemon's
/// periodic snapshots both write here.
bool write_metrics_file(const std::string& path, std::string_view format);

/// Human-readable summary (for `--timing` on stderr): span aggregates
/// and the non-zero counters.
void write_timing_summary(std::ostream& os);

}  // namespace obscorr::obs
