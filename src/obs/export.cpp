#include "obs/export.hpp"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>

#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace obscorr::obs {

namespace {

/// JSON string escaping for detail labels (names are controlled
/// literals, but details may carry arbitrary text).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream hex;
          hex << "\\u" << std::hex << std::setw(4) << std::setfill('0') << static_cast<int>(c);
          out += hex.str();
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Microseconds with sub-µs precision, as Chrome's trace viewer expects.
std::string us_text(std::uint64_t ns) {
  std::ostringstream os;
  os << ns / 1000 << '.' << std::setw(3) << std::setfill('0') << ns % 1000;
  return os.str();
}

std::string seconds_text(std::uint64_t ns, int precision = 3) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision)
     << static_cast<double>(ns) / 1e9;
  return os.str();
}

}  // namespace

void write_chrome_trace(std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
     << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"obscorr\"}}";
  for (const SpanEvent& e : span_events()) {
    os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid << ",\"cat\":\"obscorr\",\"name\":\""
       << json_escape(e.name) << "\",\"ts\":" << us_text(e.start_ns)
       << ",\"dur\":" << us_text(e.dur_ns);
    if (!e.detail.empty()) {
      os << ",\"args\":{\"detail\":\"" << json_escape(e.detail) << "\"}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

void write_metrics_json(std::ostream& os) {
  os << "{\n  \"schema\": \"obscorr.metrics.v1\",\n  \"counters\": {";
  bool first = true;
  for (const MetricSample& c : counters_snapshot()) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(c.name) << "\": " << c.value;
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const MetricSample& g : gauges_snapshot()) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(g.name) << "\": " << g.value;
    first = false;
  }
  os << "\n  },\n  \"spans\": {";
  first = true;
  for (const SpanAggregate& a : aggregate_spans()) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(a.name)
       << "\": {\"count\": " << a.count << ", \"total_ns\": " << a.total_ns
       << ", \"min_ns\": " << a.min_ns << ", \"max_ns\": " << a.max_ns << "}";
    first = false;
  }
  os << "\n  },\n  \"dropped_span_events\": " << dropped_span_events() << "\n}\n";
}

namespace {

/// `svc.bytes_in` → `obscorr_svc_bytes_in`. Catalogue names are
/// [a-z0-9._]-only so dots→underscores is the whole mapping.
std::string prom_name(const std::string& name) {
  std::string out = "obscorr_";
  out.reserve(out.size() + name.size());
  for (const char c : name) out += (c == '.') ? '_' : c;
  return out;
}

}  // namespace

void write_metrics_prometheus(std::ostream& os) {
  for (const MetricSample& c : counters_snapshot()) {
    const std::string n = prom_name(c.name);
    os << "# TYPE " << n << " counter\n" << n << "_total " << c.value << '\n';
  }
  for (const MetricSample& g : gauges_snapshot()) {
    const std::string n = prom_name(g.name);
    os << "# TYPE " << n << " gauge\n" << n << ' ' << g.value << '\n';
  }
  for (const SpanAggregate& a : aggregate_spans()) {
    const std::string n = prom_name(std::string("span.") + a.name);
    os << "# TYPE " << n << " summary\n"
       << n << "_count " << a.count << '\n'
       << n << "_seconds_sum " << seconds_text(a.total_ns, 9) << '\n';
  }
  {
    const std::string n = prom_name("dropped_span_events");
    os << "# TYPE " << n << " counter\n" << n << "_total " << dropped_span_events() << '\n';
  }
  os << "# EOF\n";
}

bool write_metrics_file(const std::string& path, std::string_view format) {
  const auto write_to = [format](const std::string& target) {
    std::ofstream os(target, std::ios::trunc);
    if (!os.is_open()) return false;
    if (format == "prom") {
      write_metrics_prometheus(os);
    } else {
      write_metrics_json(os);
    }
    os.close();
    return !os.fail();
  };
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::file_type type = fs::symlink_status(path, ec).type();
  if (type != fs::file_type::not_found && type != fs::file_type::regular) return write_to(path);
  const std::string tmp = path + ".tmp";
  if (!write_to(tmp)) {
    fs::remove(tmp, ec);
    return false;
  }
  fs::rename(tmp, path, ec);
  return !ec;
}

void write_timing_summary(std::ostream& os) {
  os << "-- telemetry timing summary --\n";
  const std::vector<SpanAggregate> spans = aggregate_spans();
  if (!spans.empty()) {
    os << "spans (count, total s, min s, max s):\n";
    for (const SpanAggregate& a : spans) {
      os << "  " << a.name << ": " << a.count << ", " << seconds_text(a.total_ns) << ", "
         << seconds_text(a.min_ns) << ", " << seconds_text(a.max_ns) << '\n';
    }
  }
  os << "counters (non-zero):\n";
  for (const MetricSample& c : counters_snapshot()) {
    if (c.value != 0) os << "  " << c.name << ": " << c.value << '\n';
  }
  for (const MetricSample& g : gauges_snapshot()) {
    if (g.value != 0) os << "  " << g.name << " (gauge): " << g.value << '\n';
  }
  const std::uint64_t dropped = dropped_span_events();
  if (dropped != 0) os << "dropped span events: " << dropped << '\n';
}

}  // namespace obscorr::obs
