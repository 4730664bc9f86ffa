#include "svc/render.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/table.hpp"
#include "core/correlation.hpp"
#include "stats/histogram.hpp"
#include "stats/powerlaw.hpp"
#include "stats/zipf.hpp"

namespace obscorr::svc {

void render_degrees(const gbl::SparseVec& sources, std::ostream& out) {
  const auto hist = stats::LogHistogram::from_sparse_vec(sources);
  OBSCORR_REQUIRE(hist.total() > 0, "degrees: matrix has no sources");
  const auto dcp = hist.differential_cumulative();

  TextTable table("source-packet differential cumulative probability");
  table.set_header({"d bin", "sources", "D(d)"});
  for (int b = 0; b < hist.bin_count(); ++b) {
    table.add_row({"2^" + std::to_string(b), fmt_count(hist.count(b)),
                   fmt_sci(dcp[static_cast<std::size_t>(b)], 3)});
  }
  table.print(out);

  const auto zm = stats::fit_zipf_mandelbrot(hist);
  out << "\nZipf-Mandelbrot: p(d) ~ 1/(d + " << fmt_double(zm.model.delta, 2) << ")^"
      << fmt_double(zm.model.alpha, 3) << "  (| |^(1/2) residual " << fmt_double(zm.residual, 3)
      << ")\n";
  const std::vector<double> degrees(sources.values().begin(), sources.values().end());
  const auto pl = stats::fit_power_law(degrees, 25);
  out << "power-law MLE:   alpha=" << fmt_double(pl.alpha, 3) << " for d >= " << pl.d_min
      << "  (KS " << fmt_double(pl.ks, 4) << ", tail n=" << fmt_count(pl.tail_count) << ")\n";
}

void render_study(const core::StudyData& study, std::ostream& out) {
  TextTable inventory("campaign inventory (Table I shape)");
  inventory.set_header({"month", "GreyNoise sources", "CAIDA snapshot", "CAIDA sources"});
  for (std::size_t m = 0; m < study.months.size(); ++m) {
    std::string snap_label, snap_sources;
    for (const auto& snap : study.snapshots) {
      if (snap.month_index == static_cast<int>(m)) {
        snap_label = snap.spec.start_label;
        snap_sources = fmt_count(snap.sources.row_keys().size());
      }
    }
    inventory.add_row({study.months[m].month.to_string(),
                       fmt_count(study.months[m].total_sources()), snap_label, snap_sources});
  }
  inventory.print(out);

  out << "\nsame-month overlap by brightness (Fig. 4 shape):\n";
  for (const auto& b : core::peak_correlation_all(study)) {
    if (b.caida_sources < 50) continue;
    out << "  d in [2^" << b.bin << ",2^" << b.bin + 1 << "): " << fmt_percent(b.fraction, 1)
        << " seen (log-law " << fmt_percent(b.model, 1) << ")\n";
  }

  const int bin = static_cast<int>(study.half_log_nv()) - 2;
  const auto curve = core::temporal_correlation(study.snapshots[0], study, bin, 10);
  if (curve) {
    out << "\ntemporal fit for d in [2^" << bin << ",2^" << bin + 1
        << "): modified Cauchy alpha=" << fmt_double(curve->modified_cauchy.model.alpha, 2)
        << " beta=" << fmt_double(curve->modified_cauchy.model.beta, 2) << " (one-month drop "
        << fmt_percent(curve->modified_cauchy.model.one_month_drop(), 1) << ")\n";
  }
}

void render_lookup(const honeyfarm::Database& db, const std::string& ip, std::ostream& out) {
  out << "database: " << fmt_count(db.distinct_sources()) << " distinct sources over "
      << db.month_count() << " months\n";

  const auto profile = db.lookup(ip);
  if (!profile) {
    out << ip << ": never observed\n";
    return;
  }
  out << profile->ip << ": seen in " << profile->months_seen << " months ("
      << profile->first_seen->to_string() << " .. " << profile->last_seen->to_string()
      << "), classification=" << profile->classification
      << (profile->intent.empty() ? "" : ", intent=" + profile->intent)
      << ", peak contacts=" << fmt_count_double(profile->peak_contacts)
      << '\n';
}

void render_scaling(const core::ScalingAnalysis& analysis, std::ostream& out) {
  TextTable table("window-size scaling");
  table.set_header({"N_V", "unique sources", "sources/sqrt(N_V)"});
  for (const auto& p : analysis.points) {
    table.add_row({"2^" + std::to_string(p.log2_nv), fmt_count(p.unique_sources),
                   fmt_double(static_cast<double>(p.unique_sources) /
                                  std::exp2(static_cast<double>(p.log2_nv) / 2.0), 1)});
  }
  table.print(out);
  out << "fitted source exponent: " << fmt_double(analysis.source_exponent, 3)
      << "  (paper: ~0.5)\n";
}

namespace {

std::string range_text(analysis::WindowRange r) {
  return std::to_string(r.first) + ":" + std::to_string(r.last);
}

}  // namespace

void render_correlate(const std::vector<analysis::MetricScore>& ranked,
                      analysis::Method method, analysis::WindowRange baseline,
                      analysis::WindowRange highlight, std::size_t top, std::ostream& out) {
  out << "metric correlations (" << analysis::method_name(method) << "), baseline "
      << range_text(baseline) << " vs highlight " << range_text(highlight) << ":\n";
  TextTable table("ranked by change score");
  table.set_header({"#", "metric", "score", "KS", "p", "base mean", "high mean", "volume"});
  const std::size_t limit =
      top == 0 ? ranked.size() : std::min<std::size_t>(top, ranked.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const analysis::MetricScore& ms = ranked[i];
    table.add_row({std::to_string(i + 1), ms.name, fmt_double(ms.score, 4),
                   fmt_double(ms.ks_statistic, 4), fmt_sci(ms.ks_p, 3),
                   fmt_double(ms.baseline_mean, 3), fmt_double(ms.highlight_mean, 3),
                   fmt_double(ms.volume, 4)});
  }
  table.print(out);
  if (limit < ranked.size()) {
    out << "(" << ranked.size() - limit << " lower-scoring metrics not shown)\n";
  }
}

JsonValue correlate_json(const std::vector<analysis::MetricScore>& ranked,
                         analysis::Method method, analysis::WindowRange baseline,
                         analysis::WindowRange highlight) {
  JsonValue result = JsonValue::object();
  result.set("method", JsonValue::string(analysis::method_name(method)));
  JsonValue b = JsonValue::object();
  b.set("first", JsonValue::number(static_cast<std::uint64_t>(baseline.first)));
  b.set("last", JsonValue::number(static_cast<std::uint64_t>(baseline.last)));
  result.set("baseline", std::move(b));
  JsonValue h = JsonValue::object();
  h.set("first", JsonValue::number(static_cast<std::uint64_t>(highlight.first)));
  h.set("last", JsonValue::number(static_cast<std::uint64_t>(highlight.last)));
  result.set("highlight", std::move(h));
  JsonValue list = JsonValue::array();
  for (const analysis::MetricScore& ms : ranked) {
    JsonValue row = JsonValue::object();
    row.set("metric", JsonValue::string(ms.name));
    row.set("score", JsonValue::number(ms.score));
    row.set("ks_statistic", JsonValue::number(ms.ks_statistic));
    row.set("ks_p", JsonValue::number(ms.ks_p));
    row.set("baseline_mean", JsonValue::number(ms.baseline_mean));
    row.set("highlight_mean", JsonValue::number(ms.highlight_mean));
    row.set("volume", JsonValue::number(ms.volume));
    list.push_back(std::move(row));
  }
  result.set("ranked", std::move(list));
  return result;
}

}  // namespace obscorr::svc
