/// Cross-observatory correlation: the paper's headline analysis as a
/// compact program. Runs the full 15-month campaign (telescope +
/// honeyfarm over one synthetic Internet), then answers three questions:
///
///  1. What fraction of telescope sources does the outpost also see the
///     same month, by brightness?                         (Fig. 4)
///  2. How does that overlap decay as the time between the observations
///     grows, and which model describes it?               (Figs. 5-8)
///  3. What does the outpost's enrichment metadata say about the
///     brightest telescope sources?                        (D4M joins)
///
///   $ ./cross_observatory [log2_nv]   (default 18)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "core/correlation.hpp"
#include "core/study.hpp"
#include "honeyfarm/database.hpp"

int main(int argc, char** argv) {
  using namespace obscorr;
  const int log2_nv = argc > 1 ? std::stoi(argv[1]) : 18;

  ThreadPool pool;
  std::printf("running the 15-month campaign at N_V = 2^%d ...\n", log2_nv);
  const auto study = core::run_study(netgen::Scenario::paper(log2_nv, 7), pool);

  // 1. Same-month overlap by brightness.
  TextTable peak("same-month overlap by brightness (all snapshots pooled)");
  peak.set_header({"d bin", "sources", "fraction seen", "log-law"});
  for (const auto& b : core::peak_correlation_all(study)) {
    if (b.caida_sources < 50) continue;
    peak.add_row({"2^" + std::to_string(b.bin), fmt_count(b.caida_sources),
                  fmt_percent(b.fraction, 1), fmt_percent(b.model, 1)});
  }
  peak.print(std::cout);

  // 2. Temporal decay for a mid-bright bin + model comparison.
  const int bin = static_cast<int>(study.half_log_nv()) - 2;
  const auto curve = core::temporal_correlation(study.snapshots[0], study, bin, 10);
  if (curve) {
    std::printf("\ntemporal decay of %s sources with d in [2^%d, 2^%d):\n",
                study.snapshots[0].spec.start_label.c_str(), bin, bin + 1);
    for (std::size_t i = 0; i < curve->series.dt.size(); ++i) {
      const int bar = static_cast<int>(curve->series.fraction[i] * 50);
      std::printf("  dt=%+3.0f  %.3f  %s\n", curve->series.dt[i], curve->series.fraction[i],
                  std::string(static_cast<std::size_t>(bar), '#').c_str());
    }
    std::printf("best model: beta/(beta+|dt|^alpha) with alpha=%.2f beta=%.2f -> one-month drop %s\n",
                curve->modified_cauchy.model.alpha, curve->modified_cauchy.model.beta,
                fmt_percent(curve->modified_cauchy.model.one_month_drop(), 1).c_str());
  }

  // 3. D4M join: enrichment of the snapshot's brightest sources in the
  //    coeval honeyfarm month (the "what is this scanner" question). A
  //    one-month database's lookup labels each facet with the first
  //    column, in key order, that holds a positive value for the source.
  const auto& snap = study.snapshots[0];
  const d4m::AssocArray& packets = snap.sources;  // one "packets" column
  std::vector<std::pair<double, std::string>> ranked;
  for (std::size_t r = 0; r < packets.row_keys().size(); ++r) {
    ranked.emplace_back(packets.values()[packets.row_ptr()[r]], packets.row_keys()[r]);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  const honeyfarm::Database coeval(std::vector<honeyfarm::MonthlyObservation>{
      study.months[static_cast<std::size_t>(snap.month_index)]});

  TextTable enrich("\nbrightest telescope sources, enriched by the outpost");
  enrich.set_header({"source", "telescope packets", "classification", "intent", "contacts"});
  const auto facet = [](const std::string& label) {
    return label.empty() ? std::string("(not seen)") : label;
  };
  for (std::size_t r = 0; r < 8 && r < ranked.size(); ++r) {
    const std::string& ip = ranked[r].second;
    const auto profile = coeval.lookup(ip).value_or(honeyfarm::SourceProfile{});
    enrich.add_row({ip, fmt_count(static_cast<std::uint64_t>(ranked[r].first)),
                    facet(profile.classification), facet(profile.intent),
                    fmt_count(static_cast<std::uint64_t>(profile.peak_contacts))});
  }
  enrich.print(std::cout);
  return 0;
}
