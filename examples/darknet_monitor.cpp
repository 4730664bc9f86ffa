/// Darknet monitor: the telescope-side workflow the paper's intro
/// motivates — stream Internet background radiation into constant-packet
/// GraphBLAS windows, watch the heavy-tail statistics stabilize, rank
/// the brightest sources, and fit the Zipf–Mandelbrot model live.
///
///   $ ./darknet_monitor [log2_nv]   (default 18)

#include <cstdio>
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/study.hpp"
#include "netgen/scenario.hpp"
#include "netgen/traffic.hpp"
#include "stats/histogram.hpp"
#include "stats/zipf.hpp"
#include "telescope/telescope.hpp"

int main(int argc, char** argv) {
  using namespace obscorr;
  const int log2_nv = argc > 1 ? std::stoi(argv[1]) : 18;

  const auto scenario = netgen::Scenario::paper(log2_nv, 2024);
  ThreadPool pool;
  const netgen::Population population(scenario.population);
  const netgen::TrafficGenerator generator(population, scenario.traffic);

  telescope::Telescope scope(core::scope_config_for(scenario), pool);

  std::printf("monitoring darkspace %s, window N_V = 2^%d packets\n",
              scope.config().darkspace.to_string().c_str(), log2_nv);

  // Take three consecutive constant-packet windows in the same month and
  // watch the distribution stay put while individual sources churn.
  stats::ZipfFit last_fit;
  for (std::uint64_t window = 0; window < 3; ++window) {
    generator.stream_window_batched(/*month=*/0, scenario.nv(), /*salt=*/window + 1,
                                    [&](std::span<const Packet> b) { scope.capture_block(b); });
    const gbl::DcsrMatrix matrix = scope.finish_window();
    const gbl::SparseVec sources = matrix.reduce_rows();
    const auto hist = stats::LogHistogram::from_sparse_vec(sources);
    const auto fit = stats::fit_zipf_mandelbrot(hist);

    std::printf("\n== window %llu: %s unique sources, d_max=%s, filtered %s non-valid\n",
                static_cast<unsigned long long>(window + 1),
                fmt_count(sources.nnz()).c_str(), fmt_count(hist.max_degree()).c_str(),
                fmt_count(scope.discarded_packets()).c_str());
    std::printf("   Zipf-Mandelbrot: alpha=%.2f delta=%.1f (residual %.3f)\n", fit.model.alpha,
                fit.model.delta, fit.residual);

    // Brightest sources, deanonymized through the operator's dictionary.
    TextTable top("top sources this window");
    top.set_header({"rank", "source", "packets", "share"});
    std::vector<std::pair<double, gbl::Index>> ranked;
    const auto idx = sources.indices();
    const auto val = sources.values();
    for (std::size_t i = 0; i < sources.nnz(); ++i) ranked.emplace_back(val[i], idx[i]);
    std::sort(ranked.rbegin(), ranked.rend());
    for (std::size_t r = 0; r < 5 && r < ranked.size(); ++r) {
      top.add_row({std::to_string(r + 1), scope.deanonymize(Ipv4(ranked[r].second)).to_string(),
                   fmt_count(static_cast<std::uint64_t>(ranked[r].first)),
                   fmt_percent(ranked[r].first / static_cast<double>(scenario.nv()), 2)});
    }
    top.print(std::cout);
    last_fit = fit;
  }

  std::printf("\nmodel for prediction: p(d) ~ 1/(d + %.1f)^%.2f\n", last_fit.model.delta,
              last_fit.model.alpha);
  return 0;
}
