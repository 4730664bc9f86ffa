#include "core/study.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/interrupt.hpp"
#include "core/parallel_capture.hpp"
#include "d4m/gbl_bridge.hpp"
#include "netgen/traffic.hpp"
#include "obs/span.hpp"
#include "telescope/telescope.hpp"

namespace obscorr::core {

telescope::TelescopeConfig scope_config_for(const netgen::Scenario& scenario) {
  telescope::TelescopeConfig config;
  config.darkspace = scenario.traffic.darkspace;
  config.legit_prefixes = {scenario.traffic.legit_prefix};
  config.cryptopan_seed = scenario.population.seed ^ 0xCA1DAULL;
  return config;
}

namespace {

SnapshotData take_snapshot(const netgen::Scenario& scenario, const netgen::Population& population,
                           const netgen::CaidaSnapshotSpec& spec, telescope::Telescope& scope,
                           ThreadPool& pool) {
  const obs::Span span("study.snapshot", [&] { return spec.start_label; });
  SnapshotData snap;
  snap.spec = spec;
  snap.month_index = scenario.month_index(spec.month);
  snap.duration_sec = scenario.scaled_duration_sec(spec);

  const netgen::TrafficGenerator generator(population, scenario.traffic);
  const std::uint64_t before_discarded = scope.discarded_packets();
  snap.matrix =
      capture_window(scope, generator, snap.month_index, scenario.nv(), spec.salt, pool);
  snap.valid_packets = static_cast<std::uint64_t>(snap.matrix.reduce_sum());
  snap.discarded_packets = scope.discarded_packets() - before_discarded;
  OBSCORR_INVARIANT(snap.valid_packets == scenario.nv());

  snap.source_packets = snap.matrix.reduce_rows();

  // Trusted exchange (paper §I, sharing approach 1): the anonymized
  // source ids go back to the telescope operator for deanonymization,
  // producing the D4M associative array used for correlation.
  const auto ids = snap.source_packets.indices();
  std::vector<std::uint32_t> originals(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    originals[i] = scope.deanonymize(Ipv4(ids[i])).value();
  }
  snap.sources = d4m::from_addresses(originals, snap.source_packets.values(), "packets");
  return snap;
}

StudyData run_impl(const netgen::Scenario& scenario, ThreadPool& pool, bool with_honeyfarm) {
  const obs::Span span("study.run");
  OBSCORR_REQUIRE(!scenario.snapshots.empty(), "scenario needs at least one snapshot");
  StudyData study;
  study.scenario = scenario;
  study.population = std::make_shared<netgen::Population>(scenario.population);
  const netgen::Population& population = *study.population;

  const std::size_t n_snapshots = scenario.snapshots.size();
  const std::size_t n_months = with_honeyfarm ? scenario.months.size() : 0;
  study.snapshots.resize(n_snapshots);
  if (with_honeyfarm) study.months.resize(n_months);

  // Warm the activity chains up front: month m depends on month m-1, so
  // the lazy fill is inherently serial — doing it here keeps the pool
  // tasks from queueing on the population's activity mutex.
  int last_month = 0;
  for (const auto& spec : scenario.snapshots) {
    last_month = std::max(last_month, scenario.month_index(spec.month));
  }
  if (n_months > 0) last_month = std::max(last_month, static_cast<int>(n_months) - 1);
  (void)population.active(0, last_month);

  // Snapshots and honeyfarm months are independent observations of the
  // same (now read-only) world: run them as pool tasks into pre-sized
  // slots. Each chunk captures its snapshots through one Telescope —
  // CryptoPAN is a pure function of the key, so per-chunk instances
  // produce the very bytes the historical shared instance did, while
  // reuse within a chunk keeps the anonymization memo warm across
  // consecutive snapshots (on a 1-thread pool the single inline chunk
  // recovers the old one-scope-for-the-whole-study behavior exactly).
  parallel_for(pool, 0, n_snapshots + n_months, [&](std::size_t b, std::size_t e) {
    std::optional<telescope::Telescope> scope;
    for (std::size_t i = b; i < e; ++i) {
      // Cooperative stop between observations, never mid-frame: a
      // SIGINT/SIGTERM skips the remaining windows and run_impl throws a
      // clean diagnostic below instead of returning a partial study.
      if (interrupt::stop_requested()) continue;
      if (i < n_snapshots) {
        if (!scope) scope.emplace(scope_config_for(scenario), pool);
        study.snapshots[i] =
            take_snapshot(scenario, population, scenario.snapshots[i], *scope, pool);
      } else {
        const std::size_t m = i - n_snapshots;
        study.months[m] = run_month(scenario, population, m);
      }
    }
  });
  OBSCORR_REQUIRE(!interrupt::stop_requested(),
                  "study: interrupted — in-memory campaign discarded "
                  "(use `obscorr archive`, which checkpoints and resumes)");
  return study;
}

}  // namespace

StudyData run_study(const netgen::Scenario& scenario, ThreadPool& pool) {
  return run_impl(scenario, pool, /*with_honeyfarm=*/true);
}

StudyData run_telescope_only(const netgen::Scenario& scenario, ThreadPool& pool) {
  return run_impl(scenario, pool, /*with_honeyfarm=*/false);
}

SnapshotData run_snapshot(const netgen::Scenario& scenario, const netgen::Population& population,
                          std::size_t snapshot_index, ThreadPool& pool) {
  OBSCORR_REQUIRE(snapshot_index < scenario.snapshots.size(),
                  "run_snapshot: snapshot index out of range");
  telescope::Telescope scope(scope_config_for(scenario), pool);
  return take_snapshot(scenario, population, scenario.snapshots[snapshot_index], scope, pool);
}

honeyfarm::MonthlyObservation run_month(const netgen::Scenario& scenario,
                                        const netgen::Population& population,
                                        std::size_t month_index) {
  OBSCORR_REQUIRE(month_index < scenario.months.size(), "run_month: month index out of range");
  const obs::Span span("study.month", [&] { return std::to_string(month_index); });
  const honeyfarm::Honeyfarm farm(population, scenario.visibility,
                                  scenario.population.seed ^ 0x64E4015EULL);
  return farm.observe_month(scenario.months[month_index], static_cast<int>(month_index));
}

}  // namespace obscorr::core
