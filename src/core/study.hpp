#pragma once
/// \file study.hpp
/// The end-to-end study pipeline: run the scenario's full observation
/// campaign — 15 honeyfarm months and 5 telescope constant-packet
/// snapshots over one consistent synthetic Internet — and return
/// everything the paper's analyses (Figs. 3-8, Table I) consume.
///
/// Pipeline per snapshot, mirroring the paper §I-II:
///   packet stream -> validity filter -> CryptoPAN -> 2^17-packet
///   GraphBLAS blocks -> hierarchical sum -> hypersparse matrix ->
///   Table II reductions -> trusted deanonymization -> D4M assoc array.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "d4m/assoc.hpp"
#include "gbl/dcsr.hpp"
#include "gbl/sparse_vec.hpp"
#include "honeyfarm/honeyfarm.hpp"
#include "netgen/population.hpp"
#include "netgen/scenario.hpp"
#include "telescope/telescope.hpp"

namespace obscorr::core {

/// One telescope snapshot, fully reduced.
struct SnapshotData {
  netgen::CaidaSnapshotSpec spec;
  int month_index = 0;            ///< 0-based study month of the window
  gbl::DcsrMatrix matrix;         ///< anonymized ext->int traffic matrix
  gbl::SparseVec source_packets;  ///< A·1 over anonymized source ids
  d4m::AssocArray sources;        ///< deanonymized ip -> "packets" assoc
  std::uint64_t valid_packets = 0;
  std::uint64_t discarded_packets = 0;
  double duration_sec = 0.0;      ///< scaled window duration
};

/// The full study: scenario + population + all observations.
struct StudyData {
  netgen::Scenario scenario;
  std::shared_ptr<netgen::Population> population;
  std::vector<SnapshotData> snapshots;
  std::vector<honeyfarm::MonthlyObservation> months;

  /// log2(sqrt(N_V)): the paper's brightness threshold coordinate.
  double half_log_nv() const { return static_cast<double>(scenario.population.log2_nv) / 2.0; }
};

/// The scenario's telescope: its darkspace and legitimate prefix, keyed
/// with the operator's CryptoPAN secret `population.seed ^ 0xCA1DA`.
/// Every capture of a scenario (campaign snapshots, scaling ladder, live
/// ingest, `obscorr capture`) uses this one configuration, so all of
/// them anonymize identically.
telescope::TelescopeConfig scope_config_for(const netgen::Scenario& scenario);

/// Run the complete campaign. Deterministic in the scenario's seed.
StudyData run_study(const netgen::Scenario& scenario, ThreadPool& pool);

/// Run only the telescope snapshots (cheaper, for degree-distribution
/// work that does not need the honeyfarm).
StudyData run_telescope_only(const netgen::Scenario& scenario, ThreadPool& pool);

/// Run one telescope snapshot of the campaign against a prebuilt
/// population. Bit-identical to `run_study(...).snapshots[index]`:
/// CryptoPAN is a pure function of its key and the deanonymization
/// dictionary is rebuilt per window, so snapshots are independent. This
/// is the resume granularity of the study archive.
SnapshotData run_snapshot(const netgen::Scenario& scenario, const netgen::Population& population,
                          std::size_t snapshot_index, ThreadPool& pool);

/// Run one honeyfarm month under a `study.month` span; bit-identical to
/// `run_study(...).months[index]`.
honeyfarm::MonthlyObservation run_month(const netgen::Scenario& scenario,
                                        const netgen::Population& population,
                                        std::size_t month_index);

}  // namespace obscorr::core
