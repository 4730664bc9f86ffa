#pragma once
/// \file correlation.hpp
/// Cross-observatory correlation analyses — the paper's §III results.
///
///  * `peak_correlation`     — Fig. 4: fraction of telescope sources seen
///    by the honeyfarm the same month, per brightness bin, with the
///    empirical log-law overlay.
///  * `temporal_correlation` — Figs. 5/6: fraction of one snapshot's
///    sources (in one brightness bin) found in each study month, plus
///    Gaussian / Cauchy / modified-Cauchy fits.
///  * `fit_grid`             — Figs. 7/8: best-fit modified-Cauchy (α, β)
///    across all snapshots and brightness bins.
///
/// Each counts the sources both observatories saw — the D4M intersection
/// of a snapshot's and a month's row keys — with one galloping merge of
/// the two sorted key lists per (snapshot, month) pair, binned by the
/// snapshot's "packets" column.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/study.hpp"
#include "stats/temporal.hpp"

namespace obscorr::core {

/// One brightness bin of the same-month correlation (Fig. 4).
struct PeakCorrelationBin {
  int bin = 0;                     ///< log2 bin: d in [2^bin, 2^(bin+1))
  std::uint64_t caida_sources = 0; ///< telescope sources in the bin
  std::uint64_t matched = 0;       ///< of those, present in the honeyfarm month
  double fraction = 0.0;           ///< matched / caida_sources
  double model = 0.0;              ///< paper law: min(1, (bin+0.5)/log2(sqrt(N_V)))
};

/// Fig. 4 for one snapshot against one honeyfarm month.
std::vector<PeakCorrelationBin> peak_correlation(const SnapshotData& snapshot,
                                                 const honeyfarm::MonthlyObservation& month,
                                                 double half_log_nv);

/// Fig. 4 averaged over every snapshot paired with its coeval month.
std::vector<PeakCorrelationBin> peak_correlation_all(const StudyData& study);

/// Component-level overload for the archive query path: operates on the
/// observation series directly, no Population or StudyData required.
std::vector<PeakCorrelationBin> peak_correlation_all(
    std::span<const SnapshotData> snapshots,
    std::span<const honeyfarm::MonthlyObservation> months, double half_log_nv);

/// One temporal-correlation curve (Figs. 5/6) with its fits.
struct TemporalCorrelation {
  int bin = 0;                        ///< brightness bin of the tracked sources
  std::uint64_t bin_sources = 0;      ///< telescope sources tracked
  stats::TemporalSeries series;       ///< fraction seen per month offset
  stats::TemporalFit<stats::ModifiedCauchy> modified_cauchy;
  stats::TemporalFit<stats::Cauchy> cauchy;
  stats::TemporalFit<stats::Gaussian> gaussian;
};

/// Track the snapshot's bin-`bin` sources across every study month.
/// Returns nullopt when the bin holds fewer than `min_sources` sources
/// (fits on a handful of sources are noise).
std::optional<TemporalCorrelation> temporal_correlation(const SnapshotData& snapshot,
                                                        const StudyData& study, int bin,
                                                        std::uint64_t min_sources = 20);

/// Component-level overload (archive query path).
std::optional<TemporalCorrelation> temporal_correlation(
    const SnapshotData& snapshot, std::span<const honeyfarm::MonthlyObservation> months,
    int bin, std::uint64_t min_sources = 20);

/// One cell of the Fig. 6 grid / Figs. 7-8 parameter tables.
struct FitGridCell {
  std::size_t snapshot = 0;  ///< index into study.snapshots
  TemporalCorrelation curve;
};

/// All (snapshot × brightness-bin) temporal fits with enough sources.
/// Each snapshot is binned once and each (snapshot, month) pair counted
/// with one merge, as pool tasks; the cells are then fitted as
/// `parallel_for` tasks into slots ordered (snapshot, bin) — identical
/// output at any thread count. The pool-less overloads run on the
/// process-global pool.
std::vector<FitGridCell> fit_grid(const StudyData& study, std::uint64_t min_sources = 20);
std::vector<FitGridCell> fit_grid(const StudyData& study, std::uint64_t min_sources,
                                  ThreadPool& pool);

/// Component-level overloads (archive query path).
std::vector<FitGridCell> fit_grid(std::span<const SnapshotData> snapshots,
                                  std::span<const honeyfarm::MonthlyObservation> months,
                                  std::uint64_t min_sources = 20);
std::vector<FitGridCell> fit_grid(std::span<const SnapshotData> snapshots,
                                  std::span<const honeyfarm::MonthlyObservation> months,
                                  std::uint64_t min_sources, ThreadPool& pool);

}  // namespace obscorr::core
