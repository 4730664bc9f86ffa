#pragma once
/// \file study_archive.hpp
/// The persistent study archive: one directory per campaign holding the
/// scenario, every telescope snapshot (DCSR matrix, Table II source
/// reduction, deanonymized D4M assoc array, window metadata) and every
/// honeyfarm month, all as checksummed entries in the archive log (see
/// writer.hpp for the on-disk framing).
///
/// Three access levels:
///
///  * `archive_study` — run (or resume) a campaign and persist it. The
///    entry log is append-only and each snapshot/month is regenerated
///    independently, so a killed run continues where it stopped instead
///    of recomputing finished work. The manifest is written last; its
///    existence marks the archive complete.
///  * `StudyReader` — zero-copy queries over a completed archive:
///    matrices as `gbl::MatrixView` and source reductions as spans
///    straight over the mapped log, no nnz-sized copies.
///  * `read_study` — materialize a full `core::StudyData`, bit-identical
///    to what `core::run_study` returns for the archived scenario.
///
/// Entry naming: "scenario", "snapshot/<k>/{meta,matrix,sources,assoc}",
/// "month/<m>", with <k>/<m> 0-based decimal indices. The resident
/// service appends live capture windows on top of a completed archive as
/// "window/<w>/{meta,matrix,sources}" (see live_archive.hpp); they are
/// additive — every batch query over the completed prefix is untouched.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "archive/reader.hpp"
#include "common/thread_pool.hpp"
#include "core/study.hpp"
#include "gbl/matrix_view.hpp"
#include "honeyfarm/database.hpp"

namespace obscorr::archive {

/// What `archive_study` did: how much work was reused from a previous
/// (possibly killed) run vs generated fresh.
struct ArchiveStats {
  std::size_t snapshots_total = 0;
  std::size_t snapshots_reused = 0;
  std::size_t months_total = 0;
  std::size_t months_reused = 0;
  bool already_complete = false;  ///< a finished archive for this scenario existed
  /// A SIGINT/SIGTERM stopped the run between entries: everything
  /// complete was flushed (the log is resumable) but no manifest was
  /// committed. Rerunning the same command continues where it stopped.
  bool interrupted = false;
};

/// Metadata for one live capture window appended by the resident
/// service, entry "window/<w>/meta".
struct LiveWindowMeta {
  std::uint64_t window = 0;     ///< 0-based live window index
  std::int32_t month_index = 0; ///< scenario month the window drew from
  std::uint64_t salt = 0;       ///< traffic salt: the deterministic replay key
  std::uint64_t valid_packets = 0;
  std::uint64_t discarded_packets = 0;
  double start_sec = 0.0;
  double duration_sec = 0.0;
};

/// Entry name "window/<w>/<part>" for live windows (parts: meta, matrix,
/// sources — live windows carry no deanonymized assoc array).
std::string window_entry(std::size_t w, const char* part);

std::string encode_window_meta(const LiveWindowMeta& meta);
LiveWindowMeta decode_window_meta(std::span<const std::byte> bytes);

/// The archive's source-reduction encoding (u64 nnz, u32[nnz] ids, pad8,
/// f64[nnz] values) — shared by snapshot and live-window entries.
std::string encode_source_vector(const gbl::SparseVec& v);

/// Serialize a scenario to the archive's binary encoding / back. The
/// encoding is canonical: byte-equality of encodings is scenario
/// equality, which is what resume keys on.
std::string encode_scenario(const netgen::Scenario& scenario);
netgen::Scenario decode_scenario(std::span<const std::byte> bytes);

/// FNV-1a 64 fingerprint of the canonical encoding; stored in the
/// manifest so readers can cheaply check archive/scenario identity.
std::uint64_t scenario_fingerprint(const netgen::Scenario& scenario);

/// Run the scenario's campaign into `dir`, resuming any complete
/// snapshots/months left by a previous interrupted run of the *same*
/// scenario (a differing scenario restarts the log from scratch), then
/// commit the manifest. Throws std::invalid_argument when `dir` already
/// holds a *completed* archive of a different scenario. Missing months
/// are built as `pool` tasks and appended in index order, so the files
/// written do not depend on the thread count. Call from outside `pool`'s
/// tasks: the calling thread waits on them without helping.
ArchiveStats archive_study(const netgen::Scenario& scenario, const std::string& dir,
                           ThreadPool& pool);

/// Persist an already-computed study into `dir`, replacing any previous
/// content, and commit the manifest.
void write_study(const core::StudyData& study, const std::string& dir);

/// Materialize the full study from a completed archive. Bit-identical to
/// `core::run_study(scenario, pool)` for the archived scenario.
core::StudyData read_study(const std::string& dir);

/// Zero-copy query access to a completed archive. Opening verifies every
/// checksum and that the catalog is complete for the archived scenario.
class StudyReader {
 public:
  explicit StudyReader(const std::string& dir);

  const netgen::Scenario& scenario() const { return scenario_; }
  std::uint64_t scenario_hash() const { return reader_.scenario_hash(); }
  std::size_t snapshot_count() const { return scenario_.snapshots.size(); }
  std::size_t month_count() const { return scenario_.months.size(); }
  double half_log_nv() const {
    return static_cast<double>(scenario_.population.log2_nv) / 2.0;
  }

  /// Snapshot k's traffic matrix as a validated view — straight over
  /// the mapped log for raw entries, over a cache-retained decoded page
  /// for compressed ones (the view shares ownership of the page, so it
  /// stays valid regardless of eviction). No copy of the DCSR arrays
  /// either way.
  gbl::MatrixView matrix(std::size_t k) const;

  /// A Table II source-packet reduction (A·1) served as spans plus the
  /// page (if any) that keeps them alive: hold the ref as long as the
  /// spans are in use.
  struct SourcesRef {
    std::span<const gbl::Index> ids;
    std::span<const gbl::Value> counts;
    std::shared_ptr<const void> owner;  ///< null when mmap-backed
  };

  /// Snapshot k's source reduction, zero-copy (see SourcesRef).
  SourcesRef sources(std::size_t k) const;

  /// Owning copy of the source reduction (for APIs taking SparseVec).
  gbl::SparseVec source_packets(std::size_t k) const;

  /// Snapshot k's capture metadata alone (spec, month, packet counts,
  /// duration): no matrix, reduction or assoc array is read.
  core::SnapshotData snapshot_meta(std::size_t k) const;

  /// Fully materialized snapshot k / month m / whole study. Pass
  /// `with_matrix = false` to leave the snapshot's DCSR matrix empty:
  /// every downstream analysis consumes only the reductions
  /// (`source_packets`, `sources`), and skipping the nnz-sized
  /// materialization is a large share of the `--from` latency win.
  core::SnapshotData snapshot(std::size_t k, bool with_matrix = true) const;
  honeyfarm::MonthlyObservation month(std::size_t m) const;
  std::vector<honeyfarm::MonthlyObservation> months() const;

  /// Month m's label and a validated, address-keyed view of its catalog
  /// (`d4m::AssocView::from_ip_bytes`, which ranks the row keys as it
  /// checks them): over the mapped log for a raw entry, over a decoded
  /// cache page for a compressed one (the view shares ownership of the
  /// page). No key is copied. A catalog the view rejects, a row key that
  /// is not a canonical dotted quad among them, throws
  /// std::invalid_argument naming the entry. A raw entry's view reads
  /// this reader's mapping, so the reader must outlive it. Safe to call
  /// concurrently.
  honeyfarm::MonthView month_view(std::size_t m) const;
  core::StudyData study() const;

  /// The `--from` load: a study sufficient for every report analysis but
  /// with no DCSR matrices and no ground-truth Population reconstruction
  /// — the analyses consume only the archived reductions and catalogs,
  /// and those two omissions are most of the query path's speedup over
  /// recompute. The months and each snapshot's metadata-and-reduction
  /// and assoc array are decoded as entries that `pool`'s workers claim
  /// one at a time, largest stored entry first, under one `study.load`
  /// span. Every entry runs to its end; then the exception of the first
  /// failed entry in read order (snapshots, then months) is rethrown.
  /// Safe inside a `pool` task.
  core::StudyData analysis_study(ThreadPool& pool = ThreadPool::global()) const;

  /// Re-read the manifest and absorb live windows published since open
  /// (or the last refresh) without remapping the already-served log —
  /// only the appended tail is mapped and checksummed (see
  /// ArchiveReader::refresh). Returns the number of newly visible
  /// complete windows. Spans handed out earlier remain valid. Not
  /// thread-safe against concurrent queries on the same object; the
  /// service holds a shared/exclusive lock around queries/refresh.
  std::size_t refresh();

  /// Live capture windows ("window/<w>/...") appended by the resident
  /// service on top of the completed campaign. Zero for batch archives.
  std::size_t window_count() const { return window_count_; }
  LiveWindowMeta window_meta(std::size_t w) const;
  gbl::MatrixView window_matrix(std::size_t w) const;
  SourcesRef window_sources(std::size_t w) const;
  gbl::SparseVec window_source_packets(std::size_t w) const;

  /// True when queries are served by mmap rather than a heap copy.
  bool mapped() const { return reader_.mapped(); }

  const std::string& dir() const { return reader_.dir(); }

 private:
  /// First index >= `from` whose window entries are incomplete — i.e.
  /// the count of contiguous complete windows.
  std::size_t count_windows(std::size_t from) const;

  ArchiveReader reader_;
  netgen::Scenario scenario_;
  std::size_t window_count_ = 0;
};

}  // namespace obscorr::archive
