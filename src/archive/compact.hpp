#pragma once
/// \file compact.hpp
/// Tiered retention: rewrite an archive into a new log generation with
/// old windows block-compressed (OBSAENT2) and recent windows kept raw
/// for zero-copy mmap reads.
///
/// Compaction never touches the live generation's files: it builds the
/// complete next-generation log beside them, then publishes one
/// manifest naming it (tmp + rename — the same atomic commit every
/// other archive mutation uses). A crash at any point leaves the
/// previous generation fully readable; only after the manifest lands
/// are the superseded logs deleted (best-effort — stale logs are
/// harmless, the manifest names the one that counts). Live readers pick
/// the new generation up on their next refresh(); a LiveArchive opened
/// afterwards appends raw frames to the new generation's tail, so the
/// ingest path's no-torn-reads guarantee is untouched.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/thread_pool.hpp"

namespace obscorr::archive {

struct CompactOptions {
  /// Windows within this many of the newest stay raw (the hot tail the
  /// service is still hammering); snapshots, months, and older windows
  /// are compression candidates.
  std::size_t keep_recent = 8;
  /// Compress every eligible entry regardless of recency (the CI
  /// forced-compression leg, and cold archives headed for storage).
  bool compress_all = false;
};

struct CompactStats {
  std::uint64_t entries_total = 0;
  std::uint64_t entries_compressed = 0;  ///< compressed in the new log
  std::uint64_t raw_bytes = 0;           ///< decoded payload bytes
  std::uint64_t stored_bytes_before = 0;
  std::uint64_t stored_bytes_after = 0;
  std::uint32_t generation = 0;  ///< generation the rewrite published

  double ratio() const {
    return stored_bytes_after == 0
               ? 1.0
               : static_cast<double>(raw_bytes) / static_cast<double>(stored_bytes_after);
  }
};

/// Rewrite `dir` as described above. Fully verifies the source archive
/// first (same guarantees as ArchiveReader); entries that are already
/// compressed copy through without a decode cycle, and entries the
/// codec cannot shrink stay raw. Decoded bytes are preserved exactly:
/// every read path is byte-identical before and after.
///
/// The entries to compress are encoded as `pool` tasks, the largest
/// stored entry claimed first, each under an `archive.encode` span. The
/// calling thread then appends every entry in catalogue order, so the
/// new log and manifest are the same bytes at every pool size. The
/// encoded entries are held in memory until they are appended, and the
/// next-generation log is created only once every encode has finished.
/// Safe inside a `pool` task.
CompactStats compact_archive(const std::string& dir, const CompactOptions& opts = {},
                             ThreadPool& pool = ThreadPool::global());

}  // namespace obscorr::archive
