#pragma once
/// \file reader.hpp
/// The archive's read side. Opening an archive parses and CRC-verifies
/// the manifest, maps the entry log (mmap where available), bounds-checks
/// every catalog row against the mapping, and verifies every entry
/// payload checksum up front — after a successful open, any single-byte
/// corruption anywhere in the manifest or an entry payload has already
/// been rejected with a clear std::invalid_argument, never a crash and
/// never a silently wrong answer.
///
/// Raw (OBSAENT1) entries are served as read-only spans straight over
/// the mapping: the zero-copy query path. Compressed (OBSAENT2) entries
/// decode into heap pages retained by a per-reader LRU page cache
/// (page_cache.hpp), so a hot window is decoded once and then served at
/// memory speed; the returned PayloadView keeps the page alive for as
/// long as the caller holds it, independent of cache eviction.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "archive/mapped_file.hpp"
#include "archive/page_cache.hpp"
#include "archive/writer.hpp"  // EntryInfo, ParsedManifest, file names

namespace obscorr::archive {

/// Decoded payload bytes plus whatever owns them: nothing for raw
/// entries (the reader's mapping outlives the view), a cache page for
/// compressed entries. There is no conversion to a bare span: callers
/// name `.bytes`, and one that keeps the bytes beyond the expression
/// keeps the view (or the page) with them.
struct PayloadView {
  std::span<const std::byte> bytes;
  CachePage page;  ///< null for zero-copy raw entries

  const std::byte* data() const { return bytes.data(); }
  std::size_t size() const { return bytes.size(); }
  bool empty() const { return bytes.empty(); }
};

/// Read-only, integrity-checked view of a completed archive directory.
class ArchiveReader {
 public:
  /// Open and fully verify `dir`; throws std::invalid_argument when the
  /// directory, manifest, or any entry is missing, truncated, or fails
  /// its checksum.
  explicit ArchiveReader(const std::string& dir);

  std::uint64_t scenario_hash() const { return scenario_hash_; }

  const std::vector<EntryInfo>& entries() const { return entries_; }
  bool has(std::string_view name) const;

  /// Decoded payload bytes of `name` — zero-copy over the mapping for
  /// raw entries (8-byte aligned start), a cached decode for compressed
  /// ones; throws when the entry does not exist or its compressed
  /// container is malformed.
  PayloadView payload(std::string_view name) const;

  /// Stored (possibly compressed) payload bytes of `name`, straight
  /// over the mapping with no decode — what `archive compact` copies
  /// through when an entry is already compressed.
  std::span<const std::byte> stored_payload(std::string_view name) const;

  /// Re-read the manifest and absorb entries appended (and published)
  /// since this reader last looked, without remapping the already-served
  /// prefix of the log: only the new tail `[old data size, new data
  /// size)` is mapped, as an additional segment, and only the new bytes
  /// are checksummed (the whole-log CRC extends incrementally). Returns
  /// the number of new entries (0 when the manifest is unchanged).
  ///
  /// When the manifest names a different log generation (`archive
  /// compact` ran since the last look), the new generation's log is
  /// opened and verified in full instead; the previous generation's
  /// mappings are retired, not unmapped, so every span handed out
  /// before the refresh stays valid afterwards — the same lifetime
  /// contract as the append path.
  ///
  /// All-or-nothing: the manifest is published by atomic rename, so a
  /// refresh sees either the previous complete catalog or the new one —
  /// never a torn intermediate.
  ///
  /// Not thread-safe against concurrent queries on the same object;
  /// callers serving refresh concurrently with reads (the service) hold
  /// a shared/exclusive lock around payload()/refresh().
  std::size_t refresh();

  /// True when the entry log is served by mmap (false: owned buffer).
  bool mapped() const { return log_.mapped(); }

  std::uint32_t generation() const { return generation_; }

  const std::string& dir() const { return dir_; }

  /// The decoded-page cache (test/diagnostic use; may be consulted but
  /// not replaced).
  const PageCache& cache() const { return *cache_; }

 private:
  /// A mapping of `[base, base + map.size())` of the entry log, added by
  /// refresh() for bytes beyond the prefix mapped at open.
  struct TailSegment {
    std::uint64_t base = 0;
    MappedFile map;
  };

  /// Open and verify the log generation `m` names, replacing the
  /// current mappings (which the caller must have retired first when
  /// views may be outstanding).
  void attach(ParsedManifest m);
  const EntryInfo& find_entry(std::string_view name) const;
  std::span<const std::byte> locate(const EntryInfo& e) const;

  std::string dir_;
  std::uint64_t scenario_hash_ = 0;
  std::uint32_t generation_ = 0;
  std::vector<EntryInfo> entries_;
  MappedFile log_;
  std::uint64_t data_size_ = 0;  ///< published log bytes covered so far
  std::uint32_t log_crc_ = 0;    ///< whole-log CRC at data_size_
  std::vector<TailSegment> tails_;
  /// Mappings of superseded generations, kept alive so spans handed out
  /// before a cross-generation refresh() remain valid.
  std::vector<MappedFile> retired_;
  std::unique_ptr<PageCache> cache_;
};

}  // namespace obscorr::archive
